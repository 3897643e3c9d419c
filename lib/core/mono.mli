(** Monotonic clock, for deadlines and elapsed-time measurement.

    [Unix.gettimeofday] follows the system clock: an NTP step or a
    manual clock change mid-run moves it arbitrarily in either
    direction, which can spuriously trip — or indefinitely extend — a
    wall-clock deadline. Everything in this library that compares two
    clock readings ({!Guard} deadlines, the {!Pool} watchdog's task
    ages) reads this clock instead: [CLOCK_MONOTONIC], which only ever
    advances and is immune to clock steps.

    The origin is arbitrary (boot time on Linux); readings are only
    meaningful as differences. Trace spans ({!Trace.start}) and the
    phase timers ({!Metrics.now}) read this clock too: both are consumed
    as durations and offsets, never as dates. Only a timestamp that must
    align with the outside world, such as a log line, needs
    [Unix.gettimeofday]. *)

val now_s : unit -> float
(** Monotonic seconds since an arbitrary origin. *)

val now_ms : unit -> float
(** Monotonic milliseconds since an arbitrary origin. *)
