(** Deterministic fault injection for the robustness test and chaos
    harnesses.

    Production code is sprinkled with a handful of {e injection points}
    — places where a fault can be switched on deterministically instead
    of waiting for the real world to produce it:

    - {!Slow_fixpoint}: every body pass of a context-sensitive node
      evaluation sleeps ([PTAN_FAULT_SLEEP_MS], default 50 ms),
      optionally only in the function named by [PTAN_FAULT_FN] — a
      pathological input that hangs the precise fixed point. The
      injected sleep does {e not} apply to the widened
      (context-insensitive) degradation path, which models the
      approximation escaping the blowup.
    - {!Corrupt_cache}: a {!Persist} cache save flips one byte of the entry
      after publishing it — torn/corrupt storage.
    - {!Task_exn}: every {!Pool} task raises {!Injected} before running
      — a crashing worker.
    - {!Expired_deadline}: {!Guard.make} starts with the wall-clock
      deadline already in the past — a request that arrives out of
      budget.

    Injection points are off by default and cost one lazy force plus an
    [Atomic.get] when consulted. Configure the whole process with the
    environment ([PTAN_FAULTS="slow-fixpoint,task-exn"], read once,
    lazily; unknown names fail loudly), or programmatically with {!set}
    / {!with_point} from tests. See docs/ROBUSTNESS.md. *)

type point =
  | Slow_fixpoint  (** sleep per context-sensitive fixpoint body pass *)
  | Corrupt_cache  (** flip a byte of every saved cache file *)
  | Task_exn  (** raise {!Injected} from every pool task *)
  | Expired_deadline  (** new guards start past their deadline *)
  | Alloc_spike
      (** {!Guard}'s heap sampling reads an impossibly large live size:
          any [--max-heap-mb] ceiling trips on the next check — a
          deterministic stand-in for a real allocation blowup *)
  | Worker_kill
      (** {!Serve} workers SIGKILL themselves as a request batch
          starts — an OOM-killed daemon, as seen by its supervisor.
          [PTAN_FAULT_KILL_FILE] arms it per-request: the kill fires
          only while that file exists and unlinks it on firing *)

(** Raised by the {!Task_exn} injection. *)
exception Injected of string

val point_name : point -> string
(** ["slow-fixpoint"], ["corrupt-cache"], ["task-exn"],
    ["expired-deadline"], ["alloc-spike"], ["worker-kill"] — the names
    accepted by [PTAN_FAULTS]. *)

val point_of_name : string -> point option
val all_points : point list

val enabled : point -> bool
(** Is the injection on? First call reads the environment. *)

val set : ?fn:string -> ?sleep_ms:float -> point -> bool -> unit
(** Switch an injection on or off; [fn] retargets {!Slow_fixpoint} to
    one function, [sleep_ms] adjusts its sleep. *)

val with_point : ?fn:string -> ?sleep_ms:float -> point -> (unit -> 'a) -> 'a
(** Run with an injection enabled, restoring the previous configuration
    afterwards (including on raise). *)

val target_fn : unit -> string option
(** {!Slow_fixpoint}'s function filter ([PTAN_FAULT_FN]); [None] means
    every function. *)

val sleep_s : unit -> float
(** {!Slow_fixpoint}'s sleep, seconds. *)

val maybe_slow_fixpoint : fn:string -> unit
(** The {!Slow_fixpoint} site (engine, per body pass). *)

val maybe_task_exn : unit -> unit
(** The {!Task_exn} site (pool, before each task). *)

val maybe_corrupt_file : string -> unit
(** The {!Corrupt_cache} site (persist, after the atomic rename). *)

val maybe_worker_kill : unit -> unit
(** The {!Worker_kill} site (serve, as a request batch starts). *)
