(** Fixed-size domain pool for embarrassingly parallel driver work.

    A pool owns [jobs - 1] worker domains plus the calling domain; tasks
    submitted through {!run_list} or {!map} are drained from a shared
    queue. With [jobs = 1] no domains are spawned and tasks run inline
    on the caller, so sequential and parallel runs share one code path.

    Tasks must not share mutable state: the analysis keeps its state in
    [Domain.DLS] (metrics, interning, gensym counters), so analyzing
    distinct programs on distinct domains is safe by construction.
    Results are returned in submission order regardless of completion
    order, which is what gives parallel drivers deterministic output. *)

type t

val create : jobs:int -> t
(** [create ~jobs] makes a pool that runs up to [jobs] tasks
    concurrently ([jobs] is clamped below at 1). Workers idle until
    work is submitted and are reused across calls. *)

val jobs : t -> int
(** Concurrency the pool was created with (after clamping). *)

val run_list : ?timeout_ms:float -> t -> (unit -> 'a) list -> ('a, exn) result list
(** [run_list pool tasks] runs every task and blocks until all finish.
    The result list is in the same order as [tasks]; a task that raises
    yields [Error exn] without disturbing the others.

    [timeout_ms] arms a per-task wall-clock limit, measured from when
    the task {e starts running} (not from submission) on the monotonic
    clock ({!Mono}): the task runs under {!Guard.with_task_deadline},
    and its analysis unwinds as [Error Guard.Cancelled] at the first
    {!Guard.check} past the deadline. Cancellation is cooperative — a
    task that never polls (pure OCaml with no guard sites) runs to
    completion. An untimed call leaves the running domain's deadline
    in place: made from inside a timed task, it stays bounded by that
    task's deadline in the tasks it runs on the calling domain.
    Timeouts spawn no domain.
    Each task honours the {!Fault.Task_exn} injection point. *)

val map_result : ?timeout_ms:float -> t -> ('a -> 'b) -> 'a list -> ('b, exn) result list
(** [map_result pool f xs] is {!run_list} specialised to a function
    applied to each element: per-element error isolation, results in
    [xs] order. *)

val map : t -> ('a -> 'b) -> 'a list -> 'b list
(** {!map_result} with errors re-raised: the first exception (in
    submission order) is re-raised after all tasks have finished. *)

val shutdown : t -> unit
(** Join the worker domains. The pool must not be used afterwards;
    calling [shutdown] twice is harmless. *)

val with_pool : jobs:int -> (t -> 'a) -> 'a
(** [with_pool ~jobs f] runs [f] with a fresh pool and shuts it down
    afterwards, whether [f] returns or raises. *)
