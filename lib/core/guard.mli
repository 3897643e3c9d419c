(** Per-analysis resource governor: wall-clock deadline, fixpoint fuel,
    and size ceilings, plus the task deadline that {!Pool} task
    timeouts and {!Serve} request deadlines install.

    A {!t} is created per analysis (see {!Analysis.analyze}'s [?guard])
    and consulted by the engine at its existing fixed-point boundaries —
    the same places the {!Trace} layer opens spans: per loop-fixpoint
    iteration, per body pass of a (possibly recursive) invocation-graph
    node evaluation, and whenever the invocation graph grows under an
    indirect call. Checks are cheap enough to leave on unconditionally;
    an unlimited guard costs a few loads per site.

    When a budget is exhausted the engine does not die: {!Exhausted}
    unwinds to {!Analysis.analyze}, which reruns the program under the
    widened (context-insensitive, possible-only) semantics with a fresh
    deadline-only guard and marks the result degraded. {!Cancelled} is
    different — it means the driver gave up on this task (a pool
    timeout or a request deadline), so it propagates without any
    degradation attempt. *)

(** What an analysis is allowed to spend. [None] fields are unlimited. *)
type budget = {
  b_deadline_ms : float option;
      (** wall-clock allowance for the whole analysis, milliseconds,
          measured on the monotonic clock ({!Mono}) so a system clock
          step can neither trip nor extend the deadline *)
  b_fuel : int option;
      (** max iterations of any single fixpoint loop: one statement
          loop's iterate count, or one IG node's body passes *)
  b_max_locs : int option;
      (** size ceiling, applied to both a function output's points-to
          pair count and the total invocation-graph node count *)
  b_max_heap_mb : int option;
      (** memory ceiling, megabytes of major-heap size: sampled with
          {!Gc.quick_stat} at the {!check} boundaries (every few dozen
          calls), with a {!Gc.alarm} backstop flagging a blown ceiling
          at the end of each major collection. Tripping degrades the
          analysis exactly like the other budgets — exit code 3, not an
          OOM kill (docs/ROBUSTNESS.md) *)
}

val no_budget : budget
val is_no_budget : budget -> bool

type reason = Deadline | Fuel | Size | Nodes | Heap

val reason_name : reason -> string
(** ["deadline"], ["fuel"], ["set-size"], ["ig-nodes"], ["heap"]. *)

(** Structured diagnostics carried by {!Exhausted} and surfaced on
    degraded {!Analysis.result}s. *)
type trip = {
  t_reason : reason;
  t_where : string option;  (** innermost function under evaluation *)
  t_after_ms : float;  (** elapsed wall-clock when the budget blew *)
}

exception Exhausted of trip
(** A budget ran out. Recoverable: {!Analysis.analyze} catches it and
    degrades. *)

exception Cancelled
(** The task's deadline ({!with_task_deadline}) passed. Not
    recoverable by degradation — propagates to the pool, which reports
    it as the task's error, or to {!Serve}, which replies [error]. *)

type t

val make : budget -> t
(** Start the clock now. Honors the {!Fault.Expired_deadline} injection
    (the deadline starts already in the past). *)

val unlimited : unit -> t
val of_budget : budget option -> t

val widened : t -> t
(** The guard for the degradation rerun: the same deadline allowance
    measured afresh, no fuel or size ceilings (the widened mode has no
    exponential context machinery for them to bound). Deliberately
    ignores {!Fault.Expired_deadline} so the injected "arrived out of
    budget" fault still gets an answer from the fallback. *)

val budget : t -> budget

val limited : t -> bool
(** [false] iff the guard carries {!no_budget} (cancellation still
    works on unlimited guards). *)

val at : t -> string -> unit
(** Record the function currently under evaluation, for {!trip}
    diagnostics. *)

val elapsed_ms : t -> float

val check : t -> unit
(** Poll the task deadline, the heap ceiling and the guard's own
    deadline. Raises {!Cancelled} or {!Exhausted}. Called at every
    fixpoint boundary, budgeted or not; with no task deadline set, that
    part of the check is one domain-local read. *)

val check_fuel : t -> int -> unit
(** [check_fuel g spent] — iterations spent on the current fixpoint
    loop. Raises {!Exhausted} with {!Fuel} when over budget. *)

val check_size : t -> int -> unit
(** Points-to pair count of a just-computed function output against
    [b_max_locs]. *)

val check_nodes : t -> int -> unit
(** Invocation-graph node count against [b_max_locs]. *)

val dispose : t -> unit
(** Remove the guard's {!Gc.alarm} backstop, if any. Call when a
    heap-budgeted guard's analysis ends (normally or by unwinding); a
    no-op for guards without [b_max_heap_mb]. {!Analysis.analyze} does
    this — only callers constructing heap-budgeted guards directly need
    to care. *)

(** {1 Cooperative cancellation}

    A task deadline bounds whatever runs on this domain, whichever guard
    it checks: {!Pool.run_list}[ ~timeout_ms] installs one around each
    task it runs, and {!Serve} around each request. *)

val with_task_deadline : ms:float -> (unit -> 'a) -> 'a
(** [with_task_deadline ~ms f] runs [f] with this domain's task
    deadline set [ms] milliseconds from now on the monotonic clock
    ({!Mono}), and restores the previous deadline when [f] returns or
    raises. While it runs, {!check} raises {!Cancelled} once the clock
    passes the deadline. Outside any call, a domain has no deadline. *)

val pp_budget : Format.formatter -> budget -> unit
val pp_trip : Format.formatter -> trip -> unit
