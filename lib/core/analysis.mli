(** Top-level driver for the context-sensitive interprocedural points-to
    analysis.

    [analyze] (or the [of_string]/[of_file] conveniences, which run the
    front end and simplifier first) computes the full interprocedural
    fixed point — invocation graph construction, map/unmap of points-to
    information across calls, function-pointer resolution — and returns
    a {!result}: the self-contained value every consumer works from
    (statistics in {!Stats}, alias pairs and demand queries in the
    [alias] library, pointer replacement in [transforms], the companion
    heap analysis, constant propagation).

    Results are immutable once returned and can be persisted to disk and
    loaded back bit-identically by {!Persist} — the analyze-once /
    query-many layer behind the [ptan] disk cache. *)

module Ir = Simple_ir.Ir
module Ig = Invocation_graph

(** Why and how a result was degraded: the {!Guard.trip} that aborted
    the precise run, and the budget it was running under. *)
type degradation = {
  deg_trip : Guard.trip;
  deg_budget : Guard.budget;
}

type result = {
  prog : Ir.program;
  tenv : Tenv.t;
  graph : Ig.t;  (** the complete invocation graph with stored IN/OUT
                     pairs and map information (paper §6.1) *)
  stmt_pts : (int, Pts.t) Hashtbl.t;
      (** points-to set valid at each statement (its input, merged over
          all invocation contexts) *)
  entry_output : Pts.state;  (** output set of the entry function *)
  warnings : string list;
  metrics : Metrics.t;
      (** per-phase timing and operation counters of this run, among
          them the body passes ([bodies]) and the evaluations avoided by
          §6 sub-tree sharing ([memo_hits]). The result owns this record:
          it starts as a snapshot of the domain's {!Metrics.cur}, and
          later work on the result (a {!Persist} cache hit, its save and
          load timers) is counted here, not in the accumulator *)
  degraded : degradation option;
      (** [Some _] when a resource budget was exhausted and these tables
          come from the widened (context-insensitive, possible-only)
          rerun — still sound: every degraded table is a superset of
          what the precise run would have computed (docs/ROBUSTNESS.md) *)
  summaries : Engine.store;
      (** the run's (function, input) summary store; its entries recorded
          with [~record_summaries:true] or replayed from [seeded] are the
          payload of {!Persist}'s summary section, replayed by later
          incremental runs (docs/INCREMENTAL.md) *)
}

(** Initial set for the entry function: global and local pointers
    NULL-initialized (paper §6), entry parameters pointing into the
    heap. *)
val initial_input : Tenv.t -> Ir.func -> Pts.t

exception No_entry of string

(** Run the analysis from [entry] (default ["main"]).

    [budget] bounds the run (see {!Guard}): when any component of the
    budget is exhausted, the analysis degrades — it reruns under the
    widened (context-insensitive, possible-only) semantics with a fresh
    deadline-only guard and returns a result marked [degraded] instead
    of raising. The widened rerun getting its own full deadline bounds
    the total wall-clock at roughly twice [b_deadline_ms].

    @raise No_entry if the entry function is not defined.
    @raise Guard.Exhausted if even the widened rerun blows the deadline.
    [record_summaries] makes the engine record a replayable summary per
    evaluated (function, input) pair into [result.summaries]; [seeded]
    supplies summaries from a previous run to replay instead of
    re-evaluating (both default off — see docs/INCREMENTAL.md). The
    widened rerun of a degraded analysis never records or replays.

    @raise Guard.Cancelled if the driver cancelled this task
    ({!Pool} timeout) — never degraded, the caller gave up. *)
val analyze :
  ?opts:Options.t ->
  ?entry:string ->
  ?budget:Guard.budget ->
  ?record_summaries:bool ->
  ?seeded:Engine.store ->
  Ir.program ->
  result

(** Demand-driven run over a {!Demand.plan}'s slice, through the same
    driver as [analyze]: the invocation graph is built only within the
    slice, defined callees outside it are answered by summary replay
    (from [seeded], when a matching entry exists) or by the widened skip
    transfer, and only the seed function's statement rows are recorded,
    from statement visits and replayed frames alike. For every statement
    of the plan's seed the recorded row is bit-identical to [analyze]'s
    — the argument is in docs/DEMAND.md; rows of other statements are
    absent, seeded or not. The run emits a [Trace.Demand] span where
    [analyze] emits [Trace.Analysis].

    Falls back to the exhaustive [analyze] when an evaluated indirect
    call resolves to a defined target the planning oracle missed; the
    fallback's metrics add the aborted sliced attempt's counters and one
    [demand_fallbacks]. Runs exhaustively outright when [opts] disables
    context sensitivity.
    Unlike [analyze], this does not reset the {!Metrics} accumulator:
    the caller resets once {e before} building the plan, so the plan's
    slice counters and the run land in one epoch
    ([Alias.Demand_driver.analyze] does). Demand runs take no budget
    (no degradation path) and never record summaries — a body evaluated over a slice may skip nested calls, so
    its (input, output) pair must not seed later incremental runs; for
    the same reason [result.summaries] is empty and demand results must
    never enter the {!Persist} cache.

    @raise No_entry if the entry function is not defined. *)
val analyze_demand :
  ?opts:Options.t ->
  ?entry:string ->
  ?seeded:Engine.store ->
  plan:Demand.plan ->
  Ir.program ->
  result

(** Parse, simplify and analyze C source text. *)
val of_string :
  ?opts:Options.t ->
  ?entry:string ->
  ?budget:Guard.budget ->
  ?file:string ->
  string ->
  result

val of_file :
  ?opts:Options.t -> ?entry:string -> ?budget:Guard.budget -> string -> result

(** The points-to set valid at a statement ([Pts.empty] if unreached). *)
val pts_at : result -> int -> Pts.t

(** Same, with NULL-target pairs filtered (the paper's statistics
    convention, §6). *)
val pts_at_no_null : result -> int -> Pts.t

(** Force the lazy reverse index of every points-to set the result
    reaches: per-statement sets, the entry output and each
    invocation-graph node's stored input and output. Concurrent readers
    must not force the same lazy value (two domains racing on one
    suspension is a runtime error in OCaml 5), so prime a result before
    sharing it with parallel queries; afterwards answering queries only
    reads it. *)
val prime : result -> unit
