(** Engine observability: per-phase timing and work counters.

    Only the analysis entry points ({!Analysis.analyze} and
    [Alias.Demand_driver.analyze]) {!reset} the calling domain's
    accumulator ({!cur}); each stores a {!snapshot} in its result, which
    owns its counters from then on (later work on a result, such as a
    cache hit, bumps the result's record). Surfaced by
    [ptan analyze --stats], [ptan stats], [ptan tables --stats],
    [ptan serve --stats] and the bench harness.

    The accumulator is domain-local ({!Domain.DLS}): each {!Pool}
    worker bumps its own record, so parallel analyses never contend and
    each task's snapshot is coherent. Use {!add_into} / {!sum} to
    aggregate the snapshots of a multi-task run into one table. *)

type t = {
  mutable merges : int;  (** {!Pts.merge} invocations *)
  mutable merge_fast : int;  (** answered by the subsumption pre-check *)
  mutable equal_checks : int;
  mutable equal_fast : int;  (** decided by identity or cardinality *)
  mutable covered_checks : int;
  mutable covered_fast : int;
  mutable assigns : int;  (** kill/change/gen rule applications *)
  mutable kills : int;
  mutable weakens : int;
  mutable gens : int;
  mutable loop_iters : int;  (** loop-head fixed-point iterations *)
  mutable rec_iters : int;  (** recursion / pending re-evaluations *)
  mutable bodies : int;  (** function-body passes *)
  mutable memo_lookups : int;  (** §6 sub-tree sharing lookups *)
  mutable memo_hits : int;
  mutable map_calls : int;
  mutable unmap_calls : int;
  mutable records : int;
      (** statement visits and folded frame rows that land on a row
          their recording table already holds ({!Pts.Acc.add}) *)
  mutable cache_hits : int;  (** results served from the {!Persist} disk cache *)
  mutable cache_misses : int;  (** cache lookups that fell back to a fresh analysis *)
  mutable cache_quarantined : int;
      (** corrupt cache entries renamed to [.bad] and re-analyzed *)
  mutable budget_trips : int;
      (** {!Guard} budget exhaustions that degraded an analysis to the
          widened rerun *)
  mutable heap_trips : int;
      (** budget trips whose reason was the [--max-heap-mb] memory
          ceiling (a subset of [budget_trips]) *)
  mutable incr_funcs_dirty : int;
      (** incremental re-analysis: functions marked dirty by the
          content-hash diff (edited functions plus every function that
          can reach one — see docs/INCREMENTAL.md) *)
  mutable incr_funcs_reused : int;
      (** incremental re-analysis: summary replays — memoized
          (input, output) pairs served from persisted v3 summaries
          instead of re-running the function body *)
  mutable incr_nodes_rebuilt : int;
      (** incremental re-analysis: invocation-graph nodes that summary
          replays grew at recorded call sites, as the skipped
          evaluations would have (docs/INCREMENTAL.md) *)
  mutable incr_funcs_adopted : int;
      (** incremental re-analysis: functions with no body pass whose
          rows the run took from the entry's saved rows, because they
          are the least upper bound of exactly the frames it replayed
          (docs/INCREMENTAL.md) *)
  mutable demand_plans : int;  (** {!Demand} slice plans built *)
  mutable demand_slice_funcs : int;
      (** functions in the planned slices (summed over plans) *)
  mutable demand_funcs_total : int;
      (** defined functions in the planned programs (summed over plans) *)
  mutable demand_skipped : int;
      (** demand mode: out-of-slice call evaluations answered by the
          widened transfer *)
  mutable demand_replays : int;
      (** demand mode: out-of-slice call evaluations answered exactly
          from a seeded summary *)
  mutable demand_fallbacks : int;
      (** demand analyses aborted to the exhaustive engine after an
          {!Demand.Oracle_miss} *)
  mutable ext_modeled : int;
      (** external call evaluations answered by the {!Libmodel} table *)
  mutable ext_unmodeled : int;
      (** external call evaluations that fell back to the coarse
          model *)
  mutable t_map : float;  (** seconds in {!Map_unmap.map_call} *)
  mutable t_unmap : float;
  mutable t_record : float;
      (** seconds in the row folds that walk an accumulator and in
          freezing recording tables *)
  mutable t_parse : float;
      (** seconds parsing and lowering the source ({!Analysis.of_file},
          and {!Persist.analyze_cached} when it lowers) *)
  mutable t_analysis : float;  (** whole-analysis wall-clock seconds *)
  mutable t_serialize : float;  (** seconds saving a {!Persist} cache entry *)
  mutable t_deserialize : float;  (** seconds reading a {!Persist} cache entry *)
}

val create : unit -> t

(** One field of {!t}: its reader and writer. *)
type field =
  | Count of (t -> int) * (t -> int -> unit)
  | Time of (t -> float) * (t -> float -> unit)

(** Every field of {!t} exactly once, in record order. {!add_into} and
    {!Persist}'s encoding are folds over it, so adding a counter means
    adding the field to {!t} and to {!create}, one line here, and a
    bump of [Persist.version]. Only the [Count] fields are on disk: a
    [Time] field is the wall-clock of the process that ran, so a result
    read from a cache entry starts with every timer at zero. *)
val fields : field list

(** The calling domain's accumulator (created on first use, one record
    per domain). *)
val cur : unit -> t

(** Replace the calling domain's accumulator with a fresh record. Only
    the analysis entry points call it. *)
val reset : unit -> unit

(** An independent copy of the calling domain's accumulator. *)
val snapshot : unit -> t

(** Accumulate every counter and timer of the second argument into
    [into] — the aggregation step that turns per-task snapshots of a
    parallel run into one coherent table. Summed times are CPU-seconds
    across domains, not wall-clock. *)
val add_into : into:t -> t -> unit

(** A fresh record holding the element-wise sum of the snapshots. *)
val sum : t list -> t

(** The clock used for the phase timers: monotonic ({!Mono.now_s}), so
    durations survive system clock steps. Readings are only meaningful
    as differences. *)
val now : unit -> float

(** [ratio num den] as a percentage; 0 when [den] is 0. *)
val ratio : int -> int -> float

(** The [--stats] report as (label, rendered value) rows — the single
    source of the counter labels; {!pp} renders these, and
    [scripts/check_cli_docs.sh] checks every label is documented in
    docs/CLI.md. *)
val rows : t -> (string * string) list

val pp : Format.formatter -> t -> unit
