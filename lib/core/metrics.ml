(** Engine observability: per-phase timing and work counters.

    One mutable record per domain accumulates counts from the hot paths
    of the analysis — the points-to lattice operations ({!Pts}), the
    kill / change / gen rule and the fixed points ({!Engine}), and the
    call mapping machinery ({!Map_unmap}). Only the analysis entry
    points ({!Analysis.analyze} and the demand driver) {!reset} it; each
    stores a {!snapshot} in its result, and from then on the result owns
    its counters: code that works on a returned result ({!Persist}'s
    cache and timers, the demand fallback) bumps the result's record,
    never the accumulator.

    The accumulator is domain-local ({!Domain.DLS}): an analysis runs
    wholly on one domain, so parallel workers ({!Pool}) never contend on
    the counters and each produces a coherent snapshot. Aggregate
    snapshots from several tasks with {!add_into} / {!sum} when one
    table must cover a whole suite.

    The counters are deliberately cheap (single mutable-int bumps) so
    they can stay enabled in benchmark runs. *)

type t = {
  (* Pts lattice operations *)
  mutable merges : int;  (** {!Pts.merge} invocations *)
  mutable merge_fast : int;
      (** merges answered by the subsumption pre-check without
          rebuilding the map *)
  mutable equal_checks : int;  (** {!Pts.equal} invocations *)
  mutable equal_fast : int;
      (** equalities decided by physical identity or the cardinality
          pre-check alone *)
  mutable covered_checks : int;  (** {!Pts.covered_by} invocations *)
  mutable covered_fast : int;
      (** coverings decided by identity or cardinality alone *)
  (* Figure 1 rule applications *)
  mutable assigns : int;  (** kill/change/gen rule applications *)
  mutable kills : int;  (** strong updates: sources killed *)
  mutable weakens : int;  (** weak updates: sources demoted *)
  mutable gens : int;  (** generated (L, R) pairs *)
  (* fixed points *)
  mutable loop_iters : int;  (** loop-head fixed-point iterations *)
  mutable rec_iters : int;
      (** re-evaluations forced by the recursion fixed point (Figure 4)
          and by pending approximate-node inputs *)
  mutable bodies : int;  (** function-body passes *)
  (* §6 sub-tree sharing memo *)
  mutable memo_lookups : int;
  mutable memo_hits : int;
  (* map/unmap (§4.1) *)
  mutable map_calls : int;
  mutable unmap_calls : int;
  (* per-statement recording ({!Engine.record}, {!Pts.Acc}) *)
  mutable records : int;
      (** statement visits and folded frame rows that land on a row
          their recording table already holds (a row's first fold is
          stored as it is) *)
  (* result cache ({!Persist}) *)
  mutable cache_hits : int;  (** results served from the disk cache *)
  mutable cache_misses : int;  (** cache lookups that fell back to analysis *)
  mutable cache_quarantined : int;
      (** corrupt cache entries renamed to [.bad] and re-analyzed *)
  (* resource governor ({!Guard}) *)
  mutable budget_trips : int;
      (** budget exhaustions that degraded an analysis to the widened
          (context-insensitive, possible-only) rerun *)
  mutable heap_trips : int;
      (** budget trips whose reason was the [--max-heap-mb] memory
          ceiling (a subset of [budget_trips]) *)
  (* incremental re-analysis ({!Persist.analyze_cached} with
     [~incremental:true]) *)
  mutable incr_funcs_dirty : int;
      (** functions marked dirty by the content-hash diff (edited
          functions plus everything that can reach one) *)
  mutable incr_funcs_reused : int;
      (** summary replays: memoized (input, output) pairs served from
          the persisted v3 summaries instead of re-running the body *)
  mutable incr_nodes_rebuilt : int;
      (** invocation-graph nodes that replays grew at recorded call
          sites, where the skipped evaluations would have grown them *)
  mutable incr_funcs_adopted : int;
      (** functions whose rows a run took from the entry's saved rows
          instead of folding their replayed summaries' frames *)
  (* demand-driven mode ({!Demand} / {!Analysis.analyze_demand}) *)
  mutable demand_plans : int;  (** slice plans built *)
  mutable demand_slice_funcs : int;
      (** functions in the planned slices (summed over plans) *)
  mutable demand_funcs_total : int;
      (** defined functions in the planned programs (summed over plans) *)
  mutable demand_skipped : int;
      (** out-of-slice call evaluations answered by the widened
          transfer *)
  mutable demand_replays : int;
      (** out-of-slice call evaluations answered exactly from a seeded
          summary *)
  mutable demand_fallbacks : int;
      (** demand analyses aborted to the exhaustive engine (oracle
          conservatism violated at an indirect site) *)
  (* external-call model ({!Libmodel}) *)
  mutable ext_modeled : int;
      (** external call evaluations answered by the library-model
          table *)
  mutable ext_unmodeled : int;
      (** external call evaluations that fell back to the coarse
          model *)
  (* per-phase wall-clock time, seconds *)
  mutable t_map : float;  (** in {!Map_unmap.map_call} *)
  mutable t_unmap : float;  (** in {!Map_unmap.unmap_call} *)
  mutable t_record : float;
      (** in the {!Pts.Acc.add} calls that walk a row accumulator, and
          in {!Engine.freeze_table} *)
  mutable t_parse : float;  (** parsing and lowering the source to SIMPLE *)
  mutable t_analysis : float;  (** whole {!Analysis.analyze} run *)
  mutable t_serialize : float;  (** saving a {!Persist} cache entry *)
  mutable t_deserialize : float;  (** reading a {!Persist} cache entry *)
}

let create () =
  {
    merges = 0;
    merge_fast = 0;
    equal_checks = 0;
    equal_fast = 0;
    covered_checks = 0;
    covered_fast = 0;
    assigns = 0;
    kills = 0;
    weakens = 0;
    gens = 0;
    loop_iters = 0;
    rec_iters = 0;
    bodies = 0;
    memo_lookups = 0;
    memo_hits = 0;
    map_calls = 0;
    unmap_calls = 0;
    records = 0;
    cache_hits = 0;
    cache_misses = 0;
    cache_quarantined = 0;
    budget_trips = 0;
    heap_trips = 0;
    incr_funcs_dirty = 0;
    incr_funcs_reused = 0;
    incr_nodes_rebuilt = 0;
    incr_funcs_adopted = 0;
    demand_plans = 0;
    demand_slice_funcs = 0;
    demand_funcs_total = 0;
    demand_skipped = 0;
    demand_replays = 0;
    demand_fallbacks = 0;
    ext_modeled = 0;
    ext_unmodeled = 0;
    t_map = 0.;
    t_unmap = 0.;
    t_record = 0.;
    t_parse = 0.;
    t_analysis = 0.;
    t_serialize = 0.;
    t_deserialize = 0.;
  }

(** One field of {!t}: its reader and writer. *)
type field =
  | Count of (t -> int) * (t -> int -> unit)
  | Time of (t -> float) * (t -> float -> unit)

(* Every field of [t] once, in record order. Aggregation and the
   {!Persist} encoding are folds over this table, so a counter listed
   here is summed and persisted with no edit to either. Only the counts
   are on disk, in this order: a change to the [Count] entries needs a
   [Persist.version] bump. A timer is this process's wall-clock, never
   persisted. *)
let fields =
  [
    Count ((fun m -> m.merges), fun m v -> m.merges <- v);
    Count ((fun m -> m.merge_fast), fun m v -> m.merge_fast <- v);
    Count ((fun m -> m.equal_checks), fun m v -> m.equal_checks <- v);
    Count ((fun m -> m.equal_fast), fun m v -> m.equal_fast <- v);
    Count ((fun m -> m.covered_checks), fun m v -> m.covered_checks <- v);
    Count ((fun m -> m.covered_fast), fun m v -> m.covered_fast <- v);
    Count ((fun m -> m.assigns), fun m v -> m.assigns <- v);
    Count ((fun m -> m.kills), fun m v -> m.kills <- v);
    Count ((fun m -> m.weakens), fun m v -> m.weakens <- v);
    Count ((fun m -> m.gens), fun m v -> m.gens <- v);
    Count ((fun m -> m.loop_iters), fun m v -> m.loop_iters <- v);
    Count ((fun m -> m.rec_iters), fun m v -> m.rec_iters <- v);
    Count ((fun m -> m.bodies), fun m v -> m.bodies <- v);
    Count ((fun m -> m.memo_lookups), fun m v -> m.memo_lookups <- v);
    Count ((fun m -> m.memo_hits), fun m v -> m.memo_hits <- v);
    Count ((fun m -> m.map_calls), fun m v -> m.map_calls <- v);
    Count ((fun m -> m.unmap_calls), fun m v -> m.unmap_calls <- v);
    Count ((fun m -> m.records), fun m v -> m.records <- v);
    Count ((fun m -> m.cache_hits), fun m v -> m.cache_hits <- v);
    Count ((fun m -> m.cache_misses), fun m v -> m.cache_misses <- v);
    Count ((fun m -> m.cache_quarantined), fun m v -> m.cache_quarantined <- v);
    Count ((fun m -> m.budget_trips), fun m v -> m.budget_trips <- v);
    Count ((fun m -> m.heap_trips), fun m v -> m.heap_trips <- v);
    Count ((fun m -> m.incr_funcs_dirty), fun m v -> m.incr_funcs_dirty <- v);
    Count ((fun m -> m.incr_funcs_reused), fun m v -> m.incr_funcs_reused <- v);
    Count ((fun m -> m.incr_nodes_rebuilt), fun m v -> m.incr_nodes_rebuilt <- v);
    Count ((fun m -> m.incr_funcs_adopted), fun m v -> m.incr_funcs_adopted <- v);
    Count ((fun m -> m.demand_plans), fun m v -> m.demand_plans <- v);
    Count ((fun m -> m.demand_slice_funcs), fun m v -> m.demand_slice_funcs <- v);
    Count ((fun m -> m.demand_funcs_total), fun m v -> m.demand_funcs_total <- v);
    Count ((fun m -> m.demand_skipped), fun m v -> m.demand_skipped <- v);
    Count ((fun m -> m.demand_replays), fun m v -> m.demand_replays <- v);
    Count ((fun m -> m.demand_fallbacks), fun m v -> m.demand_fallbacks <- v);
    Count ((fun m -> m.ext_modeled), fun m v -> m.ext_modeled <- v);
    Count ((fun m -> m.ext_unmodeled), fun m v -> m.ext_unmodeled <- v);
    Time ((fun m -> m.t_map), fun m v -> m.t_map <- v);
    Time ((fun m -> m.t_unmap), fun m v -> m.t_unmap <- v);
    Time ((fun m -> m.t_record), fun m v -> m.t_record <- v);
    Time ((fun m -> m.t_parse), fun m v -> m.t_parse <- v);
    Time ((fun m -> m.t_analysis), fun m v -> m.t_analysis <- v);
    Time ((fun m -> m.t_serialize), fun m v -> m.t_serialize <- v);
    Time ((fun m -> m.t_deserialize), fun m v -> m.t_deserialize <- v);
  ]

(* One accumulator per domain: worker domains spawned by {!Pool} get a
   fresh record on first use, so the hot-path bumps below never race. *)
let key : t Domain.DLS.key = Domain.DLS.new_key create

(** The calling domain's accumulator. *)
let cur () = Domain.DLS.get key

let reset () = Domain.DLS.set key (create ())

let snapshot () =
  let cur = cur () in
  { cur with merges = cur.merges }

(** [add_into ~into m]: accumulate every counter and timer of [m] into
    [into]. Used to aggregate the per-task snapshots of a parallel run
    into one table; times add up to total CPU-seconds across domains,
    not wall-clock. *)
let add_into ~(into : t) (m : t) =
  List.iter
    (function
      | Count (get, set) -> set into (get into + get m)
      | Time (get, set) -> set into (get into +. get m))
    fields

let sum (ms : t list) : t =
  let acc = create () in
  List.iter (fun m -> add_into ~into:acc m) ms;
  acc

(* Phase timers are always differences of two readings, so they come
   from the monotonic clock: a system clock step must not corrupt a
   recorded duration. *)
let now () = Mono.now_s ()

let ratio num den = if den = 0 then 0. else 100. *. float_of_int num /. float_of_int den

(* The --stats report as (label, rendered value) rows. The labels
   between the two markers below are a contract checked by
   scripts/check_cli_docs.sh: every label must appear (backticked) in
   docs/CLI.md, and the script extracts them textually — keep the
   markers and the [("label", value)] shape of each row. *)
(* BEGIN stats-labels *)
let rows (m : t) : (string * string) list =
  [
    ("parse time", Printf.sprintf "%.3f ms" (m.t_parse *. 1e3));
    ( "analysis time",
      Printf.sprintf "%.3f ms (map %.3f ms, unmap %.3f ms)" (m.t_analysis *. 1e3)
        (m.t_map *. 1e3) (m.t_unmap *. 1e3) );
    ("body passes", Printf.sprintf "%d" m.bodies);
    ( "fixpoint iterations",
      Printf.sprintf "%d loop, %d recursion/pending" m.loop_iters m.rec_iters );
    ( "assignments",
      Printf.sprintf "%d (kills %d, weakens %d, gen pairs %d)" m.assigns m.kills
        m.weakens m.gens );
    ( "merges",
      Printf.sprintf "%d (%.1f%% fast-path)" m.merges (ratio m.merge_fast m.merges) );
    ( "equality checks",
      Printf.sprintf "%d (%.1f%% fast-path)" m.equal_checks
        (ratio m.equal_fast m.equal_checks) );
    ( "covering checks",
      Printf.sprintf "%d (%.1f%% fast-path)" m.covered_checks
        (ratio m.covered_fast m.covered_checks) );
    ("map/unmap calls", Printf.sprintf "%d/%d" m.map_calls m.unmap_calls);
    ( "recording",
      Printf.sprintf "%d folds into a recorded row, %.3f ms (%.1f%% of analysis)" m.records
        (m.t_record *. 1e3)
        (if m.t_analysis > 0. then 100. *. m.t_record /. m.t_analysis else 0.) );
    ( "memo hit rate",
      Printf.sprintf "%d/%d (%.1f%%)" m.memo_hits m.memo_lookups
        (ratio m.memo_hits m.memo_lookups) );
    ( "result cache",
      Printf.sprintf "%d hits, %d misses (save %.3f ms, load %.3f ms)" m.cache_hits
        m.cache_misses (m.t_serialize *. 1e3) (m.t_deserialize *. 1e3) );
    ( "robustness",
      Printf.sprintf "%d budget trips (%d heap), %d cache entries quarantined"
        m.budget_trips m.heap_trips m.cache_quarantined );
    ( "incremental",
      Printf.sprintf
        "%d functions dirty, %d summaries replayed, %d graph nodes rebuilt, %d functions \
         adopted"
        m.incr_funcs_dirty m.incr_funcs_reused m.incr_nodes_rebuilt m.incr_funcs_adopted );
    ( "demand",
      Printf.sprintf "%d plans (slice %d/%d funcs), %d skipped, %d replayed, %d fallbacks"
        m.demand_plans m.demand_slice_funcs m.demand_funcs_total m.demand_skipped
        m.demand_replays m.demand_fallbacks );
    ( "external calls",
      Printf.sprintf "%d modeled, %d unmodeled" m.ext_modeled m.ext_unmodeled );
  ]
(* END stats-labels *)

let pp ppf (m : t) =
  Fmt.pf ppf "@[<v>%a@]"
    Fmt.(
      list ~sep:cut (fun ppf (label, value) -> pf ppf "%-22s%s" (label ^ ":") value))
    (rows m)
