(** The benchmark's workload and metric tables. BENCHMARK.json at the
    repository root carries the same names (plus the regression bounds
    and one-line reasons); [perf.exe check-names] fails when the two
    drift apart in either direction. *)

type better = Lower | Higher

let better_name = function Lower -> "lower" | Higher -> "higher"

type metric = { name : string; unit_ : string; better : better }

let m name unit_ better = { name; unit_; better }

let workloads = [ "fixpoint"; "edit"; "demand"; "serve" ]

(** What a user of [ptan] sees: reported by every untraced run, for
    every workload. *)
let end_to_end =
  [
    m "setup_s" "s" Lower;
    m "ops_per_s" "1/s" Higher;
    m "p50_ms" "ms" Lower;
    m "p90_ms" "ms" Lower;
    m "peak_rss_mb" "MB" Lower;
  ]

(** Single layers, reported by every traced run, for every workload. A
    layer's time is its self time as a share of all traced time
    ([_pct]), so a layer a workload never enters reads 0 rather than a
    made-up duration; counts are per analysis, per edit or per query. *)
let per_layer =
  let pct n = m n "%" Lower and count n = m n "count" Lower and ratio n = m n "ratio" Higher in
  [
    pct "cfront.self_pct";
    m "cfront.lines_per_s" "1/s" Higher;
    pct "simplify.self_pct";
    count "simplify.ir_stmts";
    pct "engine.analyze_pct";
    pct "engine.driver_self_pct";
    pct "engine.node_self_pct";
    pct "engine.body_self_pct";
    pct "engine.loop_self_pct";
    count "engine.bodies";
    count "engine.loop_iters";
    count "engine.rec_iters";
    count "engine.assigns";
    count "engine.merges";
    ratio "engine.merge_fast_ratio";
    count "engine.memo_lookups";
    ratio "engine.memo_hit_ratio";
    count "invocation_graph.nodes";
    count "map_unmap.map_calls";
    count "map_unmap.unmap_calls";
    pct "map_unmap.map_self_pct";
    pct "map_unmap.unmap_self_pct";
    pct "map_unmap.share";
    m "pool.wait_per_busy" "ratio" Lower;
    ratio "pool.efficiency";
    pct "persist.self_pct";
    pct "persist.load_self_pct";
    pct "persist.store_self_pct";
    pct "persist.dirty_self_pct";
    pct "persist.replay_self_pct";
    m "persist.entry_bytes" "B" Lower;
    count "persist.incr_dirty";
    m "persist.incr_reused" "count" Higher;
    ratio "persist.reuse_ratio";
    ratio "persist.rekey_ratio";
    pct "demand.prepare_self_pct";
    pct "demand.plan_self_pct";
    pct "demand.driver_self_pct";
    m "demand.slice_fraction" "ratio" Lower;
    count "demand.skipped";
    m "demand.replays" "count" Higher;
    count "demand.fallbacks";
    pct "query.self_pct";
    m "query.direct_per_s" "1/s" Higher;
    pct "serve.loop_self_pct";
    pct "serve.request_self_pct";
    m "serve.requests_per_batch" "count" Higher;
    m "serve.framing_share" "ratio" Lower;
    m "gc.alloc_mb_per_op" "MB" Lower;
    count "gc.minor_per_op";
    count "gc.major_per_op";
    pct "harness.self_pct";
    m "trace.overhead" "ratio" Lower;
    ratio "trace.coverage";
    count "trace.dropped";
    count "trace.spans";
  ]

let find name = List.find_opt (fun x -> String.equal x.name name) (end_to_end @ per_layer)
