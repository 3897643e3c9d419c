(** One run of one workload: set-up, the timed phase, output checks,
    and the metrics the run reports. An untraced run reports the
    end-to-end metrics; a traced run reports the per-layer ones. *)

module Mono = Pointsto.Mono
module Trace = Pointsto.Trace
module Metrics = Pointsto.Metrics

let workloads = [ Wl_fixpoint.workload; Wl_edit.workload; Wl_demand.workload; Wl_serve.workload ]

let find name = List.find_opt (fun (w : Harness.workload) -> String.equal w.Harness.name name) workloads

(** Set-ups per untraced run: at least [setups_min], then more while
    their total stays under [setup_budget_s], at most [setups_max].
    [setup_s] is their median, so a cheap set-up, whose time is the
    noisiest, is measured most often. Only the first one feeds the timed
    phase; the others run after it, so that the peak resident set is
    that of one set-up and the timed phase. *)
let setups_min = 3

let setups_max = 15
let setup_budget_s = 2.

(** The seed the golden files were recorded with. *)
let golden_seed = 11

(** Length of the timed phase that records the golden files. Every
    workload produces all its golden outputs well within it, and so
    within any run of [BENCHMARK.json]'s length. *)
let golden_seconds = 10.

let golden_file name = Filename.concat (Filename.concat "perf" "golden") (name ^ ".txt")

type result = {
  workload : string;
  seed : int;
  trace : bool;
  attempted : int;
  failed : int;
  checks : (string * bool) list;
  metrics : (string * float) list;
}

let correct r = List.for_all snd r.checks

(** Time [f]. *)
let timed f =
  let t0 = Mono.now_s () in
  let v = f () in
  (v, Mono.now_s () -. t0)

type phase = {
  record : Harness.record;
  wall : float;  (** timed-phase seconds minus in-phase check work *)
  gc0 : Gc.stat;
  gc1 : Gc.stat;
}

let timed_phase (inst : Harness.instance) ~seconds =
  Harness.reset_ops ();
  Harness.speed_sample ();
  let gc0 = Gc.quick_stat () in
  let (), elapsed = timed (fun () -> inst.Harness.run ~until:(Mono.now_s () +. seconds)) in
  let gc1 = Gc.quick_stat () in
  Harness.speed_sample ();
  let record = !Harness.cur in
  { record; wall = elapsed -. record.Harness.excluded_s; gc0; gc1 }

(** Each key's median time in seconds, each timing multiplied by
    [scale] (by default {!Speed}'s factor), with the ops a timing of
    that key holds. *)
let by_key ?scale ph timings =
  let scale = match scale with Some f -> f | None -> Speed.scaler ph.record.Harness.speed in
  let tbl = Hashtbl.create 256 in
  List.iter
    (fun (t : Harness.timing) ->
      let s = (t.Harness.t1 -. t.Harness.t0) *. scale ~t0:t.Harness.t0 ~t1:t.Harness.t1 in
      let n, l = Option.value ~default:(t.Harness.n, []) (Hashtbl.find_opt tbl t.Harness.key) in
      Hashtbl.replace tbl t.Harness.key (n, s :: l))
    timings;
  Hashtbl.fold (fun _ (n, l) acc -> (n, Sample.median l) :: acc) tbl []

(** Throughput: the ops of every distinct unit of work over the sum of
    their times — the rate of one round of the workload, each unit at
    its median scaled time. *)
let ops_per_s ?scale ph =
  let n, s =
    List.fold_left (fun (an, as_) (n, s) -> (an + n, as_ +. s)) (0, 0.) (by_key ?scale ph ph.record.Harness.work)
  in
  float_of_int n /. s

(** Latencies in ms: each op key's median scaled time. *)
let latencies ?scale ph =
  Sample.sorted (List.map (fun (_, s) -> s *. 1e3) (by_key ?scale ph ph.record.Harness.latencies))

let unscaled ~t0:_ ~t1:_ = 1.

(** The host's speed over the timed phase: kernel time at full speed
    over its median time. *)
let host_speed ph = Speed.nominal_ms /. Sample.median (List.map snd ph.record.Harness.speed)

(* ------------------------------------------------------------------ *)
(* Golden outputs                                                     *)
(* ------------------------------------------------------------------ *)

let read_golden name =
  let file = golden_file name in
  if not (Sys.file_exists file) then []
  else
    In_channel.with_open_bin file In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter_map (fun l ->
           match String.split_on_char ' ' (String.trim l) with [ k; d ] -> Some (k, d) | _ -> None)

(** Every golden output must be among the run's outputs, with the
    same digest: a run too short to produce one fails. *)
let golden_check name ~seed outputs =
  if seed <> golden_seed then []
  else
    let golden = read_golden name in
    let missing = List.filter (fun (k, _) -> not (List.mem_assoc k outputs)) golden in
    let differ =
      List.filter
        (fun (k, d) -> match List.assoc_opt k outputs with Some d' -> not (String.equal d d') | None -> false)
        golden
    in
    [
      ( Printf.sprintf "%s: %d golden outputs (%s), %d missing, %d differ" name (List.length golden)
          (golden_file name) (List.length missing) (List.length differ),
        golden <> [] && missing = [] && differ = [] );
    ]

(* ------------------------------------------------------------------ *)
(* End-to-end metrics                                                 *)
(* ------------------------------------------------------------------ *)

(** The process's peak resident set in MB: the kernel's high-water mark
    ([VmHWM] in /proc/self/status). Where that is missing, the OCaml
    heap's top size, which OCaml 5 only approximates once several
    domains have run. *)
let peak_rss_mb () =
  let hwm l = Scanf.sscanf_opt l "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.) in
  match In_channel.with_open_bin "/proc/self/status" In_channel.input_lines |> List.find_map hwm with
  | Some mb -> mb
  | None | (exception Sys_error _) ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(** Set up [w], timed: the instance, the wall time, and the time scaled
    by the host's speed just before and after ({!Speed}). *)
let timed_setup (w : Harness.workload) ~seed =
  let kernel () = List.init 3 (fun _ -> snd (Speed.sample ())) in
  let before = kernel () in
  let inst, dt = timed (fun () -> w.Harness.setup ~seed) in
  let after = kernel () in
  (inst, dt, dt *. Speed.nominal_ms /. Sample.median (before @ after))

(** Scaled set-up times: [first], then further set-ups, each torn down
    at once, up to the count {!setups_min} and the wall time
    {!setup_budget_s} ask for. *)
let setup_times (w : Harness.workload) ~seed first =
  let rec go n wall times =
    if n >= setups_max || (n >= setups_min && wall >= setup_budget_s) then times
    else begin
      Gc.full_major ();
      Harness.reset ();
      let inst, dt, scaled = timed_setup w ~seed in
      inst.Harness.teardown ();
      go (n + 1) (wall +. dt) (scaled :: times)
    end
  in
  let dt, scaled = first in
  go 1 dt [ scaled ]

let untraced (w : Harness.workload) ~seed ~seconds =
  Harness.reset ();
  let inst, dt, scaled = timed_setup w ~seed in
  let first = (dt, scaled) in
  let ph = timed_phase inst ~seconds in
  (* before the output checks, whose re-runs are not the workload *)
  let peak_mb = peak_rss_mb () in
  let checks = Fun.protect ~finally:inst.Harness.teardown inst.Harness.checks in
  let r = ph.record in
  let times = setup_times w ~seed first in
  let lat = latencies ph in
  let raw = latencies ~scale:unscaled ph in
  Fmt.pr "%s: %d latencies of %d op keys, %d units of work; host at %.2f of full speed (%d kernel samples)@."
    w.Harness.name (List.length r.Harness.latencies) (Array.length lat) (List.length r.Harness.work)
    (host_speed ph) (List.length r.Harness.speed);
  Fmt.pr "unscaled: ops_per_s %.6g, p50_ms %.6g, p90_ms %.6g@." (ops_per_s ~scale:unscaled ph)
    (Sample.percentile raw 0.5) (Sample.percentile raw 0.9);
  {
    workload = w.Harness.name;
    seed;
    trace = false;
    attempted = r.Harness.attempted;
    failed = r.Harness.failed;
    checks = checks @ golden_check w.Harness.name ~seed r.Harness.outputs;
    metrics =
      [
        ("setup_s", Sample.median times);
        ("ops_per_s", ops_per_s ph);
        ("p50_ms", Sample.percentile lat 0.5);
        ("p90_ms", Sample.percentile lat 0.9);
        ("peak_rss_mb", peak_mb);
      ];
  }

(* ------------------------------------------------------------------ *)
(* Traced run: per-layer metrics                                      *)
(* ------------------------------------------------------------------ *)

(** Spans of each source beyond this many are left out of the trace
    file (they still count towards every metric). *)
let export_cap = 20_000

(** Program spans kept per domain: room for several times the request
    rate the daemon reaches today, so a faster one still drops none
    (rings grow only as spans arrive). *)
let trace_capacity = 1 lsl 22

let div a b = if b > 0. then a /. b else 0.

(** The self-time table of a traced run and its dominant layer (the
    harness's own time aside). *)
let print_layers ~name rows =
  Fmt.pr "@.%s: self time by layer (traced set-up and timed phase)@." name;
  Fmt.pr "%-22s %10s %8s@." "layer" "self s" "share";
  let total = List.fold_left (fun a (_, s) -> a +. s) 0. rows in
  List.iter (fun (l, s) -> Fmt.pr "%-22s %10.4f %7.2f%%@." l s (100. *. div s total)) rows;
  match List.filter (fun (l, _) -> l <> "harness") rows with
  | (l, s) :: _ -> Fmt.pr "dominant layer: %s (%.1f%% of traced time)@." l (100. *. div s total)
  | [] -> ()

(** The trace file: the layer table and the first {!export_cap}
    spans of each source, times in seconds from the traced window's
    start. *)
let write_trace ~file ~workload ~seed ~w0 ~rows ~program =
  let total = List.fold_left (fun a (_, s) -> a +. s) 0. rows in
  let harness = Span.sample ~cap:export_cap in
  let program_sample = List.filteri (fun i _ -> i < export_cap) program in
  let program_span (p : Trace.span) =
    Json.Obj
      [
        ("kind", Json.Str (Trace.kind_name p.Trace.sp_kind));
        ("name", Json.Str p.Trace.sp_name);
        ("start_s", Json.Num (p.Trace.sp_t0 -. w0));
        ("end_s", Json.Num (p.Trace.sp_t1 -. w0));
        ("domain", Json.Num (float_of_int p.Trace.sp_dom));
      ]
  in
  let doc =
    Json.Obj
      [
        ("workload", Json.Str workload);
        ("seed", Json.Num (float_of_int seed));
        ( "layers",
          Json.Arr
            (List.map
               (fun (l, s) ->
                 Json.Obj [ ("layer", Json.Str l); ("self_s", Json.Num s); ("share", Json.Num (div s total)) ])
               rows) );
        ("harness_spans_left_out", Json.Num (float_of_int (Span.count () - List.length harness)));
        ("harness_spans", Span.to_json ~base:w0 harness);
        ( "program_spans_left_out",
          Json.Num (float_of_int (List.length program - List.length program_sample)) );
        ("program_spans", Json.Arr (List.map program_span program_sample));
      ]
  in
  Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc (Json.to_string doc))

let traced (w : Harness.workload) ~seed ~seconds ~trace_out =
  let half = seconds /. 2. in
  (* the same workload untraced, for the tracing overhead *)
  Harness.reset ();
  let inst = w.Harness.setup ~seed in
  let plain = Fun.protect ~finally:inst.Harness.teardown (fun () -> timed_phase inst ~seconds:half) in
  Harness.reset ();
  Span.clear ();
  Trace.clear ();
  Span.set_on true;
  Trace.enable ~capacity:trace_capacity ();
  let w0 = Mono.now_s () in
  let inst = w.Harness.setup ~seed in
  let ph = timed_phase inst ~seconds:half in
  let w1 = Mono.now_s () in
  Trace.disable ();
  Span.set_on false;
  let checks = Fun.protect ~finally:inst.Harness.teardown inst.Harness.checks in
  let program = Trace.collect () in
  let dropped = Trace.dropped () in
  let self = Span.self_times ~w0 ~w1 ~program in
  let rows =
    Hashtbl.fold (fun l s acc -> (l, s) :: acc) self []
    |> List.sort (fun (a, x) (b, y) -> match Float.compare y x with 0 -> compare a b | c -> c)
  in
  print_layers ~name:w.Harness.name rows;
  let total = List.fold_left (fun a (_, s) -> a +. s) 0. rows in
  let self_of l = Option.value ~default:0. (Hashtbl.find_opt self l) in
  let pct ls = 100. *. div (List.fold_left (fun a l -> a +. self_of l) 0. ls) total in
  let r = ph.record in
  let c = Harness.counter r in
  let e = r.Harness.engine in
  let analyses = float_of_int r.Harness.analyses in
  let per_analysis n = div (float_of_int n) analyses in
  let analysis_s =
    List.fold_left
      (fun a (s : Trace.span) ->
        match s.Trace.sp_kind with
        | Trace.Analysis | Trace.Demand ->
            a +. Float.max 0. (Float.min s.Trace.sp_t1 w1 -. Float.max s.Trace.sp_t0 w0)
        | _ -> a)
      0. program
  in
  let queries_answered = ref 0 and query_busy = ref 0. in
  Span.iter (fun name _ t0 t1 ->
      if String.equal name "query.answer" then begin
        incr queries_answered;
        query_busy := !query_busy +. (t1 -. t0)
      end);
  let query_busy = !query_busy in
  let pool_cap = c "pool.wall_s" *. float_of_int Wl_fixpoint.jobs in
  let ops = float_of_int (max 1 r.Harness.attempted) in
  let gc_words (g : Gc.stat) = g.Gc.minor_words +. g.Gc.major_words -. g.Gc.promoted_words in
  let edits = c "persist.edits" and queries = c "demand.queries" in
  let timed_wall = ph.wall in
  let coverage = div r.Harness.timed_root_s timed_wall in
  let metrics =
    [
      ("cfront.self_pct", pct [ "cfront" ]);
      ("cfront.lines_per_s", div (c "cfront.lines") (self_of "cfront"));
      ("simplify.self_pct", pct [ "simplify" ]);
      ("simplify.ir_stmts", div (c "simplify.stmts") (c "simplify.programs"));
      ("engine.analyze_pct", 100. *. div analysis_s total);
      ("engine.driver_self_pct", pct [ "engine.driver" ]);
      ("engine.node_self_pct", pct [ "engine.node" ]);
      ("engine.body_self_pct", pct [ "engine.body" ]);
      ("engine.loop_self_pct", pct [ "engine.loop" ]);
      ("engine.bodies", per_analysis e.Metrics.bodies);
      ("engine.loop_iters", per_analysis e.Metrics.loop_iters);
      ("engine.rec_iters", per_analysis e.Metrics.rec_iters);
      ("engine.assigns", per_analysis e.Metrics.assigns);
      ("engine.merges", per_analysis e.Metrics.merges);
      ("engine.merge_fast_ratio", div (float_of_int e.Metrics.merge_fast) (float_of_int e.Metrics.merges));
      ("engine.memo_lookups", per_analysis e.Metrics.memo_lookups);
      ( "engine.memo_hit_ratio",
        div (float_of_int e.Metrics.memo_hits) (float_of_int e.Metrics.memo_lookups) );
      ("invocation_graph.nodes", per_analysis r.Harness.ig_nodes);
      ("map_unmap.map_calls", per_analysis e.Metrics.map_calls);
      ("map_unmap.unmap_calls", per_analysis e.Metrics.unmap_calls);
      ("map_unmap.map_self_pct", pct [ "map_unmap.map" ]);
      ("map_unmap.unmap_self_pct", pct [ "map_unmap.unmap" ]);
      ( "map_unmap.share",
        100. *. div (self_of "map_unmap.map" +. self_of "map_unmap.unmap") analysis_s );
      ("pool.wait_per_busy", div (c "pool.queue_wait_s") (c "pool.task_busy_s"));
      ("pool.efficiency", div (c "pool.task_busy_s") pool_cap);
      ("persist.self_pct", pct [ "persist" ]);
      ("persist.load_self_pct", pct [ "persist.load" ]);
      ("persist.store_self_pct", pct [ "persist.store" ]);
      ("persist.dirty_self_pct", pct [ "persist.dirty" ]);
      ("persist.replay_self_pct", pct [ "persist.replay" ]);
      ("persist.entry_bytes", div (c "persist.entry_bytes") (c "persist.entries"));
      ("persist.incr_dirty", div (c "persist.incr_dirty") edits);
      ("persist.incr_reused", div (c "persist.incr_reused") edits);
      ("persist.reuse_ratio", div (c "persist.clean_share") edits);
      ("persist.rekey_ratio", div (c "persist.rekey") edits);
      ("demand.prepare_self_pct", pct [ "demand.prepare" ]);
      ("demand.plan_self_pct", pct [ "demand.plan" ]);
      ("demand.driver_self_pct", pct [ "demand.driver" ]);
      ("demand.slice_fraction", div (c "demand.slice_funcs") (c "demand.funcs_total"));
      ("demand.skipped", div (c "demand.skipped") queries);
      ("demand.replays", div (c "demand.replays") queries);
      ("demand.fallbacks", div (c "demand.fallbacks") queries);
      ("query.self_pct", pct [ "query" ]);
      ("query.direct_per_s", div (float_of_int !queries_answered) query_busy);
      ("serve.loop_self_pct", pct [ "serve.loop" ]);
      ("serve.request_self_pct", pct [ "serve.request" ]);
      ("serve.requests_per_batch", div (c "serve.requests") (c "serve.batches"));
      ( "serve.framing_share",
        if c "serve.batches" > 0. then 1. -. div query_busy timed_wall else 0. );
      ("gc.alloc_mb_per_op", gc_words ph.gc1 -. gc_words ph.gc0 |> fun w -> w *. 8. /. 1048576. /. ops);
      ("gc.minor_per_op", float_of_int (ph.gc1.Gc.minor_collections - ph.gc0.Gc.minor_collections) /. ops);
      ("gc.major_per_op", float_of_int (ph.gc1.Gc.major_collections - ph.gc0.Gc.major_collections) /. ops);
      ("harness.self_pct", pct [ "harness" ]);
      ("trace.overhead", div (ops_per_s plain) (ops_per_s ph) -. 1.);
      ("trace.coverage", coverage);
      ("trace.dropped", float_of_int dropped);
      ("trace.spans", float_of_int (Span.count () + List.length program));
    ]
  in
  write_trace ~file:trace_out ~workload:w.Harness.name ~seed ~w0 ~rows ~program;
  Fmt.pr "trace: %d harness and %d program spans, %d dropped -> %s@." (Span.count ())
    (List.length program) dropped trace_out;
  {
    workload = w.Harness.name;
    seed;
    trace = true;
    attempted = plain.record.Harness.attempted + r.Harness.attempted;
    failed = plain.record.Harness.failed + r.Harness.failed;
    checks =
      checks
      @ golden_check w.Harness.name ~seed r.Harness.outputs
      @ [
          ("trace: no program span dropped", dropped = 0);
          (Printf.sprintf "trace: harness root spans cover %.1f%% of the timed phase" (100. *. coverage),
            coverage >= 0.95);
        ];
    metrics;
  }

(* ------------------------------------------------------------------ *)
(* Output                                                             *)
(* ------------------------------------------------------------------ *)

let unit_of name = match Spec.find name with Some m -> m.Spec.unit_ | None -> ""

let metrics_json r =
  Json.Obj
    (List.map
       (fun (n, v) -> (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str (unit_of n)) ]))
       r.metrics)

(** The result line: the last line a run prints to stdout. *)
let summary_json r =
  Json.Obj
    [
      ("correct", Json.Bool (correct r));
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("metrics", metrics_json r);
    ]

(** The result file [compare] reads. *)
let file_json r =
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("seed", Json.Num (float_of_int r.seed));
      ("trace", Json.Bool r.trace);
      ("correct", Json.Bool (correct r));
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("checks", Json.Obj (List.map (fun (n, ok) -> (n, Json.Bool ok)) r.checks));
      ("metrics", metrics_json r);
    ]

let print r =
  Fmt.pr "@.%s (seed %d, %s): %d ops attempted, %d failed@." r.workload r.seed
    (if r.trace then "traced" else "untraced")
    r.attempted r.failed;
  List.iter (fun (n, ok) -> Fmt.pr "  [%s] %s@." (if ok then "ok" else "FAIL") n) r.checks;
  List.iter (fun (n, v) -> Fmt.pr "  %-28s %14.6g %s@." n v (unit_of n)) r.metrics
