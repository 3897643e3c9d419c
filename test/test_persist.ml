(** Tests for the persisted-result layer ({!Pointsto.Persist}): the
    versioned binary save/load round trip, key invalidation, and the
    disk cache behind [analyze_cached].

    The load-side contract under test is "equivalent result or [None]":
    a loaded result must answer every query — per-statement points-to
    sets, entry output, invocation-graph statistics, Table 3–5 rows —
    bit-identically to the freshly analyzed one, and any mismatch of
    version, source content or options must read back as a miss. *)

open Test_util
module Ig = Pointsto.Invocation_graph
module Stats = Pointsto.Stats
module Persist = Pointsto.Persist
module Options = Pointsto.Options

let bench_dir = if Sys.file_exists "benchmarks" then "benchmarks" else "../benchmarks"

let bench name = Filename.concat bench_dir (name ^ ".c")

let temp_dir () =
  let d = Filename.temp_file "ptan-test" "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let in_temp f =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

let save_load ?(opts = Options.default) source =
  let res = Analysis.of_file ~opts source in
  in_temp (fun dir ->
      let file = Filename.concat dir "result.ptc" in
      Persist.save ~source res file;
      match Persist.load ~source ~opts file with
      | None -> Alcotest.fail "load returned None on a fresh save"
      | Some loaded -> (res, loaded))

(** Every per-statement points-to set, rendered; the exhaustive surface
    the query layer answers from. *)
let stmt_pts_strings (res : Analysis.result) =
  Hashtbl.fold (fun id s acc -> (id, Pts.to_string s) :: acc) res.Analysis.stmt_pts []
  |> List.sort compare

let table3_row (res : Analysis.result) =
  let i = Stats.indirect_stats res in
  Fmt.str "%d/%d %d/%d %d %d %d %d %d %d %d %.2f" i.Stats.one_d.Stats.scalar
    i.Stats.one_d.Stats.array i.Stats.one_p.Stats.scalar i.Stats.one_p.Stats.array
    (Stats.pair_total i.Stats.two_p)
    (Stats.pair_total i.Stats.three_p)
    (Stats.pair_total i.Stats.four_plus_p)
    i.Stats.ind_refs i.Stats.scalar_rep i.Stats.to_stack i.Stats.to_heap i.Stats.avg

let table4_row (res : Analysis.result) =
  let c = Stats.categorize res in
  Fmt.str "%d %d %d %d %d %d %d %d" c.Stats.from_lo c.Stats.from_gl c.Stats.from_fp
    c.Stats.from_sy c.Stats.to_lo c.Stats.to_gl c.Stats.to_fp c.Stats.to_sy

let table5_row (res : Analysis.result) =
  let g = Stats.general res in
  Fmt.str "%d %d %d %d %.1f %d" g.Stats.stack_to_stack g.Stats.stack_to_heap
    g.Stats.heap_to_heap g.Stats.heap_to_stack g.Stats.avg_per_stmt g.Stats.max_per_stmt

let ig_row (res : Analysis.result) =
  let s = Stats.ig_stats res in
  Fmt.str "%d %d %d %d %d %.2f %.2f" s.Stats.ig_nodes s.Stats.call_sites s.Stats.n_funcs
    s.Stats.n_recursive s.Stats.n_approximate s.Stats.avg_per_call_site s.Stats.avg_per_func

let check_equivalent name (fresh : Analysis.result) (loaded : Analysis.result) =
  Alcotest.(check (list (pair int string)))
    (name ^ ": per-statement points-to sets")
    (stmt_pts_strings fresh) (stmt_pts_strings loaded);
  Alcotest.(check string)
    (name ^ ": entry output")
    (Fmt.str "%a" Pts.pp_state fresh.Analysis.entry_output)
    (Fmt.str "%a" Pts.pp_state loaded.Analysis.entry_output);
  Alcotest.(check (list string))
    (name ^ ": warnings") fresh.Analysis.warnings loaded.Analysis.warnings;
  Alcotest.(check string)
    (name ^ ": invocation graph")
    (Fmt.str "%a" Ig.pp fresh.Analysis.graph)
    (Fmt.str "%a" Ig.pp loaded.Analysis.graph);
  Alcotest.(check string) (name ^ ": Table 3 row") (table3_row fresh) (table3_row loaded);
  Alcotest.(check string) (name ^ ": Table 4 row") (table4_row fresh) (table4_row loaded);
  Alcotest.(check string) (name ^ ": Table 5 row") (table5_row fresh) (table5_row loaded);
  Alcotest.(check string) (name ^ ": Table 6 row") (ig_row fresh) (ig_row loaded)

let roundtrip_tests =
  [
    case "round trip reproduces livc bit-identically" (fun () ->
        let fresh, loaded = save_load (bench "livc") in
        check_equivalent "livc" fresh loaded;
        Alcotest.(check int)
          "bodies" fresh.Analysis.metrics.Pointsto.Metrics.bodies
          loaded.Analysis.metrics.Pointsto.Metrics.bodies);
    case "round trip reproduces a recursive benchmark (xref)" (fun () ->
        let fresh, loaded = save_load (bench "xref") in
        check_equivalent "xref" fresh loaded);
    case "round trip under non-default options (heap_by_site)" (fun () ->
        let opts = { Options.default with Options.heap_by_site = true } in
        let fresh, loaded = save_load ~opts (bench "hash") in
        check_equivalent "hash/site" fresh loaded);
    case "round trip preserves stored IN/OUT and map info" (fun () ->
        let fresh, loaded = save_load (bench "misr") in
        let dump (g : Ig.t) =
          Ig.fold
            (fun acc n ->
              Fmt.str "%s#%d in=%a out=%a maps=%d" n.Ig.func n.Ig.id Pts.pp_state
                n.Ig.stored_input Pts.pp_state n.Ig.stored_output
                (List.length n.Ig.map_info)
              :: acc)
            [] g
        in
        Alcotest.(check (list string))
          "per-node stored pairs" (dump fresh.Analysis.graph) (dump loaded.Analysis.graph));
  ]

let invalidation_tests =
  [
    case "load fails on different options" (fun () ->
        let source = bench "dry" in
        let res = Analysis.of_file source in
        in_temp (fun dir ->
            let file = Filename.concat dir "r.ptc" in
            Persist.save ~source res file;
            let opts = { Options.default with Options.context_sensitive = false } in
            Alcotest.(check bool)
              "miss" true
              (Option.is_none (Persist.load ~source ~opts file))));
    case "load fails on different entry" (fun () ->
        let source = bench "dry" in
        let res = Analysis.of_file source in
        in_temp (fun dir ->
            let file = Filename.concat dir "r.ptc" in
            Persist.save ~source res file;
            Alcotest.(check bool)
              "miss" true
              (Option.is_none (Persist.load ~source ~entry:"other" file))));
    case "load fails on changed source content" (fun () ->
        let source = bench "dry" in
        let res = Analysis.of_file source in
        in_temp (fun dir ->
            let file = Filename.concat dir "r.ptc" in
            Persist.save ~source res file;
            (* same result file, keyed against a different source file *)
            let other = Filename.concat dir "other.c" in
            Out_channel.with_open_bin other (fun oc ->
                Out_channel.output_string oc "int main() { return 0; }\n");
            Alcotest.(check bool)
              "miss" true
              (Option.is_none (Persist.load ~source:other file))));
    case "load fails on version or magic mismatch and on corruption" (fun () ->
        let source = bench "dry" in
        let res = Analysis.of_file source in
        in_temp (fun dir ->
            let file = Filename.concat dir "r.ptc" in
            Persist.save ~source res file;
            let data = In_channel.with_open_bin file In_channel.input_all in
            let wr name s =
              let f = Filename.concat dir name in
              Out_channel.with_open_bin f (fun oc -> Out_channel.output_string oc s);
              f
            in
            let bad_magic = wr "m.ptc" ("XXXXX" ^ String.sub data 5 (String.length data - 5)) in
            Alcotest.(check bool)
              "bad magic" true
              (Option.is_none (Persist.load ~source bad_magic));
            let truncated = wr "t.ptc" (String.sub data 0 (String.length data / 2)) in
            Alcotest.(check bool)
              "truncated" true
              (Option.is_none (Persist.load ~source truncated));
            let junk = wr "j.ptc" (data ^ "\000") in
            Alcotest.(check bool)
              "trailing junk" true
              (Option.is_none (Persist.load ~source junk));
            let missing = Filename.concat dir "absent.ptc" in
            Alcotest.(check bool)
              "missing file" true
              (Option.is_none (Persist.load ~source missing))));
  ]

let cache_tests =
  [
    case "analyze_cached: miss populates, hit is served from disk" (fun () ->
        in_temp (fun dir ->
            let source = bench "stanford" in
            let cold, hit0 = Persist.analyze_cached ~cache_dir:dir source in
            Alcotest.(check bool) "first call misses" false hit0;
            Alcotest.(check int)
              "miss recorded" 1 cold.Analysis.metrics.Pointsto.Metrics.cache_misses;
            let warm, hit1 = Persist.analyze_cached ~cache_dir:dir source in
            Alcotest.(check bool) "second call hits" true hit1;
            Alcotest.(check int)
              "hit recorded" 1 warm.Analysis.metrics.Pointsto.Metrics.cache_hits;
            check_equivalent "stanford cached" cold warm));
    case "analyze_cached: a hit reports the cold run's counters" (fun () ->
        (* config.c calls a modeled library function, so the external-call
           row is non-zero; every row but this invocation's own cache
           traffic and timings must survive the round trip *)
        in_temp (fun dir ->
            let source = bench "config" in
            let rows (r : Analysis.result) =
              List.filter
                (fun (label, _) -> label <> "analysis time" && label <> "result cache")
                (Pointsto.Metrics.rows r.Analysis.metrics)
            in
            let cold, _ = Persist.analyze_cached ~cache_dir:dir source in
            let warm, hit = Persist.analyze_cached ~cache_dir:dir source in
            Alcotest.(check bool) "second call hits" true hit;
            Alcotest.(check bool)
              "external calls counted" true
              (cold.Analysis.metrics.Pointsto.Metrics.ext_modeled > 0);
            Alcotest.(check (list (pair string string))) "rows" (rows cold) (rows warm)));
    case "analyze_cached: different options key different entries" (fun () ->
        in_temp (fun dir ->
            let source = bench "stanford" in
            let _, _ = Persist.analyze_cached ~cache_dir:dir source in
            let opts = { Options.default with Options.max_sym_depth = 2 } in
            let _, hit = Persist.analyze_cached ~cache_dir:dir ~opts source in
            Alcotest.(check bool) "different opts miss" false hit;
            Alcotest.(check int) "two cache entries" 2 (Array.length (Sys.readdir dir))));
  ]

let suite = ("persist", roundtrip_tests @ invalidation_tests @ cache_tests)
