(** Tests for the persisted-result layer ({!Pointsto.Persist}): the
    versioned binary round trip through [analyze_cached]'s cache entry,
    key invalidation, and the entry's layout.

    The contract under test is "equivalent result or a miss": a cache
    hit must answer every query — per-statement points-to sets, entry
    output, invocation-graph statistics, Table 3–5 rows —
    bit-identically to the freshly analyzed one, and any mismatch of
    version, source content or options must be a miss. *)

open Test_util
module Ig = Pointsto.Invocation_graph
module Stats = Pointsto.Stats
module Persist = Pointsto.Persist
module Options = Pointsto.Options
module M = Pointsto.Metrics

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

(** The cold result of [source] and the hit its cache entry then
    serves. *)
let save_load ?(opts = Options.default) source =
  in_temp (fun dir ->
      let res, cold_hit = Persist.analyze_cached ~cache_dir:dir ~opts source in
      let loaded, hit = Persist.analyze_cached ~cache_dir:dir ~opts source in
      Alcotest.(check (pair bool bool)) "a miss, then a hit" (false, true) (cold_hit, hit);
      (res, loaded))

let plain_entry ~dir ?(opts = Options.default) ?(entry = "main") source =
  Persist.cache_file ~cache_dir:dir ~source ~opts ~entry

let read_file f = In_channel.with_open_bin f In_channel.input_all

let write_file f s = Out_channel.with_open_bin f (fun oc -> Out_channel.output_string oc s)

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
    case "round trip preserves the graph's shape and map info" (fun () ->
        (* the pairs are in the dump too: bottom on both sides, since a
           finished run clears them and an entry does not hold them *)
        let pp_rep ppf (l, ls) = Fmt.pf ppf "%a->%a" Loc.pp l Fmt.(list ~sep:comma Loc.pp) ls in
        let dump (g : Ig.t) =
          Ig.fold
            (fun acc n ->
              Fmt.str "%s#%d partner=%a sites=%a in=%a out=%a maps=%a" n.Ig.func n.Ig.id
                Fmt.(option ~none:(any "-") int)
                (Option.map (fun p -> p.Ig.id) n.Ig.partner)
                Fmt.(list ~sep:comma int)
                (List.map fst n.Ig.children) Pts.pp_state n.Ig.stored_input Pts.pp_state
                n.Ig.stored_output
                Fmt.(list ~sep:semi pp_rep)
                n.Ig.map_info
              :: acc)
            [] g
        in
        List.iter
          (fun (name, mapped) ->
            let fresh, loaded = save_load (bench name) in
            Alcotest.(check bool)
              (name ^ ": nodes with map information")
              mapped
              (Ig.fold (fun acc n -> acc || n.Ig.map_info <> []) false fresh.Analysis.graph);
            Alcotest.(check (list string))
              (name ^ ": per-node shape and map information")
              (dump fresh.Analysis.graph) (dump loaded.Analysis.graph))
          [ ("misr", false); ("config", true) ]);
    case "the result section interns no set for the graph" (fun () ->
        (* the set chunk after the blocks is the entry output's: it
           adds that set at most *)
        List.iter
          (fun (name, source) ->
            in_temp (fun dir ->
                let _ = Persist.analyze_cached ~cache_dir:dir source in
                let before, added, entry_ref =
                  result_rest_sets (entry_section (read_file (plain_entry ~dir source)) "")
                in
                Alcotest.(check bool)
                  (Printf.sprintf "%s: %d sets after the blocks" name added)
                  true
                  (added = 0 || (added = 1 && entry_ref = before + 1))))
          [ ("livc", bench "livc"); ("config", bench "config"); ("misr", bench "misr") ]);
  ]

(** A lookup of [source] under [opts] and [entry] that finds the entry
    primed under the defaults, copied to its own name: a well-formed
    entry keying other options or another entry function. It must be a
    miss that quarantines nothing, answer as a cold run does, and leave
    the primed entry a hit. *)
let copied_entry_misses ?(opts = Options.default) ?(entry = "main") source =
  in_temp (fun dir ->
      let _ = Persist.analyze_cached ~cache_dir:dir source in
      write_file (plain_entry ~dir ~opts ~entry source) (read_file (plain_entry ~dir source));
      let r, hit = Persist.analyze_cached ~cache_dir:dir ~opts ~entry source in
      Alcotest.(check bool) "miss" false hit;
      Alcotest.(check int)
        "nothing quarantined" 0 r.Analysis.metrics.Pointsto.Metrics.cache_quarantined;
      check_equivalent "cold" (Analysis.of_file ~opts ~entry source) r;
      Alcotest.(check bool) "the primed entry still hits" true
        (snd (Persist.analyze_cached ~cache_dir:dir source)))

let invalidation_tests =
  [
    case "load fails on different options" (fun () ->
        copied_entry_misses
          ~opts:{ Options.default with Options.context_sensitive = false }
          (bench "dry"));
    case "load fails on different entry" (fun () ->
        copied_entry_misses ~entry:"Proc_1" (bench "dry"));
    case "load fails on changed source content" (fun () ->
        in_temp (fun dir ->
            let source = Filename.concat dir "dry.c" in
            write_file source (read_file (bench "dry"));
            let _ = Persist.analyze_cached ~cache_dir:dir source in
            (* the same entry, looked up for other text at the path *)
            write_file source "int main() { return 0; }\n";
            let r, hit = Persist.analyze_cached ~cache_dir:dir source in
            Alcotest.(check bool) "miss" false hit;
            Alcotest.(check int)
              "nothing quarantined" 0 r.Analysis.metrics.Pointsto.Metrics.cache_quarantined;
            check_equivalent "cold" (Analysis.of_file source) r));
    case "load fails on version or magic mismatch and on corruption" (fun () ->
        let source = bench "dry" in
        in_temp (fun dir ->
            let cold, _ = Persist.analyze_cached ~cache_dir:dir source in
            let file = plain_entry ~dir source in
            let data = read_file file in
            (* each victim is quarantined once and the lookup runs cold,
               priming the entry again *)
            let quarantined what s =
              write_file file s;
              let r, hit = Persist.analyze_cached ~cache_dir:dir source in
              Alcotest.(check bool) (what ^ ": miss") false hit;
              Alcotest.(check int)
                (what ^ ": quarantined") 1 r.Analysis.metrics.Pointsto.Metrics.cache_quarantined;
              check_equivalent what cold r
            in
            quarantined "bad magic" ("XXXXX" ^ String.sub data 5 (String.length data - 5));
            let old = Bytes.of_string data in
            Bytes.set_uint8 old 5 (Persist.version - 1);
            quarantined "older version" (Bytes.to_string old);
            quarantined "truncated" (String.sub data 0 (String.length data / 2));
            quarantined "trailing junk" (data ^ "\000");
            Sys.remove file;
            let r, hit = Persist.analyze_cached ~cache_dir:dir source in
            Alcotest.(check bool) "missing file: miss" false hit;
            Alcotest.(check int)
              "missing file: nothing quarantined" 0
              r.Analysis.metrics.Pointsto.Metrics.cache_quarantined));
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
           row is non-zero; every count but this invocation's own cache
           traffic and incremental counters must survive the round trip,
           and no timing does *)
        in_temp (fun dir ->
            let source = bench "config" in
            let counts (r : Analysis.result) =
              let m =
                {
                  r.Analysis.metrics with
                  M.cache_hits = 0;
                  cache_misses = 0;
                  incr_funcs_dirty = 0;
                  incr_funcs_reused = 0;
                  incr_nodes_rebuilt = 0;
                  incr_funcs_adopted = 0;
                }
              in
              List.filter_map
                (function M.Count (get, _) -> Some (get m) | M.Time _ -> None)
                M.fields
            in
            let cold, _ = Persist.analyze_cached ~cache_dir:dir source in
            let warm, hit = Persist.analyze_cached ~cache_dir:dir source in
            Alcotest.(check bool) "second call hits" true hit;
            Alcotest.(check bool)
              "external calls counted" true
              (cold.Analysis.metrics.M.ext_modeled > 0);
            Alcotest.(check (list int)) "counts" (counts cold) (counts warm);
            Alcotest.(check bool)
              "no analysis time" true
              (warm.Analysis.metrics.M.t_analysis = 0.)));
    case "analyze_cached: different options key different entries" (fun () ->
        in_temp (fun dir ->
            let source = bench "stanford" in
            let _, _ = Persist.analyze_cached ~cache_dir:dir source in
            let opts = { Options.default with Options.max_sym_depth = 2 } in
            let _, hit = Persist.analyze_cached ~cache_dir:dir ~opts source in
            Alcotest.(check bool) "different opts miss" false hit;
            Alcotest.(check int) "two cache entries" 2 (Array.length (Sys.readdir dir))));
  ]

(** Marshal every points-to set a result reaches; raises
    [Invalid_argument] if any of them holds a closure or suspension. *)
let marshal_sets (r : Analysis.result) =
  ignore (Marshal.to_string r.Analysis.stmt_pts []);
  ignore (Marshal.to_string r.Analysis.entry_output []);
  Ig.fold
    (fun () n ->
      ignore (Marshal.to_string n.Ig.stored_input []);
      ignore (Marshal.to_string n.Ig.stored_output []))
    () r.Analysis.graph

let plain_data_tests =
  [
    case "livc: the node count is the finished graph's, cold and cached" (fun () ->
        in_temp (fun dir ->
            let source = bench "livc" in
            let check what (r : Analysis.result) =
              let g = r.Analysis.graph in
              Alcotest.(check int) (what ^ ": field = fold") (Ig.n_nodes g) g.Ig.n_nodes;
              Alcotest.(check int) (what ^ ": indirect sites counted") 151 g.Ig.n_nodes
            in
            let cold, _ = Persist.analyze_cached ~cache_dir:dir source in
            let warm, hit = Persist.analyze_cached ~cache_dir:dir source in
            Alcotest.(check bool) "second call hits" true hit;
            check "cold" cold;
            check "cached" warm));
    case "results are plain data: cold, demand and cached sets marshal" (fun () ->
        in_temp (fun dir ->
            let source = bench "livc" in
            marshal_sets (Analysis.of_file source);
            let d = Alias.Demand_driver.prepare (Simple_ir.Simplify.of_file source) in
            marshal_sets (Alias.Demand_driver.analyze d ~seed:"drive_a");
            let _ = Persist.analyze_cached ~cache_dir:dir source in
            let warm, hit = Persist.analyze_cached ~cache_dir:dir source in
            Alcotest.(check bool) "second call hits" true hit;
            marshal_sets warm));
  ]

(** Damage a summary segment of an incremental entry under digests that
    still hold (as a faulty writer would leave it): the incremental
    lookup must treat the entry as corrupt, quarantine it and fall back
    to a cold run, never replay a record with missing rows. [damage]
    rewrites bytes of the entry, given its length. Segments follow in
    function name order, so the file ends with the segment of [main],
    whose one record ends with the row of its [return] (local statement
    index 2, set index), the call count 2, then the calls as (local
    statement index of the call, callee name, ordinal of the callee's
    record plus one, map information): [a]'s, then [b]'s, whose map
    information is empty (one byte). Every number here fits one byte. *)
let rec damaged_summaries_fall_back damage =
  damaged_entry_falls_back
    ~src:
      "int ga; int gb; int *pa; int *pb;\n\
       void leaf(void) { pa = &ga; }\n\
       void a(void) { leaf(); }\n\
       void b(void) { pb = &gb; }\n\
       int main(void) { a(); b(); return 0; }\n"
    ~segments:[ ""; "a"; "b"; "leaf"; "main" ]
    ~tail:
      ( "main's rows and calls",
        [ 2; 1; 2; 0; 1; Char.code 'a'; 1; 0; 1; 1; Char.code 'b'; 1; 0 ] )
    damage

(** The same for the call records of a function that calls through a
    pointer: [z]'s segment comes last, and its one record ends with the
    call count 2, then the calls as (local statement index of the call,
    callee name, ordinal plus one or 0 for a function outside the
    program, map information, empty here): [a]'s, then [e]'s. The index
    lists [a] and [e] as [z]'s targets. *)
and damaged_sites_fall_back damage =
  damaged_entry_falls_back
    ~src:
      "int ga; int *pa;\n\
       void e(void);\n\
       void a(void) { pa = &ga; }\n\
       void (*fp)(void);\n\
       void z(int k) { if (k) fp = a; else fp = e; fp(); }\n\
       int main(void) { z(1); return 0; }\n"
    ~segments:[ ""; "a"; "main"; "z" ]
    ~tail:
      ( "z's calls",
        [ 2; 3; 1; Char.code 'a'; 1; 0; 3; 1; Char.code 'e'; 0; 0 ] )
    damage

and damaged_entry_falls_back ~src ~segments ~tail:(what, tail) damage =
  in_temp (fun dir ->
      let source = Filename.concat dir "refs.c" in
      let write path s =
        Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)
      in
      write source src;
      let _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
      let pti =
        Persist.cache_file_incr ~cache_dir:dir ~source ~opts:Options.default ~entry:"main"
      in
      let data = Bytes.of_string (In_channel.with_open_bin pti In_channel.input_all) in
      let n = Bytes.length data in
      Alcotest.(check (list string))
        "segments" segments
        (List.map (fun s -> s.name) (entry_layout (Bytes.to_string data)).sections);
      let k = List.length tail in
      Alcotest.(check (list int))
        what tail
        (List.init k (fun i -> Bytes.get_uint8 data (n - k + i)));
      damage data n;
      reseal data;
      write pti (Bytes.to_string data);
      (* an uncalled function keeps every old one replayable, so the
         block of [main] is decoded *)
      write source (src ^ "void added(void) { }\n");
      let r, hit = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
      Alcotest.(check bool) "miss" false hit;
      Alcotest.(check int) "quarantined" 1 r.Analysis.metrics.Pointsto.Metrics.cache_quarantined;
      Alcotest.(check int)
        "nothing replayed" 0 r.Analysis.metrics.Pointsto.Metrics.incr_funcs_reused;
      Alcotest.(check bool) "the victim is kept" true (Sys.file_exists (pti ^ ".bad"));
      Alcotest.(check (list (pair int string)))
        "cold tables" (stmt_pts_strings (Analysis.of_file source)) (stmt_pts_strings r))

let reference_tests =
  [
    case "an out-of-range summary reference is corrupt: quarantine, cold fallback" (fun () ->
        (* the call of [b] names a record past [b]'s one record *)
        damaged_summaries_fall_back (fun data n -> Bytes.set_uint8 data (n - 2) 0x7f));
    case "a summary reference no kept record answers is corrupt: quarantine, cold fallback"
      (fun () ->
        (* the call of [b] names [z], which has no segment *)
        damaged_summaries_fall_back (fun data n -> Bytes.set data (n - 3) 'z'));
    case "a summary row naming a statement its function lacks is corrupt: quarantine, cold fallback"
      (fun () ->
        damaged_summaries_fall_back (fun data n -> Bytes.set_uint8 data (n - 13) 0x7f));
    case "a direct call record naming another callee is corrupt: quarantine, cold fallback"
      (fun () ->
        (* the call statement of [b] names [a], whose one record the
           ordinal still finds *)
        damaged_summaries_fall_back (fun data n -> Bytes.set data (n - 3) 'a'));
  ]

(** Damage to the record of an indirect call: each site names one call
    record of [z]'s. *)
let site_tests =
  [
    case "a site naming a callee with no kept segment is corrupt: quarantine, cold fallback"
      (fun () ->
        (* the call of [a] names [e], a listed target outside the
           program, which has no segment *)
        damaged_sites_fall_back (fun data n -> Bytes.set data (n - 8) 'e'));
    case "a site ordinal out of range is corrupt: quarantine, cold fallback" (fun () ->
        (* the call of [a] names a record past [a]'s one record *)
        damaged_sites_fall_back (fun data n -> Bytes.set_uint8 data (n - 7) 0x7f));
    case "a site past the end of its function is corrupt: quarantine, cold fallback" (fun () ->
        (* the call of [a] names a statement [z] lacks *)
        damaged_sites_fall_back (fun data n -> Bytes.set_uint8 data (n - 10) 0x7f));
    case "a site target the index does not list is corrupt: quarantine, cold fallback" (fun () ->
        (* the call of [a] names [z]: a function, but not one [z]'s
           indirect call reached *)
        damaged_sites_fall_back (fun data n -> Bytes.set data (n - 8) 'z'));
  ]

let layout_tests =
  [
    case "a plain entry is fingerprinted and holds the result section only" (fun () ->
        (* every lookup can rekey, so every entry carries the function
           digests; only an incremental one records summaries *)
        in_temp (fun dir ->
            let source = bench "livc" in
            let _ = Persist.analyze_cached ~cache_dir:dir source in
            let funcs =
              List.map (fun f -> f.Ir.fn_name) (Simple_ir.Simplify.of_file source).Ir.funcs
            in
            let plain = entry_layout (read_file (plain_entry ~dir source)) in
            Alcotest.(check (list string)) "fingerprinted" funcs plain.fp_funcs;
            Alcotest.(check (list string)) "the result section only" [ "" ]
              (List.map (fun s -> s.name) plain.sections);
            let _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
            let incr =
              entry_layout
                (read_file
                   (Persist.cache_file_incr ~cache_dir:dir ~source ~opts:Options.default
                      ~entry:"main"))
            in
            Alcotest.(check (list string)) "an incremental entry's fingerprint" funcs incr.fp_funcs;
            Alcotest.(check bool)
              "and it has segments" true
              (List.length incr.sections > 1)));
  ]

(** The bytes of every summary segment, as one digest over each
    segment's name and MD5 in section order. The result section is not
    pinned: its metrics record holds timings, and counters that other
    runs in the same process move. *)
let segment_pin data =
  let l = entry_layout data in
  let lines =
    List.map
      (fun s -> s.name ^ " " ^ Digest.to_hex (Digest.substring data s.off s.len))
      (List.tl l.sections)
  in
  Digest.to_hex (Digest.string (String.concat "\n" lines))

(** Recorded at the format-14 encoder, whose call records carry map
    information: (shape, function edited, primed digest, digest after
    the edit). *)
let codec_pins =
  [
    ("web", "f1_3", "5c64fdeeaec65a45bf2767224cbb28c5", "79d0ebc7a6f327661edb756c2769b8d9");
    ("deep", "f3_1", "09df8c8a92b80de79bb570f110d2ed08", "8b78202920692028eae6cda1d3aa2e57");
  ]

(** A program whose consecutive statements retarget one pointer among
    more stable rows: each next set differs from the last in [p]'s row
    only, so the set table holds deltas that kill [p] and add it back. *)
let retarget_src =
  "int a; int b; int c; int d;\n\
   int *p; int *q1; int *q2; int *q3; int *q4;\n\
   int main(void) {\n\
  \  q1 = &a; q2 = &b; q3 = &c; q4 = &d;\n\
  \  p = &a;\n\
  \  p = &b;\n\
  \  p = &c;\n\
  \  p = &d;\n\
  \  return 0;\n\
   }\n"

let codec_tests =
  [
    case "segment bytes are pinned: gen:web and gen:deep, primed and after an edit" (fun () ->
        List.iter
          (fun (shape, fn, primed, edited) ->
            in_temp (fun dir ->
                let source = Filename.concat dir (shape ^ ".c") in
                let write s =
                  Out_channel.with_open_bin source (fun oc -> Out_channel.output_string oc s)
                in
                let pin () =
                  let _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
                  segment_pin
                    (In_channel.with_open_bin
                       (Persist.cache_file_incr ~cache_dir:dir ~source ~opts:Options.default
                          ~entry:"main")
                       In_channel.input_all)
                in
                let text = Gen.program (Test_rows.gen_knobs shape) in
                write text;
                Alcotest.(check string) (shape ^ ": primed") primed (pin ());
                write (insert_at_top text ~fn ~line:"    gp0 = &gv1;\n");
                Alcotest.(check string) (shape ^ ": after an edit of " ^ fn) edited (pin ())))
          codec_pins);
    case "a delta that kills and re-adds a source round-trips" (fun () ->
        in_temp (fun dir ->
            let source = Filename.concat dir "retarget.c" in
            Out_channel.with_open_bin source (fun oc -> Out_channel.output_string oc retarget_src);
            let fresh, _ = Persist.analyze_cached ~cache_dir:dir source in
            let loaded, hit = Persist.analyze_cached ~cache_dir:dir source in
            Alcotest.(check bool) "a hit" true hit;
            check_equivalent "retarget" fresh loaded;
            let sec = entry_section (read_file (plain_entry ~dir source)) "" in
            let rebinds =
              List.filter
                (fun d -> List.exists (fun k -> List.mem k d.add_srcs) d.kills)
                (result_deltas sec)
            in
            Alcotest.(check bool) "deltas kill a source and add it back" true
              (List.length rebinds >= 3)));
  ]

let suite =
  ( "persist",
    roundtrip_tests @ invalidation_tests @ cache_tests @ plain_data_tests @ reference_tests
    @ layout_tests @ site_tests @ codec_tests )
