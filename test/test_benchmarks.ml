(** Integration tests over the benchmark suite: every benchmark parses,
    simplifies and analyzes; the qualitative properties the paper reports
    hold on our synthetic counterparts (see EXPERIMENTS.md). *)

open Test_util
module Stats = Pointsto.Stats

let bench_dir = "../benchmarks"

let bench_path name = Filename.concat bench_dir (name ^ ".c")

let all_names =
  [
    "genetic"; "dry"; "clinpack"; "config"; "toplev"; "compress"; "mway"; "hash";
    "misr"; "xref"; "stanford"; "fixoutput"; "sim"; "travel"; "csuite"; "msc"; "lws";
  ]

let analyzed : (string, Analysis.result) Hashtbl.t = Hashtbl.create 18

let result name =
  match Hashtbl.find_opt analyzed name with
  | Some r -> r
  | None ->
      let r = Analysis.of_file (bench_path name) in
      Hashtbl.replace analyzed name r;
      r

let per_benchmark =
  List.map
    (fun name ->
      case ("analyzes: " ^ name) (fun () ->
          let r = result name in
          let g = Stats.general r in
          let i = Stats.indirect_stats r in
          let ig = Stats.ig_stats r in
          Alcotest.(check bool) "has statements" true (r.Analysis.prog.Ir.n_stmts > 0);
          Alcotest.(check bool) "terminates normally" true
            (r.Analysis.entry_output <> None);
          (* the paper's central empirical claims, as program properties *)
          Alcotest.(check int)
            "no heap-to-stack pairs (paper Table 5)" 0 g.Stats.heap_to_stack;
          Alcotest.(check bool) "avg targets bounded" true (i.Stats.avg <= 3.0);
          Alcotest.(check bool) "ig nodes >= call sites reached" true
            (ig.Stats.ig_nodes >= 1)))
    all_names

let aggregate_tests =
  [
    case "overall per-reference average is close to one (paper: 1.13)" (fun () ->
        let total_pairs, total_refs =
          List.fold_left
            (fun (tp, tr) name ->
              let i = Stats.indirect_stats (result name) in
              (tp + i.Stats.total_pairs, tr + i.Stats.ind_refs))
            (0, 0) all_names
        in
        let avg = float_of_int total_pairs /. float_of_int total_refs in
        Alcotest.(check bool)
          (Fmt.str "1.0 <= avg (%.2f) <= 1.6" avg)
          true
          (avg >= 1.0 && avg <= 1.6));
    case "a substantial fraction of refs has a definite target (paper: 28.8%)" (fun () ->
        let d, total =
          List.fold_left
            (fun (d, t) name ->
              let i = Stats.indirect_stats (result name) in
              (d + Stats.pair_total i.Stats.one_d, t + i.Stats.ind_refs))
            (0, 0) all_names
        in
        let frac = float_of_int d /. float_of_int total in
        Alcotest.(check bool) (Fmt.str "frac %.2f >= 0.15" frac) true (frac >= 0.15));
    case "most refs resolve to at most one location (paper: 90.76%)" (fun () ->
        let one, total =
          List.fold_left
            (fun (o, t) name ->
              let i = Stats.indirect_stats (result name) in
              ( o + Stats.pair_total i.Stats.one_d + Stats.pair_total i.Stats.one_p,
                t + i.Stats.ind_refs ))
            (0, 0) all_names
        in
        let frac = float_of_int one /. float_of_int total in
        Alcotest.(check bool) (Fmt.str "frac %.2f >= 0.6" frac) true (frac >= 0.6));
    case "csuite: every kernel called once (paper Avgc = Avgf = 1.00)" (fun () ->
        let s = Stats.ig_stats (result "csuite") in
        Alcotest.(check int) "funcs = 36" 36 s.Stats.n_funcs;
        Alcotest.(check bool) "Avgf close to 1" true (s.Stats.avg_per_func <= 1.1));
    case "lws: all pairs stay on the stack (paper Table 5)" (fun () ->
        let g = Stats.general (result "lws") in
        Alcotest.(check int) "no stack-to-heap" 0 g.Stats.stack_to_heap;
        Alcotest.(check int) "no heap-to-heap" 0 g.Stats.heap_to_heap);
    case "sim: heap-directed traffic dominates (paper: 319 of 353)" (fun () ->
        let i = Stats.indirect_stats (result "sim") in
        Alcotest.(check bool) "to-heap > to-stack" true (i.Stats.to_heap > i.Stats.to_stack));
    case "clinpack: definite array-form references dominate (paper: 98 rel-D)" (fun () ->
        let i = Stats.indirect_stats (result "clinpack") in
        Alcotest.(check bool) "array-form definites" true (i.Stats.one_d.Stats.array > 10));
    case "stanford: recursion shows up in the invocation graph" (fun () ->
        let s = Stats.ig_stats (result "stanford") in
        Alcotest.(check bool) "R > 0" true (s.Stats.n_recursive > 0);
        Alcotest.(check bool) "A > 0" true (s.Stats.n_approximate > 0));
  ]

let livc_tests =
  [
    case "livc: precise call-graph binds 24 kernels per site (paper §6)" (fun () ->
        let p = Simple_ir.Simplify.of_file (bench_path "livc") in
        let analyzed = Alias.Callgraph.Precise (Analysis.analyze p) in
        Alcotest.(check (list int)) "fanout 24/24/24" [ 24; 24; 24 ]
          (Alias.Callgraph.indirect_fanout p analyzed);
        Alcotest.(check (list int)) "naive fanout 82" [ 82; 82; 82 ]
          (Alias.Callgraph.indirect_fanout p Alias.Callgraph.Naive);
        Alcotest.(check (list int)) "address-taken fanout 72" [ 72; 72; 72 ]
          (Alias.Callgraph.indirect_fanout p Alias.Callgraph.Address_taken);
        let precise = Alias.Callgraph.ig_size p analyzed in
        let at = Alias.Callgraph.ig_size p Alias.Callgraph.Address_taken in
        let naive = Alias.Callgraph.ig_size p Alias.Callgraph.Naive in
        Alcotest.(check bool)
          (Fmt.str "precise (%d) < addr-taken (%d) < naive (%d)" precise at naive)
          true
          (precise < at && at < naive));
  ]

let suite = ("benchmarks", per_benchmark @ aggregate_tests @ livc_tests)
