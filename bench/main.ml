(** Benchmark harness: regenerates every table and figure of the paper's
    evaluation (§6) on the synthetic benchmark suite, prints each next to
    the paper's numbers, runs the ablation studies from DESIGN.md, and
    enforces the gates behind the subsystems' claims (each a hard
    failure of its section). Committed performance numbers live in
    [perf/] and BENCHMARK.json, not here.

    Run with [dune exec bench/main.exe -- [SECTION...] [-j N]]; no
    section runs them all, [--smoke] runs the CI subset instead, and an
    unknown section exits 2. Sections, in run order: table2, table3,
    table4, table5, table6, figure2, figures67, figures89, livc,
    overall, ablations, extensions, persistence, incremental, demand,
    counters, tracing, degradation, parallel, serve, corpus. *)

module Ir = Simple_ir.Ir
module Stats = Pointsto.Stats
module Analysis = Pointsto.Analysis
module Ig = Pointsto.Invocation_graph
module Loc = Pointsto.Loc
module Pts = Pointsto.Pts
module Mono = Pointsto.Mono

let bench_dir =
  if Sys.file_exists "benchmarks" then "benchmarks"
  else if Sys.file_exists "../benchmarks" then "../benchmarks"
  else Fmt.failwith "cannot find the benchmarks directory (run from the repo root)"

let path name = Filename.concat bench_dir (name ^ ".c")

let count_lines file =
  let ic = open_in file in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      let n = ref 0 in
      (try
         while true do
           ignore (input_line ic);
           incr n
         done
       with End_of_file -> ());
      !n)

let progs : (string, Ir.program) Hashtbl.t = Hashtbl.create 18
let results : (string, Analysis.result) Hashtbl.t = Hashtbl.create 18

let prog name =
  match Hashtbl.find_opt progs name with
  | Some p -> p
  | None ->
      let p = Simple_ir.Simplify.of_file (path name) in
      Hashtbl.replace progs name p;
      p

let result name =
  match Hashtbl.find_opt results name with
  | Some r -> r
  | None ->
      let r = Analysis.analyze (prog name) in
      Hashtbl.replace results name r;
      r

let section title = Fmt.pr "@.=== %s ===@.@." title

let hr = String.make 78 '-'

(* ------------------------------------------------------------------ *)
(* Tables                                                             *)
(* ------------------------------------------------------------------ *)

let table2 () =
  section "Table 2: Characteristics of Benchmark Programs (ours | paper)";
  Fmt.pr "%-10s %15s %17s %13s %13s@." "Benchmark" "Lines|ppr" "stmts|ppr" "Min|ppr"
    "Max|ppr";
  Fmt.pr "%s@." hr;
  List.iter
    (fun (name, (p : Paper_data.t2)) ->
      let r = result name in
      let c = Stats.characteristics r in
      Fmt.pr "%-10s %6d | %-6d %6d | %-6d %4d | %-4d %4d | %-4d@." name
        (count_lines (path name))
        p.Paper_data.lines c.Stats.c_stmts p.Paper_data.stmts c.Stats.c_min_vars
        p.Paper_data.min_vars c.Stats.c_max_vars p.Paper_data.max_vars)
    Paper_data.table2

let table3 () =
  section "Table 3: Points-to Statistics for Indirect References (ours | paper)";
  Fmt.pr "%-10s %11s %11s %5s %4s %4s %10s %9s %11s %11s %11s@." "Benchmark" "1D s/a"
    "1P s/a" "2P" "3P" "4+P" "refs" "rep" "stack" "heap" "avg";
  Fmt.pr "%s@." hr;
  List.iter
    (fun (name, (p : Paper_data.t3)) ->
      let i = Stats.indirect_stats (result name) in
      Fmt.pr
        "%-10s %5d/%-5d %5d/%-5d %5d %4d %4d %4d|%-4d %4d|%-4d %5d|%-5d %4d|%-4d %.2f|%.2f@."
        name i.Stats.one_d.Stats.scalar i.Stats.one_d.Stats.array i.Stats.one_p.Stats.scalar
        i.Stats.one_p.Stats.array
        (Stats.pair_total i.Stats.two_p)
        (Stats.pair_total i.Stats.three_p)
        (Stats.pair_total i.Stats.four_plus_p)
        i.Stats.ind_refs p.Paper_data.ind_refs i.Stats.scalar_rep p.Paper_data.scalar_rep
        i.Stats.to_stack p.Paper_data.to_stack i.Stats.to_heap p.Paper_data.to_heap
        i.Stats.avg p.Paper_data.avg)
    Paper_data.table3

let table4 () =
  section "Table 4: Categorization of Points-to Information Used by Indirect References";
  Fmt.pr "%-10s | %6s %6s %6s %6s | %6s %6s %6s %6s@." "Benchmark" "fr-lo" "fr-gl" "fr-fp"
    "fr-sy" "to-lo" "to-gl" "to-fp" "to-sy";
  Fmt.pr "%s@." hr;
  List.iter
    (fun name ->
      let c = Stats.categorize (result name) in
      Fmt.pr "%-10s | %6d %6d %6d %6d | %6d %6d %6d %6d@." name c.Stats.from_lo
        c.Stats.from_gl c.Stats.from_fp c.Stats.from_sy c.Stats.to_lo c.Stats.to_gl
        c.Stats.to_fp c.Stats.to_sy)
    Paper_data.names;
  Fmt.pr
    "@.(Paper's Table 4 shape: most pairs run from formal parameters to globals and@.\
     symbolic names -- procedure calls generate the majority of relationships, so@.\
     the analysis must be context-sensitive.)@."

let table5 () =
  section "Table 5: General Points-to Statistics (ours | paper)";
  Fmt.pr "%-10s %15s %15s %13s %13s %11s %11s@." "Benchmark" "S->S" "S->H" "H->H" "H->S"
    "Avg" "Max";
  Fmt.pr "%s@." hr;
  List.iter
    (fun (name, (p : Paper_data.t5)) ->
      let g = Stats.general (result name) in
      Fmt.pr "%-10s %6d | %6d %6d | %6d %5d | %5d %5d | %5d %4.0f | %4d %4d | %4d@." name
        g.Stats.stack_to_stack p.Paper_data.ss g.Stats.stack_to_heap p.Paper_data.sh
        g.Stats.heap_to_heap p.Paper_data.hh g.Stats.heap_to_stack p.Paper_data.hs
        g.Stats.avg_per_stmt p.Paper_data.avg g.Stats.max_per_stmt p.Paper_data.max)
    Paper_data.table5;
  let hs_total =
    List.fold_left
      (fun acc name -> acc + (Stats.general (result name)).Stats.heap_to_stack)
      0 Paper_data.names
  in
  Fmt.pr "@.Heap-to-stack pairs across the whole suite: %d (paper: 0 -- the key@." hs_total;
  Fmt.pr "observation supporting the separation of stack and heap analyses).@."

let table6 () =
  section "Table 6: Invocation Graph Statistics (ours | paper)";
  Fmt.pr "%-10s %13s %13s %11s %9s %9s %13s %13s@." "Benchmark" "nodes" "sites" "funcs" "R"
    "A" "Avgc" "Avgf";
  Fmt.pr "%s@." hr;
  List.iter
    (fun (name, (p : Paper_data.t6)) ->
      let s = Stats.ig_stats (result name) in
      Fmt.pr
        "%-10s %5d | %5d %5d | %5d %4d | %4d %3d | %3d %3d | %3d %5.2f | %5.2f %5.2f | %5.2f@."
        name s.Stats.ig_nodes p.Paper_data.nodes s.Stats.call_sites p.Paper_data.sites
        s.Stats.n_funcs p.Paper_data.funcs s.Stats.n_recursive p.Paper_data.r
        s.Stats.n_approximate p.Paper_data.a s.Stats.avg_per_call_site p.Paper_data.avgc
        s.Stats.avg_per_func p.Paper_data.avgf)
    Paper_data.table6

(* ------------------------------------------------------------------ *)
(* Figures                                                            *)
(* ------------------------------------------------------------------ *)

let figure2 () =
  section "Figure 2: Invocation Graphs";
  let show title src =
    let r = Analysis.of_string src in
    Fmt.pr "%s:@.%a@." title Ig.pp r.Analysis.graph
  in
  show "(a) no recursion"
    {|void f(void) {}
      void g(void) { f(); }
      int main() { g(); g(); f(); return 0; }|};
  show "(b) simple recursion"
    {|void f(int n) { if (n) f(n - 1); }
      int main() { f(3); return 0; }|};
  show "(c) simple and mutual recursion"
    {|void h(int n);
      void g(int n) { if (n) h(n - 1); }
      void h(int n) { if (n > 1) { h(n - 1); } else { g(n); } }
      void f(int n) { g(n); if (n) f(n - 1); }
      int main() { f(3); return 0; }|}

let figures67 () =
  section "Figures 6-7: Function Pointer Example";
  let src =
    {|int a,b,c;
      int *pa,*pb,*pc;
      int (*fp)();
      int foo(); int bar();
      void probeA(void); void probeB(void); void probeC(void); void probeD(void);
      int main() {
        int cond;
        pc = &c;
        if (cond) fp = foo; else fp = bar;
        probeA();
        fp();
        probeB();
        return 0;
      }
      int foo() { pa = &a; if (c) { fp(); } probeC(); return 0; }
      int bar() { pb = &b; probeD(); return 0; }|}
  in
  let r = Analysis.of_string src in
  let show_probe label probe =
    let sid =
      Ir.fold_program
        (fun acc s ->
          match s.Ir.s_desc with
          | Ir.Scall (_, Ir.Cdirect f, _) when String.equal f probe -> Some s.Ir.s_id
          | _ -> acc)
        None r.Analysis.prog
    in
    match sid with
    | None -> ()
    | Some sid ->
        let pts = Analysis.pts_at_no_null r sid in
        let pts =
          Pts.filter (fun src _ _ -> match src with Loc.Var _ -> true | _ -> false) pts
        in
        Fmt.pr "%s@.  ours: %a@." label Pts.pp pts
  in
  show_probe "A (paper: (fp,foo,P) (fp,bar,P) (pc,c,D))" "probeA";
  show_probe "B (paper: A + (pa,a,P) (pb,b,P))" "probeB";
  show_probe "C (paper: (fp,foo,D) (pc,c,D) (pa,a,D))" "probeC";
  show_probe "D (paper: (fp,bar,D) (pc,c,D) (pb,b,D))" "probeD";
  Fmt.pr
    "@.Final invocation graph (paper Figure 7(c): the call to foo through fp@.\
     inside foo becomes recursive):@.%a@."
    Ig.pp r.Analysis.graph

let figures89 () =
  section "Figures 8-9: Points-to Pairs vs Alias Pairs";
  let show title src note =
    let r = Analysis.of_string src in
    match r.Analysis.entry_output with
    | None -> ()
    | Some s ->
        let s = Pts.filter (fun _ t _ -> not (Loc.is_null t)) s in
        Fmt.pr "%s@.  points-to: %a@.  implied alias pairs: %a@.  %s@.@." title Pts.pp s
          Alias.Pairs.pp (Alias.Pairs.of_pts s) note
  in
  show "Figure 8 (after S3: x = &y; y = &z; y = &w;)"
    {|int main() { int **x, *y, z, w; x = &y; y = &z; y = &w; return 0; }|}
    "(no spurious <**x,z>: the stale alias the pair representation reports is absent)";
  show "Figure 9 (after the if: a = &b / b = &c on different branches)"
    {|int main() { int **a, *b, c; int cond;
       if (cond) a = &b; else b = &c;
       return 0; }|}
    "(the closure derives the spurious <**a,c>, which Landi/Ryder avoid -- the\n\
    \  trade-off the paper discusses)"

let livc_study () =
  section "livc: Call-Graph Strategies for Function Pointers (paper section 6)";
  let p = prog "livc" in
  let pp_paper, pn_paper, pa_paper = Paper_data.livc_paper in
  let fp_paper, fn_paper, fa_paper = Paper_data.livc_fanout_paper in
  let fanout1 s =
    match Alias.Callgraph.indirect_fanout p s with n :: _ -> n | [] -> 0
  in
  let row strategy s paper_nodes paper_fanout =
    Fmt.pr "%-28s %6d | %-6d %6d | %-6d@." strategy (Alias.Callgraph.ig_size p s)
      paper_nodes (fanout1 s) paper_fanout
  in
  Fmt.pr "%-28s %15s %15s@." "strategy" "IG nodes|paper" "fanout|paper";
  Fmt.pr "%s@." hr;
  row "points-to (precise)" Alias.Callgraph.Precise pp_paper fp_paper;
  row "all functions (naive)" Alias.Callgraph.Naive pn_paper fn_paper;
  row "address-taken" Alias.Callgraph.Address_taken pa_paper fa_paper;
  Fmt.pr
    "@.(Shape to reproduce: the precise strategy binds exactly the 24 functions of@.\
     each table to its call site; both approximations blow the graph up.)@."

let overall () =
  section "Overall Averages (paper section 6)";
  let tp, tr, td, trep, tone =
    List.fold_left
      (fun (tp, tr, td, trep, tone) name ->
        let i = Stats.indirect_stats (result name) in
        ( tp + i.Stats.total_pairs,
          tr + i.Stats.ind_refs,
          td + Stats.pair_total i.Stats.one_d,
          trep + i.Stats.scalar_rep,
          tone + Stats.pair_total i.Stats.one_d + Stats.pair_total i.Stats.one_p ))
      (0, 0, 0, 0, 0) Paper_data.names
  in
  let pct a b = 100.0 *. float_of_int a /. float_of_int b in
  Fmt.pr "avg locations per indirect reference:   %.2f   (paper: %.2f; Landi et al.: 1.2)@."
    (float_of_int tp /. float_of_int tr)
    Paper_data.overall_avg;
  Fmt.pr "refs with a single definite target:     %.1f%%  (paper: %.1f%%)@." (pct td tr)
    Paper_data.overall_definite_pct;
  Fmt.pr "refs replaceable by direct references:  %.1f%%  (paper: %.1f%%)@." (pct trep tr)
    Paper_data.overall_replaceable_pct;
  Fmt.pr "refs with at most one non-NULL target:  %.1f%%  (paper: %.1f%%)@." (pct tone tr)
    Paper_data.overall_single_pct

(* ------------------------------------------------------------------ *)
(* Ablations                                                          *)
(* ------------------------------------------------------------------ *)

let suite_stats opts =
  List.fold_left
    (fun (tp, tr, td, t5) name ->
      let r = Analysis.analyze ~opts (prog name) in
      let i = Stats.indirect_stats r in
      let g = Stats.general r in
      ( tp + i.Stats.total_pairs,
        tr + i.Stats.ind_refs,
        td + Stats.pair_total i.Stats.one_d,
        t5 + g.Stats.stack_to_stack + g.Stats.stack_to_heap + g.Stats.heap_to_heap
        + g.Stats.heap_to_stack ))
    (0, 0, 0, 0) Paper_data.names

let ablations () =
  section "Ablations (DESIGN.md ABL1-ABL4)";
  let show label opts =
    let tp, tr, td, t5 = suite_stats opts in
    Fmt.pr "  %-36s avg %.2f, definite refs %4.1f%%, total pairs %d@." label
      (float_of_int tp /. float_of_int tr)
      (100.0 *. float_of_int td /. float_of_int tr)
      t5
  in
  let dflt = Pointsto.Options.default in
  Fmt.pr "ABL1 definite information:@.";
  show "with definite pairs (paper):" dflt;
  show "without (weak updates only):"
    { dflt with Pointsto.Options.use_definite = false };
  Fmt.pr "@.ABL2 context sensitivity:@.";
  show "context-sensitive (paper):" dflt;
  show "context-insensitive (merged IN/OUT):"
    { dflt with Pointsto.Options.context_sensitive = false };
  Fmt.pr "@.ABL3 symbolic-name depth bound:@.";
  List.iter
    (fun d ->
      show
        (Fmt.str "max_sym_depth = %d:" d)
        { dflt with Pointsto.Options.max_sym_depth = d })
    [ 1; 2; 5; 8 ];
  Fmt.pr "@.ABL4 flow-insensitive baselines (avg targets per pointer with any):@.";
  let st, an =
    List.fold_left
      (fun (st, an) name ->
        let p = prog name in
        ( st +. Alias.Steensgaard.avg_targets (Alias.Steensgaard.run p),
          an +. Alias.Andersen.avg_targets (Alias.Andersen.run p) ))
      (0., 0.) Paper_data.names
  in
  let n = float_of_int (List.length Paper_data.names) in
  Fmt.pr "  Steensgaard (unification):           %.2f@." (st /. n);
  Fmt.pr "  Andersen (inclusion):                %.2f@." (an /. n);
  let tp, tr, _, _ = suite_stats dflt in
  Fmt.pr "  this paper (context-sensitive):      %.2f@."
    (float_of_int tp /. float_of_int tr)

(* ------------------------------------------------------------------ *)
(* Extensions (the paper's stated future work)                        *)
(* ------------------------------------------------------------------ *)

let extensions () =
  section "Extensions: sub-tree sharing, heap connection analysis, constants";
  (* section 6: "we plan to reduce its size by ... caching or memoizing
     the input and output points-to information for each function" *)
  Fmt.pr "Sub-tree sharing (paper section 6 proposal): function-body passes@.";
  Fmt.pr "%-12s %14s %14s %8s@." "benchmark" "without" "with sharing" "hits";
  List.iter
    (fun name ->
      let p = prog name in
      (* share_contexts is on by default; the "without" column must turn it
         off explicitly. *)
      let off =
        Analysis.analyze
          ~opts:
            { Pointsto.Options.default with Pointsto.Options.share_contexts = false }
          p
      in
      let on = (Analysis.analyze p).Analysis.metrics in
      let off = off.Analysis.metrics in
      if on.Pointsto.Metrics.memo_hits > 0 then
        Fmt.pr "%-12s %14d %14d %8d@." name off.Pointsto.Metrics.bodies on.bodies
          on.memo_hits)
    (Paper_data.names @ [ "livc" ]);
  (* section 8: companion heap analysis *)
  Fmt.pr
    "@.Connection analysis over allocation-site-named heap (paper section 8,@.\
     the companion analyses of [Ghiya 93]):@.";
  Fmt.pr "%-12s %8s %12s %10s %12s@." "benchmark" "sites" "heap ptrs" "pairs" "disjoint";
  List.iter
    (fun name ->
      let module C = Heap_analysis.Connection in
      let r = Analysis.analyze ~opts:C.options (prog name) in
      let s = C.summarize r in
      if s.C.n_sites > 0 then
        Fmt.pr "%-12s %8d %12d %10d %12d@." name s.C.n_sites s.C.n_heap_ptrs s.C.n_pairs
          s.C.n_disjoint)
    Paper_data.names;
  (* section 6.1: follow-on interprocedural analyses over deposited info *)
  Fmt.pr
    "@.Interprocedural constant propagation over the invocation graph and@.\
     deposited map information (paper section 6.1, [Hendren et al. 93]):@.";
  Fmt.pr "%-12s %26s@." "benchmark" "constant operand reads";
  List.iter
    (fun name ->
      let r = result name in
      let cp = Constprop.run r in
      let n = List.length (Constprop.fold_sites cp) in
      Fmt.pr "%-12s %26d@." name n)
    Paper_data.names

(* ------------------------------------------------------------------ *)
(* Persisted results: cold analyze vs warm load + demand queries      *)
(* ------------------------------------------------------------------ *)

module Persist = Pointsto.Persist

(** One string summarizing the Table 3-5 rows of a result; the
    analyze-once/query-many contract is that a loaded result reproduces
    it bit-identically. *)
let table345_rows r =
  let i = Stats.indirect_stats r in
  let c = Stats.categorize r in
  let g = Stats.general r in
  Fmt.str "%d %d %d %d %.2f | %d %d %d %d %d %d %d %d | %d %d %d %d %.1f %d" i.Stats.ind_refs
    i.Stats.scalar_rep i.Stats.to_stack i.Stats.to_heap i.Stats.avg c.Stats.from_lo
    c.Stats.from_gl c.Stats.from_fp c.Stats.from_sy c.Stats.to_lo c.Stats.to_gl c.Stats.to_fp
    c.Stats.to_sy g.Stats.stack_to_stack g.Stats.stack_to_heap g.Stats.heap_to_heap
    g.Stats.heap_to_stack g.Stats.avg_per_stmt g.Stats.max_per_stmt

(** A program-derived query workload: every variable of every function
    probed at the function's first and last statement, plus one [calls]
    query per call site. *)
let gen_queries (r : Analysis.result) =
  let qs = ref [] in
  let add q = qs := q :: !qs in
  List.iter
    (fun (fn : Ir.func) ->
      let ids = List.rev (Ir.fold_func (fun acc s -> s.Ir.s_id :: acc) [] fn) in
      (match ids with
      | [] -> ()
      | first :: rest ->
          let last = List.fold_left (fun _ id -> id) first rest in
          List.iter
            (fun (v, _) ->
              add (Fmt.str "pts %s s%d %s" fn.Ir.fn_name first v);
              if last <> first then add (Fmt.str "pts %s s%d %s" fn.Ir.fn_name last v))
            (fn.Ir.fn_params @ fn.Ir.fn_locals));
      Ir.fold_func
        (fun () s ->
          match s.Ir.s_desc with
          | Ir.Scall _ -> add (Fmt.str "calls s%d" s.Ir.s_id)
          | _ -> ())
        () fn)
    r.Analysis.prog.Ir.funcs;
  List.rev !qs

let time f =
  let t0 = Mono.now_s () in
  let r = f () in
  (r, (Mono.now_s () -. t0) *. 1e3)

(** [f]'s last result and its best time over 3 runs, each after
    [prepare]: the min squeezes out the allocator and scheduler jitter
    that would otherwise dwarf millisecond-scale rows. *)
let min_time ?(prepare = ignore) f =
  let best = ref infinity and last = ref None in
  for _ = 1 to 3 do
    prepare ();
    let v, t = time f in
    last := Some v;
    if t < !best then best := t
  done;
  (Option.get !last, !best)

(** [f] on a fresh private directory, removed recursively afterwards. *)
let with_temp_dir f =
  let dir = Filename.temp_file "ptan-bench" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun n -> rm (Filename.concat p n)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  Fun.protect ~finally:(fun () -> rm dir) (fun () -> f dir)

let persistence () =
  section "Persisted Results: cold analyze+save vs warm load, then demand queries";
  with_temp_dir (fun dir ->
      Fmt.pr "%-12s %10s %10s %9s %6s %8s %10s@." "benchmark" "cold ms" "warm ms" "speedup"
        "ident" "queries" "queries/s";
      Fmt.pr "%s@." hr;
      let livc_detail = ref None in
      List.iter
        (fun name ->
          let source = path name in
          let (cold, cold_hit), t_cold =
            time (fun () -> Persist.analyze_cached ~cache_dir:dir source)
          in
          (* min of a few hits: the first warm call tends to absorb the GC
             debt of the cold analyze, which is not load cost *)
          let warm_runs =
            List.init 5 (fun _ -> time (fun () -> Persist.analyze_cached ~cache_dir:dir source))
          in
          let (warm, warm_hit), _ = List.hd warm_runs in
          let t_warm =
            List.fold_left (fun acc (_, t) -> Float.min acc t) Float.infinity warm_runs
          in
          if cold_hit || not warm_hit then
            Fmt.failwith "%s: cache behaved unexpectedly (cold hit %b, warm hit %b)" name
              cold_hit warm_hit;
          let ident = String.equal (table345_rows cold) (table345_rows warm) in
          let qs = gen_queries warm in
          let n = List.length qs in
          let (), t_q =
            time (fun () -> List.iter (fun q -> ignore (Alias.Query.run warm q)) qs)
          in
          let qps = if t_q > 0. then float_of_int n /. t_q *. 1e3 else Float.infinity in
          Fmt.pr "%-12s %10.2f %10.2f %8.1fx %6s %8d %10.0f@." name t_cold t_warm
            (t_cold /. t_warm)
            (if ident then "yes" else "NO")
            n qps;
          if String.equal name "livc" then livc_detail := Some (cold, warm))
        (Paper_data.names @ [ "livc" ]);
      (match !livc_detail with
      | None -> ()
      | Some (cold, warm) ->
          let module M = Pointsto.Metrics in
          let mc = cold.Analysis.metrics and mw = warm.Analysis.metrics in
          Fmt.pr
            "@.livc cache detail: %d hit(s), %d miss(es); serialize %.3f ms, deserialize \
             %.3f ms@."
            mw.M.cache_hits mc.M.cache_misses (mc.M.t_serialize *. 1e3)
            (mw.M.t_deserialize *. 1e3));
      Fmt.pr
        "(cold = full fixpoint + save; warm = load from the result cache; the@.\
         acceptance bar is warm at least 10x faster than cold on livc)@.")

(* ------------------------------------------------------------------ *)
(* Engine cost counters                                               *)
(* ------------------------------------------------------------------ *)

let counters () =
  section "Engine Counters (per-phase work of one default analysis run)";
  Fmt.pr "%-12s %7s %6s %6s %8s %8s %7s %7s %7s@." "benchmark" "bodies" "loop" "rec"
    "assigns" "merges" "fast%" "eq-fst%" "memo%";
  Fmt.pr "%s@." hr;
  let module M = Pointsto.Metrics in
  List.iter
    (fun name ->
      let m = (result name).Analysis.metrics in
      Fmt.pr "%-12s %7d %6d %6d %8d %8d %6.1f%% %6.1f%% %6.1f%%@." name m.M.bodies
        m.M.loop_iters m.M.rec_iters m.M.assigns m.M.merges
        (M.ratio m.M.merge_fast m.M.merges)
        (M.ratio m.M.equal_fast m.M.equal_checks)
        (M.ratio m.M.memo_hits m.M.memo_lookups))
    (Paper_data.names @ [ "livc" ]);
  let m = (result "livc").Analysis.metrics in
  Fmt.pr "@.livc detail:@.%a@." M.pp m;
  Fmt.pr "interned locations: %d@." (Loc.interned_count ())

(* ------------------------------------------------------------------ *)
(* Parallel suite analysis                                            *)
(* ------------------------------------------------------------------ *)

module Pool = Pointsto.Pool

(** Digest covering the Table 3-6 rows, the invocation-graph shape and
    every per-statement points-to set of a result. The parallel-driver
    contract is that any [-j] reproduces it bit-identically. *)
let result_digest r =
  let stmts =
    Hashtbl.fold (fun id s acc -> (id, s) :: acc) r.Analysis.stmt_pts []
    |> List.sort compare
    |> List.map (fun (id, s) -> Fmt.str "s%d:%a" id Pts.pp s)
    |> String.concat "\n"
  in
  let ig = Stats.ig_stats r in
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          [
            table345_rows r;
            Fmt.str "%d %d %d %d %d" ig.Stats.ig_nodes ig.Stats.call_sites ig.Stats.n_funcs
              ig.Stats.n_recursive ig.Stats.n_approximate;
            stmts;
          ]))

(* ------------------------------------------------------------------ *)
(* Trace layer                                                        *)
(* ------------------------------------------------------------------ *)

module Trace = Pointsto.Trace

(** The trace layer's acceptance bars: results bit-identical with the
    sink enabled, and a disabled sink cheap enough that the instrumented
    hot paths cost at most 3% of the analysis time. *)
let tracing () =
  section "Trace Layer: span volume, export size, disabled-sink overhead (livc)";
  let p = prog "livc" in
  let off = Analysis.analyze p in
  Trace.enable ();
  Trace.clear ();
  let on_r, t_on = time (fun () -> Analysis.analyze p) in
  Trace.disable ();
  let spans = Trace.collect () in
  if not (String.equal (result_digest off) (result_digest on_r)) then
    failwith "tracing: enabled-sink result differs from disabled-sink result";
  Fmt.pr "enabled-sink run: bit-identical result in %.3f ms@." t_on;
  let per_kind = Hashtbl.create 9 in
  List.iter
    (fun s ->
      let k = Trace.kind_name s.Trace.sp_kind in
      Hashtbl.replace per_kind k
        (1 + Option.value ~default:0 (Hashtbl.find_opt per_kind k)))
    spans;
  Fmt.pr "spans: %d (%s)@.JSON export: %d bytes; root-span coverage %.1f%%@."
    (List.length spans)
    (Hashtbl.fold (fun k n acc -> Fmt.str "%s %d" k n :: acc) per_kind []
    |> List.sort compare |> String.concat ", ")
    (String.length (Trace.json_string spans))
    (100. *. Trace.coverage spans);
  (* cost of one disabled instrumentation site (a start/emit pair),
     multiplied by the sites the enabled run actually hit: that product
     is the whole overhead tracing leaves in a default run *)
  let n = 10_000_000 in
  let (), t_ms =
    time (fun () ->
        for _ = 1 to n do
          let t0 = Trace.start () in
          if Trace.on () then Trace.emit Trace.Node ~name:"x" ~t0 ()
        done)
  in
  let ns_per_site = t_ms *. 1e6 /. float_of_int n in
  let t_analysis = off.Analysis.metrics.Pointsto.Metrics.t_analysis *. 1e3 in
  let overhead_ms = float_of_int (List.length spans) *. ns_per_site /. 1e6 in
  Fmt.pr "disabled sink: %.2f ns/site; %d sites => %.4f ms vs %.3f ms analysis (%.2f%%)@."
    ns_per_site (List.length spans) overhead_ms t_analysis
    (100. *. overhead_ms /. t_analysis);
  if overhead_ms > 0.03 *. t_analysis then
    failwith "tracing: disabled-sink overhead exceeds 3% of the analysis time"

(* ------------------------------------------------------------------ *)
(* Degradation under budgets                                          *)
(* ------------------------------------------------------------------ *)

module Guard = Pointsto.Guard

(** One unit of fixpoint fuel trips on the second iteration of any
    loop or recursive body, so every benchmark with non-trivial control
    flow is forced through the widened rerun. A tiny deadline would not
    do: it would also starve the rerun itself. *)
let degradation_budget = { Guard.no_budget with Guard.b_fuel = Some 1 }

(** Every (statement, source, target) pair of a result — per-statement
    sets plus the entry output (statement [-1]) — with certainty
    erased. The soundness contract of degradation is containment of
    the full-precision run's pairs in the degraded run's. *)
let result_pairs (r : Analysis.result) =
  let h = Hashtbl.create 1024 in
  let add_set sid s = Pts.iter (fun src dst _ -> Hashtbl.replace h (sid, Loc.id src, Loc.id dst) ()) s in
  Hashtbl.iter (fun id s -> add_set id s) r.Analysis.stmt_pts;
  (match r.Analysis.entry_output with Some o -> add_set (-1) o | None -> ());
  h

let pairs_superset ~full ~degraded =
  Hashtbl.fold (fun k () acc -> acc && Hashtbl.mem degraded k) full true

let degradation () =
  section "Degradation (fuel 1: every trip unwinds to the widened context-insensitive rerun)";
  Fmt.pr "%-12s %10s %11s %8s %7s %7s %7s %9s@." "benchmark" "full ms" "budget ms" "trip"
    "pairs" "pairs'" "delta" "superset";
  Fmt.pr "%s@." hr;
  let tripped = ref 0 in
  List.iter
    (fun name ->
      let p = prog name in
      let full, t_full = time (fun () -> Analysis.analyze p) in
      let deg, t_deg = time (fun () -> Analysis.analyze ~budget:degradation_budget p) in
      let trip =
        match deg.Analysis.degraded with
        | Some d ->
            incr tripped;
            Guard.reason_name d.Analysis.deg_trip.Guard.t_reason
        | None -> "-"
      in
      let fp = result_pairs full and dp = result_pairs deg in
      let nf = Hashtbl.length fp and nd = Hashtbl.length dp in
      if not (pairs_superset ~full:fp ~degraded:dp) then
        Fmt.failwith "degradation: %s lost points-to pairs (unsound widening)" name;
      Fmt.pr "%-12s %10.2f %11.2f %8s %7d %7d %+7d %9s@." name t_full t_deg trip nf nd
        (nd - nf) "yes")
    (Paper_data.names @ [ "livc" ]);
  Fmt.pr
    "@.%d/%d benchmarks tripped the fuel budget; every degraded table is a@.\
     pair-containment superset of the full-precision one (certainty erased),@.\
     i.e. budget exhaustion trades precision, never soundness.@."
    !tripped
    (List.length Paper_data.names + 1);
  if !tripped = 0 then failwith "degradation: no benchmark tripped under fuel 1"

(** Analyze the whole suite on a pool of [jobs] domains; returns the
    named results (in suite order) and the wall-clock milliseconds. *)
let suite_on_pool parsed jobs =
  Pool.with_pool ~jobs (fun pool ->
      time (fun () ->
          Pool.map_result pool (fun (name, p) -> (name, Analysis.analyze p)) parsed
          |> List.map (function
               | Ok r -> r
               | Error e -> failwith ("suite analysis failed: " ^ Printexc.to_string e))))

let parallel_suite jobs_list =
  section "Parallel Suite (domain pool over the whole benchmark suite)";
  let names = Paper_data.names @ [ "livc" ] in
  (* parse up front so the walls below time only analysis work *)
  let parsed = List.map (fun name -> (name, prog name)) names in
  let baseline, t1 = suite_on_pool parsed 1 in
  let base_digests = List.map (fun (_, r) -> result_digest r) baseline in
  Fmt.pr "%d programs, %d core(s) recommended by the runtime@.@." (List.length names)
    (Domain.recommended_domain_count ());
  Fmt.pr "%-8s %12s %10s %12s@." "jobs" "wall ms" "speedup" "identical";
  Fmt.pr "%s@." hr;
  Fmt.pr "%-8d %12.1f %10s %12s@." 1 t1 "1.00x" "-";
  List.iter
    (fun jobs ->
      let rs, t = suite_on_pool parsed jobs in
      let ident = List.for_all2 (fun (_, r) d -> String.equal (result_digest r) d) rs base_digests in
      if not ident then Fmt.failwith "parallel suite: -j %d diverged from -j 1" jobs;
      Fmt.pr "%-8d %12.1f %9.2fx %12s@." jobs t (t1 /. t) "yes")
    jobs_list;
  let module M = Pointsto.Metrics in
  let agg = M.sum (List.map (fun (_, r) -> r.Analysis.metrics) baseline) in
  Fmt.pr "@.sub-tree sharing memo (hash-indexed, on by default): %d lookups, %d hits (%.1f%%)@."
    agg.M.memo_lookups agg.M.memo_hits
    (M.ratio agg.M.memo_hits agg.M.memo_lookups);
  Fmt.pr "(speedup is bounded by the cores available to the runtime)@."

(** [-j N] on the command line narrows the parallel section (and the
    smoke check) to that one pool width. *)
let argv_jobs () =
  let rec go i =
    if i + 1 >= Array.length Sys.argv then None
    else if String.equal Sys.argv.(i) "-j" then int_of_string_opt Sys.argv.(i + 1)
    else go (i + 1)
  in
  go 1

(* ------------------------------------------------------------------ *)
(* Incremental re-analysis: edit, diff hashes, replay the clean part  *)
(* ------------------------------------------------------------------ *)

let read_file p = In_channel.with_open_bin p In_channel.input_all

let write_file p s = Out_channel.with_open_bin p (fun oc -> Out_channel.output_string oc s)

let replace_once ~sub ~by s =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then Fmt.failwith "edit anchor %S not found" sub
    else if String.equal (String.sub s i m) sub then
      String.sub s 0 i ^ by ^ String.sub s (i + m) (n - i - m)
    else go (i + 1)
  in
  go 0

type incr_row = {
  ir_name : string;
  ir_edit : string;  (** "comment" or "kernel" *)
  ir_funcs : int;
  ir_dirty : int;
  ir_reused : int;
  ir_t_cold : float;
      (** the pre-existing cache trajectory on the edited source — a
          full miss through [analyze_cached] without [incremental], so
          fixpoint plus save, ms. This is what the [--incremental] flag
          replaces. *)
  ir_t_nocache : float;  (** bare fixpoint ([Analysis.of_file]), ms *)
  ir_t_incr : float;  (** incremental re-analysis of the same edit, ms *)
  ir_ident : bool;  (** result_digest equality against the bare fixpoint *)
}

(** Populate the incremental cache for a private copy of [name], apply
    [edit] to the copy, then race the non-incremental cache trajectory
    against the incremental re-analysis of the same edit. All sides are
    timed by {!min_time} — the pre-edit cache entry is restored (and
    the non-incremental cache cleared) before every run so each one
    replays the same edit. *)
let incr_measure ~dir ~name ~label ~edit =
  let source = Filename.concat dir (label ^ ".c") in
  write_file source (read_file (path name));
  let _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
  let entry_file =
    Persist.cache_file_incr ~cache_dir:dir ~source ~opts:Pointsto.Options.default
      ~entry:"main"
  in
  let entry_bytes = read_file entry_file in
  write_file source (edit (read_file source));
  let cold, t_nocache = min_time (fun () -> Analysis.of_file source) in
  let cold_dir = Filename.concat dir (label ^ ".cold") in
  let clear_cold () =
    if Sys.file_exists cold_dir then
      Array.iter
        (fun f -> Sys.remove (Filename.concat cold_dir f))
        (Sys.readdir cold_dir)
  in
  let _, t_cold =
    min_time ~prepare:clear_cold (fun () ->
        Persist.analyze_cached ~cache_dir:cold_dir source)
  in
  let (incr, _), t_incr =
    min_time
      ~prepare:(fun () -> write_file entry_file entry_bytes)
      (fun () -> Persist.analyze_cached ~cache_dir:dir ~incremental:true source)
  in
  let m = incr.Analysis.metrics in
  {
    ir_name = name;
    ir_edit = (if String.equal name label then "comment" else "kernel");
    ir_funcs = List.length incr.Analysis.prog.Ir.funcs;
    ir_dirty = m.Pointsto.Metrics.incr_funcs_dirty;
    ir_reused = m.Pointsto.Metrics.incr_funcs_reused;
    ir_t_cold = t_cold;
    ir_t_nocache = t_nocache;
    ir_t_incr = t_incr;
    ir_ident = String.equal (result_digest cold) (result_digest incr);
  }

let comment_edit src = src ^ "\n/* bench trailing edit */\n"

let kernel_edit src =
  replace_once ~sub:"double kern_a_5(void) { int i;"
    ~by:"double kern_a_5(void) { int i; int bench_probe; bench_probe = 0;" src

(** One row per suite program (trailing-comment edit: every function
    hash survives, only the fp-touching slice re-runs), plus a real
    one-kernel edit of livc. Gates: every row bit-identical, and the
    suite's incremental total beating the non-incremental cache total. *)
let incremental () =
  section "Incremental Re-analysis: hash the functions, replay the clean subtrees";
  Fmt.pr "%-12s %8s %6s %6s %7s %9s %9s %9s %9s %6s@." "benchmark" "edit" "funcs" "dirty"
    "reused" "cold ms" "fixp ms" "incr ms" "speedup" "ident";
  Fmt.pr "%s@." hr;
  let rows =
    with_temp_dir (fun dir ->
        List.map
          (fun name -> incr_measure ~dir ~name ~label:name ~edit:comment_edit)
          (Paper_data.names @ [ "livc" ])
        @ [ incr_measure ~dir ~name:"livc" ~label:"livc-kernel" ~edit:kernel_edit ])
  in
  List.iter
    (fun r ->
      Fmt.pr "%-12s %8s %6d %6d %7d %9.2f %9.2f %9.2f %8.1fx %6s@." r.ir_name r.ir_edit
        r.ir_funcs r.ir_dirty r.ir_reused r.ir_t_cold r.ir_t_nocache r.ir_t_incr
        (r.ir_t_cold /. r.ir_t_incr)
        (if r.ir_ident then "yes" else "NO"))
    rows;
  let t_cold = List.fold_left (fun a r -> a +. r.ir_t_cold) 0. rows in
  let t_nocache = List.fold_left (fun a r -> a +. r.ir_t_nocache) 0. rows in
  let t_incr = List.fold_left (fun a r -> a +. r.ir_t_incr) 0. rows in
  if List.exists (fun r -> not r.ir_ident) rows then
    failwith "incremental: a replayed run diverged from the cold fixpoint";
  Fmt.pr
    "@.suite totals: cold %.1f ms, incremental %.1f ms (%.1fx); bare fixpoint %.1f ms;@.\
     every row bit-identical@."
    t_cold t_incr (t_cold /. t_incr) t_nocache;
  Fmt.pr
    "(cold = the same edit through the non-incremental cache, i.e. full miss +@.\
     fixpoint + save — what --incremental replaces; fixp = bare Analysis.of_file@.\
     with no caching at all; incr = hash diff + rekey or dirty-slice re-run +@.\
     summary replay, including cache load and save; see docs/INCREMENTAL.md)@.";
  if t_incr >= t_cold then
    failwith "incremental: incremental re-analysis did not beat the non-incremental cache"

(* ------------------------------------------------------------------ *)
(* Serve: resident daemon throughput and latency                      *)
(* ------------------------------------------------------------------ *)

module Serve = Pointsto.Serve

let serve_corpus names =
  List.map
    (fun name ->
      let r = result name in
      Analysis.prime r;
      (name, r))
    names

let serve_handler corpus =
  let tbl = Hashtbl.create 32 in
  List.iter (fun (name, r) -> Hashtbl.replace tbl name r) corpus;
  {
    Serve.h_files = List.map fst corpus;
    Serve.h_answer =
      (fun ~file ~query ->
        match Hashtbl.find_opt tbl file with
        | None -> Serve.Ans_error ("unknown file '" ^ file ^ "'")
        | Some r -> (
            match Alias.Query.run r query with
            | Ok a ->
                if r.Analysis.degraded <> None then Serve.Ans_degraded a else Serve.Ans a
            | Error e -> Serve.Ans_error e));
    Serve.h_reload = None;
    Serve.h_paths = [];
  }

(** The daemon workload: every generated query of every corpus entry as
    a protocol line, paired with the reply a cold [Alias.Query.run]
    implies — the bit-identity oracle. *)
let serve_workload corpus =
  List.concat_map
    (fun (name, r) ->
      List.map
        (fun q ->
          let expect =
            match Alias.Query.run r q with Ok a -> "ok " ^ a | Error e -> "error " ^ e
          in
          ("q " ^ name ^ " " ^ q, expect))
        (gen_queries r))
    corpus

(** Run the daemon in-process over a pipe pair and push the lines of
    [workload] (line, expected reply) through it: a writer domain feeds
    the request pipe (so neither side can deadlock on a full pipe
    buffer) while this domain reads every reply. Fails on the first
    reply that differs from the expected one; returns the daemon's
    counters and the wall-clock milliseconds from first write to last
    reply. *)
let serve_round cfg handler workload =
  let req_r, req_w = Unix.pipe () in
  let rep_r, rep_w = Unix.pipe () in
  let daemon =
    Domain.spawn (fun () -> Serve.run cfg handler (Serve.Fds (req_r, rep_w)))
  in
  let payload = String.concat "" (List.map (fun (l, _) -> l ^ "\n") workload) in
  let t0 = Mono.now_s () in
  let writer =
    Domain.spawn (fun () ->
        let len = String.length payload in
        let rec go off =
          if off < len then go (off + Unix.write_substring req_w payload off (len - off))
        in
        go 0;
        Unix.close req_w)
  in
  let ic = Unix.in_channel_of_descr rep_r in
  let replies = List.map (fun _ -> input_line ic) workload in
  let t_ms = (Mono.now_s () -. t0) *. 1e3 in
  Domain.join writer;
  let stats = Domain.join daemon in
  List.iter Unix.close [ req_r; rep_w; rep_r ];
  List.iteri
    (fun i (got, (line, want)) ->
      if not (String.equal got want) then
        Fmt.failwith "serve: reply %d differs from cold query@.  line: %s@.  got:  %s@.  want: %s"
          i line got want)
    (List.combine replies workload);
  (stats, t_ms)

(** Synchronous round trips (one request in flight), for the latency
    distribution the batched throughput run cannot show. *)
let serve_round_trips handler line n =
  let req_r, req_w = Unix.pipe () in
  let rep_r, rep_w = Unix.pipe () in
  let daemon =
    Domain.spawn (fun () ->
        Serve.run Serve.default_config handler (Serve.Fds (req_r, rep_w)))
  in
  let ic = Unix.in_channel_of_descr rep_r in
  let payload = line ^ "\n" in
  let times =
    List.init n (fun _ ->
        let t0 = Mono.now_s () in
        let len = String.length payload in
        let rec go off =
          if off < len then go (off + Unix.write_substring req_w payload off (len - off))
        in
        go 0;
        ignore (input_line ic);
        (Mono.now_s () -. t0) *. 1e3)
  in
  Unix.close req_w;
  ignore (Domain.join daemon);
  List.iter Unix.close [ req_r; rep_w; rep_r ];
  List.sort compare times

let percentile sorted p =
  match sorted with
  | [] -> 0.
  | _ ->
      let n = List.length sorted in
      List.nth sorted (min (n - 1) (p * n / 100))

let serve_bench () =
  section "Serve: resident daemon (in-process pipes, generated query workload)";
  let corpus = serve_corpus (Paper_data.names @ [ "livc" ]) in
  let handler = serve_handler corpus in
  let workload = serve_workload corpus in
  (* repeat the workload so the wall is long enough to time honestly *)
  let target = 40_000 in
  let reps = max 1 ((target + List.length workload - 1) / List.length workload) in
  let big = List.concat (List.init reps (fun _ -> workload)) in
  (* direct dispatch first: the per-query cost floor the daemon's
     protocol and batching overhead is measured against *)
  let direct =
    List.concat
      (List.init reps (fun _ ->
           List.concat_map
             (fun (name, r) -> List.map (fun q -> (name, q)) (gen_queries r))
             corpus))
  in
  let (), t_direct =
    time (fun () ->
        List.iter (fun (file, query) -> ignore (handler.Serve.h_answer ~file ~query)) direct)
  in
  let jobs = min 4 (Domain.recommended_domain_count ()) in
  let cfg = { Serve.default_config with Serve.jobs; queue_max = 8192 } in
  let stats, t_ms = serve_round cfg handler big in
  let n = List.length big in
  let qps = float_of_int n /. t_ms *. 1e3 in
  Fmt.pr "corpus: %d files resident; workload: %d queries (%d distinct x %d)@."
    (List.length corpus) n (List.length workload) reps;
  Fmt.pr "direct dispatch (no daemon):   %d queries in %.1f ms = %.0f queries/s@."
    (List.length direct) t_direct
    (float_of_int (List.length direct) /. t_direct *. 1e3);
  Fmt.pr "batched throughput (-j %d): %d queries in %.1f ms = %.0f queries/s@." cfg.Serve.jobs
    n t_ms qps;
  Fmt.pr "daemon counters: %d requests, %d ok, %d error, %d shed, %d batches@."
    stats.Serve.s_requests stats.Serve.s_ok stats.Serve.s_errors stats.Serve.s_shed
    stats.Serve.s_batches;
  Fmt.pr "every reply bit-identical to a cold Alias.Query.run: yes@.";
  Fmt.pr "target: >= 100000 queries/s batched -- %s@."
    (if qps >= 1e5 then "met" else "MISSED");
  let times = serve_round_trips handler (fst (List.hd big)) 2000 in
  Fmt.pr "synchronous round trip (1 in flight): p50 %.3f ms, p99 %.3f ms@."
    (percentile times 50) (percentile times 99)

(* ------------------------------------------------------------------ *)
(* Demand: one query's slice vs the exhaustive fixpoint               *)
(* ------------------------------------------------------------------ *)

(** The seed standing in for "a query about one function": the defined
    non-entry function with the smallest slice under [d]'s plans (ties
    to program order) — the best case a single query can hit, which is
    exactly what the demand path exists for. Returns the seed and its
    slice size. *)
let cheapest_seed d (p : Ir.program) =
  let slice_of seed = Pointsto.Demand.slice_size (Alias.Demand_driver.plan_for d ~seed) in
  match
    List.fold_left
      (fun acc fn ->
        let n = fn.Ir.fn_name in
        if String.equal n "main" then acc
        else
          let size = slice_of n in
          match acc with Some (_, best) when best <= size -> acc | _ -> Some (n, size))
      None p.Ir.funcs
  with
  | Some seed -> seed
  | None -> ("main", slice_of "main")

(** The demand run's rows for [seed]'s body equal the exhaustive run's,
    bit for bit. *)
let seed_rows_identical ~exh ~dem seed =
  Ir.fold_func
    (fun ok s -> ok && Pts.equal (Analysis.pts_at exh s.Ir.s_id) (Analysis.pts_at dem s.Ir.s_id))
    true
    (Option.get (Ir.find_func dem.Analysis.prog seed))

type demand_row = {
  dm_name : string;
  dm_seed : string;  (** chosen query target: the cheapest-slice non-entry function *)
  dm_funcs : int;  (** defined functions in the program *)
  dm_slice : int;  (** functions the demand plan analyzes exactly *)
  dm_t_exh : float;  (** min-of-3 end-to-end exhaustive: parse + fixpoint, ms *)
  dm_t_demand : float;
      (** min-of-3 end-to-end demand: parse + Andersen prepare + plan +
          sliced fixpoint, ms *)
  dm_ident : bool;  (** seed rows bit-identical to the exhaustive run *)
}

(** One demand-vs-exhaustive row. Both sides are timed end to end from
    the source text (the demand side pays for parsing, the Andersen
    pre-pass and planning inside the measurement) by {!min_time}. *)
let demand_measure name =
  let source = path name in
  let p0 = Simple_ir.Simplify.of_file source in
  let seed, slice = cheapest_seed (Alias.Demand_driver.prepare p0) p0 in
  let exh, t_exh = min_time (fun () -> Analysis.analyze (Simple_ir.Simplify.of_file source)) in
  let dem, t_demand =
    min_time (fun () ->
        let d = Alias.Demand_driver.prepare (Simple_ir.Simplify.of_file source) in
        Alias.Demand_driver.analyze d ~seed)
  in
  {
    dm_name = name;
    dm_seed = seed;
    dm_funcs = List.length p0.Ir.funcs;
    dm_slice = slice;
    dm_t_exh = t_exh;
    dm_t_demand = t_demand;
    dm_ident = seed_rows_identical ~exh ~dem seed;
  }

(** Gates: every seed row bit-identical, and demand winning on at least
    14 of the 18 programs. *)
let demand () =
  section "Demand Queries: one seed's slice vs the exhaustive fixpoint (cold, end to end)";
  Fmt.pr "%-12s %-16s %6s %6s %9s %10s %9s %6s@." "benchmark" "seed" "funcs" "slice" "exh ms"
    "demand ms" "speedup" "ident";
  Fmt.pr "%s@." hr;
  let rows = List.map demand_measure (Paper_data.names @ [ "livc" ]) in
  List.iter
    (fun r ->
      Fmt.pr "%-12s %-16s %6d %6d %9.2f %10.2f %8.1fx %6s@." r.dm_name r.dm_seed r.dm_funcs
        r.dm_slice r.dm_t_exh r.dm_t_demand (r.dm_t_exh /. r.dm_t_demand)
        (if r.dm_ident then "yes" else "NO"))
    rows;
  let n = List.length rows in
  let wins = List.length (List.filter (fun r -> r.dm_t_demand < r.dm_t_exh) rows) in
  let t_exh = List.fold_left (fun a r -> a +. r.dm_t_exh) 0. rows in
  let t_demand = List.fold_left (fun a r -> a +. r.dm_t_demand) 0. rows in
  Fmt.pr "@.suite totals: exhaustive %.1f ms, demand %.1f ms (%.1fx); demand won on %d/%d@."
    t_exh t_demand (t_exh /. t_demand) wins n;
  Fmt.pr
    "(seed = the non-entry function with the smallest slice; exh = parse + full@.\
     fixpoint; demand = parse + Andersen prepare + slice plan + sliced fixpoint;@.\
     min of 3 runs each; see docs/DEMAND.md)@.";
  if List.exists (fun r -> not r.dm_ident) rows then
    failwith "demand: a demand run diverged from exhaustive on the seed rows";
  if wins < 14 then
    Fmt.failwith "demand: demand beat exhaustive cold on only %d/%d programs (need 14)" wins n

(* ------------------------------------------------------------------ *)
(* Scale corpus: generated big programs (Gen / ptan gen)              *)
(* ------------------------------------------------------------------ *)

(** The fixed bench corpus: 3 sizes x 2 shapes plus a third 10k-line
    member, reproduced from knobs alone — [Gen.program] is
    byte-deterministic, so nothing is checked in (docs/CORPUS.md).
    "web" is function-pointer heavy and shallow (every fourth call
    site goes through a table); "deep" is a direct-call DAG seven
    layers deep with heavier struct traffic; "knot" is shallow like
    web but trades fn-ptr density for triple the recursion rate — a
    distinct way to burn fixpoint fuel, added so the
    degradation-at-scale gate sees three distinct 10k-line members
    (deeper/denser knot variants blow past 160 s exhaustive on the CI
    budget; depth 4 keeps the member in web's cost band). The top size
    keeps the acceptance floor: at least one program of 10k+ lines. *)
let corpus_spec =
  let web size =
    ("web", { Gen.default with Gen.seed = 11; size; depth = 4; fnptr_density = 30 })
  in
  let deep size =
    ("deep", { Gen.default with Gen.seed = 23; size; depth = 7; fnptr_density = 0; structs = 50 })
  in
  let knot size =
    ("knot", { Gen.default with Gen.seed = 37; size; depth = 4; fnptr_density = 15; recursion = 30 })
  in
  List.concat_map (fun size -> [ web size; deep size ]) [ 1_000; 3_000 ]
  @ [ web 10_000; deep 10_000; knot 10_000 ]

let corpus_name (shape, (k : Gen.knobs)) = Fmt.str "%s-%d" shape k.Gen.size

(** Statically indirect call sites of a program (calls through a
    function-pointer reference). *)
let indirect_sites p =
  Ir.fold_program
    (fun n s ->
      match s.Ir.s_desc with Ir.Scall (_, Ir.Cindirect _, _) -> n + 1 | _ -> n)
    0 p

(** Degraded-run soundness for corpus members: pair containment modulo
    the §4.1 symbolic names. The generated programs store addresses of
    locals into globals across deep call webs, so their final tables
    keep entry-relative symbolic locations (1_gp0, 1_p, ...) — and the
    full-precision and widened runs legitimately resolve those names
    differently (one may record [gp3 -> lv] where the other keeps
    [gp3 -> 1_gp3], both denoting "gp3 still holds what it pointed to
    at entry"). The strict syntactic check {!pairs_superset} cannot
    hold there, on either side. The gate that is actually meaningful:
    every full-run pair with concrete (non-symbolic) endpoints must be
    present in the degraded run — either verbatim, or absorbed by a
    degraded pair of the same statement and source whose target is a
    symbolic name (the entry summary that covers it). Pairs with a
    symbolic endpoint are entry-relative and carry no cross-mode
    meaning, so they are not compared. The 18 paper benchmarks never
    leave residual symbolic names in their tables, which is why the
    strict gate suffices for them. *)
let corpus_superset ~(full : Analysis.result) ~(degraded : Analysis.result) =
  let deg = Hashtbl.create 4096 and deg_sym = Hashtbl.create 1024 in
  let add_deg sid s =
    Pts.iter
      (fun src dst _ ->
        Hashtbl.replace deg (sid, Loc.id src, Loc.id dst) ();
        if Loc.sym_depth dst > 0 then Hashtbl.replace deg_sym (sid, Loc.id src) ())
      s
  in
  Hashtbl.iter add_deg degraded.Analysis.stmt_pts;
  (match degraded.Analysis.entry_output with Some o -> add_deg (-1) o | None -> ());
  let ok = ref true in
  let check sid s =
    Pts.iter
      (fun src dst _ ->
        if
          Loc.sym_depth src = 0
          && Loc.sym_depth dst = 0
          && (not (Hashtbl.mem deg (sid, Loc.id src, Loc.id dst)))
          && not (Hashtbl.mem deg_sym (sid, Loc.id src))
        then ok := false)
      s
  in
  Hashtbl.iter check full.Analysis.stmt_pts;
  (match full.Analysis.entry_output with Some o -> check (-1) o | None -> ());
  !ok

type corpus_row = {
  cr_name : string;
  cr_lines : int;
  cr_funcs : int;
  cr_indirect : int;
  cr_t_exh : float;  (** exhaustive context-sensitive analysis, ms *)
  cr_t_demand : float;  (** demand run for the cheapest-slice seed, end to end, ms *)
  cr_slice : int;
  cr_t_budget : float;  (** fuel-1 budgeted run (degrades to the widened rerun), ms *)
  cr_tripped : bool;
  cr_superset : bool;  (** degraded pairs contain the exhaustive pairs *)
  cr_exh : Analysis.result;
  cr_prog : Ir.program;
}

(** Generate and measure one corpus program. Single-shot timings, not
    min-of-N: the big members cost tens of seconds, and the trajectory
    tracking cares about the shape of the curve, not microseconds.
    Hard gates here: regeneration is byte-identical, the demand seed
    rows match exhaustive, and the degraded run is a pair superset. *)
let corpus_measure (shape, (k : Gen.knobs)) =
  let name = corpus_name (shape, k) in
  let text = Gen.program k in
  if not (String.equal text (Gen.program k)) then
    Fmt.failwith "corpus: %s regeneration is not byte-identical" name;
  let p = Simple_ir.Simplify.of_string ~file:(name ^ ".c") text in
  let lines = String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 text in
  if k.Gen.size >= 10_000 && lines < 10_000 then
    Fmt.failwith "corpus: %s is under the 10k-line acceptance floor (%d)" name lines;
  let exh, t_exh = time (fun () -> Analysis.analyze p) in
  let seed_fn, slice = cheapest_seed (Alias.Demand_driver.prepare p) p in
  let dem, t_demand =
    time (fun () ->
        let d = Alias.Demand_driver.prepare p in
        Alias.Demand_driver.analyze d ~seed:seed_fn)
  in
  if not (seed_rows_identical ~exh ~dem seed_fn) then
    Fmt.failwith "corpus: %s demand run diverged from exhaustive on seed %s" name seed_fn;
  let deg, t_budget = time (fun () -> Analysis.analyze ~budget:degradation_budget p) in
  let tripped = deg.Analysis.degraded <> None in
  let superset = corpus_superset ~full:exh ~degraded:deg in
  if not superset then
    Fmt.failwith "corpus: %s degraded run lost points-to pairs (unsound widening)" name;
  (* degradation at scale: on the 10k-line members a fuel-tripped run
     must not cost more than the precise one — the checkpointed widened
     rerun (docs/ROBUSTNESS.md) seeds from the partial fixpoint, so
     degrading is a way to finish early, never a second full analysis *)
  if k.Gen.size >= 10_000 && tripped && t_budget > t_exh then
    Fmt.failwith
      "corpus: %s degraded run (%.1f ms) costs more than the precise one (%.1f ms)" name
      t_budget t_exh;
  {
    cr_name = name;
    cr_lines = lines;
    cr_funcs = List.length p.Ir.funcs;
    cr_indirect = indirect_sites p;
    cr_t_exh = t_exh;
    cr_t_demand = t_demand;
    cr_slice = slice;
    cr_t_budget = t_budget;
    cr_tripped = tripped;
    cr_superset = superset;
    cr_exh = exh;
    cr_prog = p;
  }

(** The exhaustive-vs-parallel leg over the whole corpus: one pool of
    [jobs] domains re-analyzes every member; every digest must equal
    the sequential run's. Returns (sequential ms, parallel ms). The
    sequential wall is the sum of the already-measured per-program
    exhaustive times — re-running it would double the most expensive
    leg for no information. *)
let corpus_parallel rows jobs =
  let parsed = List.map (fun r -> (r.cr_name, r.cr_prog)) rows in
  let par, t_par = suite_on_pool parsed jobs in
  List.iter2
    (fun r (_, rj) ->
      if not (String.equal (result_digest r.cr_exh) (result_digest rj)) then
        Fmt.failwith "corpus: %s differs between sequential and -j %d" r.cr_name jobs)
    rows par;
  let t_seq = List.fold_left (fun a r -> a +. r.cr_t_exh) 0. rows in
  (t_seq, t_par)

let corpus () =
  section "Scale Corpus (generated programs: exhaustive vs parallel vs demand vs budgeted)";
  let rows = List.map corpus_measure corpus_spec in
  Fmt.pr "%-11s %7s %6s %9s %10s %10s %7s %10s %6s %9s@." "program" "lines" "funcs"
    "indirect" "exh ms" "demand ms" "slice" "budget ms" "trip" "superset";
  Fmt.pr "%s@." hr;
  List.iter
    (fun r ->
      Fmt.pr "%-11s %7d %6d %9d %10.1f %10.1f %7d %10.1f %6s %9s@." r.cr_name r.cr_lines
        r.cr_funcs r.cr_indirect r.cr_t_exh r.cr_t_demand r.cr_slice r.cr_t_budget
        (if r.cr_tripped then "yes" else "-")
        (if r.cr_superset then "yes" else "NO"))
    rows;
  let jobs = Option.value ~default:4 (argv_jobs ()) in
  let t_seq, t_par = corpus_parallel rows jobs in
  Fmt.pr "@.parallel corpus: %.1f ms sequential vs %.1f ms on -j %d (%.2fx), bit-identical@."
    t_seq t_par jobs (t_seq /. t_par);
  Fmt.pr
    "(every member regenerates byte-identically from its seed; demand answers the@.\
     cheapest-slice seed bit-identically; fuel-1 degradation stays a pair superset)@."

(** CI smoke mode: parse, analyze and sanity-check two benchmarks (the
    smallest and the heaviest), then one pass over the gates that stay
    cheap on them. *)
let smoke () =
  Fmt.pr "smoke: analyzing stanford and livc@.";
  List.iter
    (fun name ->
      let r = result name in
      let g = Stats.general r in
      let m = r.Analysis.metrics in
      Fmt.pr "%-10s bodies %4d, pairs SS %4d SH %4d, merges %6d@." name
        m.Pointsto.Metrics.bodies g.Stats.stack_to_stack g.Stats.stack_to_heap
        m.Pointsto.Metrics.merges;
      if m.Pointsto.Metrics.bodies = 0 then failwith (name ^ ": no body passes recorded"))
    [ "stanford"; "livc" ];
  with_temp_dir (fun dir ->
      let source = path "stanford" in
      let cold, _ = Persist.analyze_cached ~cache_dir:dir source in
      let warm, hit = Persist.analyze_cached ~cache_dir:dir source in
      if not hit then failwith "persist: expected a warm cache hit";
      if not (String.equal (table345_rows cold) (table345_rows warm)) then
        failwith "persist: loaded result is not bit-identical";
      Fmt.pr "smoke: persisted stanford round trip ok@.");
  (* an edited source must replay bit-identically, not just cheaply *)
  with_temp_dir (fun dir ->
      List.iter
        (fun (label, edit) ->
          let row = incr_measure ~dir ~name:"livc" ~label ~edit in
          if not row.ir_ident then
            Fmt.failwith "smoke: incremental livc (%s edit) diverged from cold" row.ir_edit;
          if row.ir_reused = 0 then
            Fmt.failwith "smoke: incremental livc (%s edit) replayed nothing" row.ir_edit;
          Fmt.pr "smoke: incremental livc %s edit: %d dirty, %d replayed, bit-identical@."
            row.ir_edit row.ir_dirty row.ir_reused)
        [ ("livc", comment_edit); ("livc-kernel", kernel_edit) ]);
  (* drive the domain pool over the full suite and insist the parallel
     run reproduces the sequential one bit-for-bit *)
  let jobs = Option.value ~default:4 (argv_jobs ()) in
  let names = Paper_data.names @ [ "livc" ] in
  let parsed = List.map (fun name -> (name, prog name)) names in
  let seq, _ = suite_on_pool parsed 1 in
  let par, _ = suite_on_pool parsed jobs in
  List.iter2
    (fun (name, r1) (_, rj) ->
      if not (String.equal (result_digest r1) (result_digest rj)) then
        Fmt.failwith "smoke: %s differs between -j 1 and -j %d" name jobs)
    seq par;
  Fmt.pr "smoke: parallel suite (-j %d) identical to sequential on %d programs@." jobs
    (List.length names);
  (* budget exhaustion must degrade, not fail, and must stay sound *)
  let full = result "livc" in
  let deg = Analysis.analyze ~budget:degradation_budget (prog "livc") in
  (match deg.Analysis.degraded with
  | None -> failwith "smoke: livc did not trip under fuel 1"
  | Some d ->
      if not (pairs_superset ~full:(result_pairs full) ~degraded:(result_pairs deg)) then
        failwith "smoke: degraded livc tables lost points-to pairs";
      Fmt.pr "smoke: livc degraded soundly (%s)@."
        (Guard.reason_name d.Analysis.deg_trip.Guard.t_reason));
  (* the daemon must answer the generated workload bit-identically to
     cold queries, at daemon speed (lenient floor for loaded CI hosts) *)
  let corpus = serve_corpus [ "stanford"; "livc" ] in
  let handler = serve_handler corpus in
  let workload = serve_workload corpus in
  let cfg = { Serve.default_config with Serve.jobs; queue_max = 8192 } in
  let _, t_ms = serve_round cfg handler workload in
  let qps = float_of_int (List.length workload) /. t_ms *. 1e3 in
  Fmt.pr "smoke: serve answered %d queries bit-identically at %.0f queries/s@."
    (List.length workload) qps;
  if qps < 2e4 then Fmt.failwith "smoke: serve throughput %.0f below the 20000 q/s floor" qps;
  Fmt.pr "smoke: ok@."

(** The full run, in order; [bench SECTION...] runs the named ones. *)
let sections =
  [
    ("table2", table2);
    ("table3", table3);
    ("table4", table4);
    ("table5", table5);
    ("table6", table6);
    ("figure2", figure2);
    ("figures67", figures67);
    ("figures89", figures89);
    ("livc", livc_study);
    ("overall", overall);
    ("ablations", ablations);
    ("extensions", extensions);
    ("persistence", persistence);
    ("incremental", incremental);
    ("demand", demand);
    ("counters", counters);
    ("tracing", tracing);
    ("degradation", degradation);
    ("parallel", fun () ->
      parallel_suite (match argv_jobs () with Some n -> [ n ] | None -> [ 2; 4; 8 ]));
    ("serve", serve_bench);
    ("corpus", corpus);
  ]

let () =
  let rec names = function
    | "-j" :: _ :: rest | "--smoke" :: rest -> names rest
    | name :: rest -> name :: names rest
    | [] -> []
  in
  let names = names (List.tl (Array.to_list Sys.argv)) in
  match List.filter (fun n -> not (List.mem_assoc n sections)) names with
  | bad :: _ ->
      Fmt.epr "bench: unknown section %S; sections: %s@." bad
        (String.concat " " (List.map fst sections));
      exit 2
  | [] ->
      if Array.exists (String.equal "--smoke") Sys.argv then smoke ()
      else if names <> [] then List.iter (fun n -> (List.assoc n sections) ()) names
      else begin
        Fmt.pr "Reproduction harness: Emami, Ghiya & Hendren, PLDI 1994@.";
        Fmt.pr "\"Context-Sensitive Interprocedural Points-to Analysis in the Presence of@.";
        Fmt.pr "Function Pointers\" -- every table and figure of section 6.@.";
        List.iter (fun (_, run) -> run ()) sections;
        Fmt.pr "@.Done. See EXPERIMENTS.md for the paper-vs-measured discussion.@."
      end
