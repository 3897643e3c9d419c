(** Tests for the extension features (the paper's stated future work,
    DESIGN.md): §6 sub-tree sharing, allocation-site heap naming with
    connection analysis, interprocedural constant propagation on top of
    the deposited map information, and may-alias queries. *)

open Test_util
module C = Heap_analysis.Connection
module CP = Constprop
module Q = Alias.Queries

let share_opts = { Pointsto.Options.default with Pointsto.Options.share_contexts = true }

(* sharing is on by default, so the no-sharing baseline is the explicit one *)
let no_share_opts =
  { Pointsto.Options.default with Pointsto.Options.share_contexts = false }

let sharing_tests =
  [
    case "sharing reuses identical inputs across contexts" (fun () ->
        (* look() does not change the points-to state, so the two contexts
           map identical inputs and the second reuses the first *)
        let src =
          {|int g1; int *gp;
            void look(void) { int *t; t = gp; }
            void a(void) { look(); }
            void b(void) { look(); }
            int main() { gp = &g1; a(); b(); return 0; }|}
        in
        let off = analyze ~opts:no_share_opts src in
        let on = analyze ~opts:share_opts src in
        let m (r : Analysis.result) = r.Analysis.metrics in
        Alcotest.(check bool) "hits occurred" true ((m on).Pointsto.Metrics.memo_hits > 0);
        Alcotest.(check bool) "fewer body passes" true
          ((m on).Pointsto.Metrics.bodies < (m off).Pointsto.Metrics.bodies);
        Alcotest.(check bool) "identical result" true
          (Pts.state_equal off.Analysis.entry_output on.Analysis.entry_output));
    case "sharing does not conflate different inputs" (fun () ->
        let src =
          {|int v, w;
            int *id(int *x) { return x; }
            int main() { int *p, *q; p = id(&v); q = id(&w); return 0; }|}
        in
        let res = analyze ~opts:share_opts src in
        check_targets "p" [ "v/D" ] (exit_targets res "p");
        check_targets "q" [ "w/D" ] (exit_targets res "q");
        Alcotest.(check int)
          "no spurious hits" 0 res.Analysis.metrics.Pointsto.Metrics.memo_hits);
    case "whole benchmark agrees under sharing" (fun () ->
        let p = Simple_ir.Simplify.of_file "../benchmarks/config.c" in
        let off = Analysis.analyze ~opts:no_share_opts p in
        let on = Analysis.analyze ~opts:share_opts p in
        Alcotest.(check bool) "same output" true
          (Pts.state_equal off.Analysis.entry_output on.Analysis.entry_output);
        Alcotest.(check bool) "saves work" true
          (on.Analysis.metrics.Pointsto.Metrics.bodies
          < off.Analysis.metrics.Pointsto.Metrics.bodies));
  ]

let heap_tests =
  [
    case "allocation sites get distinct names" (fun () ->
        let res =
          analyze ~opts:C.options
            {|int main() { int *p, *q; p = (int*)malloc(4); q = (int*)malloc(4); return 0; }|}
        in
        let tp = exit_targets res "p" in
        let tq = exit_targets res "q" in
        Alcotest.(check bool) "different sites" true (tp <> tq);
        Alcotest.(check bool) "site names" true
          (List.for_all
             (fun s -> String.length s > 5 && String.sub s 0 5 = "heap@")
             (tp @ tq)));
    case "two separately-built lists are provably disjoint" (fun () ->
        let src =
          {|struct n { struct n *next; };
            struct n *la, *lb;
            int main() {
              la = (struct n*)malloc(8); la->next = 0;
              lb = (struct n*)malloc(8); lb->next = 0;
              return 0; }|}
        in
        let res = analyze ~opts:C.options src in
        match res.Analysis.entry_output with
        | None -> Alcotest.fail "no exit"
        | Some s ->
            let la = Loc.Var ("la", Loc.Kglobal) in
            let lb = Loc.Var ("lb", Loc.Kglobal) in
            Alcotest.(check bool) "disjoint" false (C.connected s la lb));
    case "linked lists sharing structure are connected" (fun () ->
        let src =
          {|struct n { struct n *next; };
            struct n *la, *lb;
            int main() {
              la = (struct n*)malloc(8);
              lb = (struct n*)malloc(8);
              lb->next = la;    /* lb reaches la's cell */
              la->next = 0;
              return 0; }|}
        in
        let res = analyze ~opts:C.options src in
        match res.Analysis.entry_output with
        | None -> Alcotest.fail "no exit"
        | Some s ->
            let la = Loc.Var ("la", Loc.Kglobal) in
            let lb = Loc.Var ("lb", Loc.Kglobal) in
            Alcotest.(check bool) "connected" true (C.connected s la lb));
    case "same allocation site conservatively connects" (fun () ->
        (* both lists are built by the same constructor: site naming is
           context-insensitive, so they are (conservatively) connected *)
        let src =
          {|struct n { struct n *next; };
            struct n *mk(void) { return (struct n*)malloc(8); }
            struct n *la, *lb;
            int main() { la = mk(); lb = mk(); return 0; }|}
        in
        let res = analyze ~opts:C.options src in
        match res.Analysis.entry_output with
        | None -> Alcotest.fail "no exit"
        | Some s ->
            Alcotest.(check bool) "connected" true
              (C.connected s (Loc.Var ("la", Loc.Kglobal)) (Loc.Var ("lb", Loc.Kglobal))));
    case "partition groups pointers by structure" (fun () ->
        let src =
          {|struct n { struct n *next; };
            struct n *a1, *a2, *b1;
            int main() {
              a1 = (struct n*)malloc(8);
              a2 = a1;
              b1 = (struct n*)malloc(8);
              return 0; }|}
        in
        let res = analyze ~opts:C.options src in
        match res.Analysis.entry_output with
        | None -> Alcotest.fail "no exit"
        | Some s ->
            let groups =
              C.partition s
                [
                  Loc.Var ("a1", Loc.Kglobal);
                  Loc.Var ("a2", Loc.Kglobal);
                  Loc.Var ("b1", Loc.Kglobal);
                ]
            in
            Alcotest.(check int) "two groups" 2 (List.length groups));
    case "sites survive the call boundary" (fun () ->
        let src =
          {|int *g;
            void fill(int **pp) { *pp = (int*)malloc(4); }
            int main() { int *p; fill(&p); g = p; return 0; }|}
        in
        let res = analyze ~opts:C.options src in
        let tp = exit_targets res "p" in
        Alcotest.(check bool) "site name through unmap" true
          (List.exists (fun s -> String.length s > 5 && String.sub s 0 5 = "heap@") tp));
    case "summary counts are consistent" (fun () ->
        let res = Analysis.of_file ~opts:C.options "../benchmarks/xref.c" in
        let sum = C.summarize res in
        Alcotest.(check bool) "sites found" true (sum.C.n_sites >= 3);
        Alcotest.(check bool) "pairs bound disjoint" true (sum.C.n_disjoint <= sum.C.n_pairs));
  ]

let constprop_tests =
  [
    case "locals and globals propagate" (fun () ->
        let src =
          {|int g;
            void probe1(void);
            int main() { int a; a = 6; g = a * 7; probe1(); return g; }|}
        in
        let res = analyze src in
        let cp = CP.run res in
        let sid = probe_stmt res "probe1" in
        Alcotest.(check (option int64)) "a = 6" (Some 6L)
          (CP.const_at cp sid (Loc.Var ("a", Loc.Klocal)));
        Alcotest.(check (option int64)) "g = 42" (Some 42L)
          (CP.const_at cp sid (Loc.Var ("g", Loc.Kglobal))));
    case "constants flow through calls and returns" (fun () ->
        let src =
          {|void probe1(void);
            int twice(int x) { return x * 2; }
            int main() { int a; a = twice(21); probe1(); return a; }|}
        in
        let res = analyze src in
        let cp = CP.run res in
        let sid = probe_stmt res "probe1" in
        Alcotest.(check (option int64)) "a = 42" (Some 42L)
          (CP.const_at cp sid (Loc.Var ("a", Loc.Klocal))));
    case "writes through pointers use the points-to results" (fun () ->
        let src =
          {|void probe1(void);
            void set(int *p, int v) { *p = v; }
            int main() { int b; set(&b, 5); probe1(); return b; }|}
        in
        let res = analyze src in
        let cp = CP.run res in
        let sid = probe_stmt res "probe1" in
        Alcotest.(check (option int64)) "b = 5 via callee store" (Some 5L)
          (CP.const_at cp sid (Loc.Var ("b", Loc.Klocal))));
    case "merge of different constants loses the value" (fun () ->
        let src =
          {|int c;
            void probe1(void);
            int main() { int a; if (c) a = 1; else a = 2; probe1(); return a; }|}
        in
        let res = analyze src in
        let cp = CP.run res in
        let sid = probe_stmt res "probe1" in
        Alcotest.(check (option int64)) "a unknown" None
          (CP.const_at cp sid (Loc.Var ("a", Loc.Klocal))));
    case "weak pointer writes only weaken" (fun () ->
        let src =
          {|int c;
            void probe1(void);
            int main() { int a, b; int *p;
              a = 1; b = 1;
              if (c) p = &a; else p = &b;
              *p = 9;
              probe1();
              return a; }|}
        in
        let res = analyze src in
        let cp = CP.run res in
        let sid = probe_stmt res "probe1" in
        (* a is 1 or 9: unknown; must NOT be reported as constant *)
        Alcotest.(check (option int64)) "a unknown after weak write" None
          (CP.const_at cp sid (Loc.Var ("a", Loc.Klocal))));
    case "context sensitivity keeps call sites apart" (fun () ->
        let src =
          {|void probe1(void);
            int id(int x) { return x; }
            int main() { int a, b; a = id(1); b = id(2); probe1(); return a + b; }|}
        in
        let res = analyze src in
        let cp = CP.run res in
        let sid = probe_stmt res "probe1" in
        Alcotest.(check (option int64)) "a = 1" (Some 1L)
          (CP.const_at cp sid (Loc.Var ("a", Loc.Klocal)));
        Alcotest.(check (option int64)) "b = 2" (Some 2L)
          (CP.const_at cp sid (Loc.Var ("b", Loc.Klocal))));
    case "recursion is handled conservatively" (fun () ->
        let src =
          {|int g;
            void probe1(void);
            void rec(int n) { g = n; if (n) rec(n - 1); }
            int main() { rec(3); probe1(); return g; }|}
        in
        let res = analyze src in
        let cp = CP.run res in
        let sid = probe_stmt res "probe1" in
        Alcotest.(check (option int64)) "g unknown" None
          (CP.const_at cp sid (Loc.Var ("g", Loc.Kglobal))));
    case "external calls invalidate reachable cells" (fun () ->
        let src =
          {|void scramble(int *p);
            void probe1(void);
            int main() { int a; a = 4; scramble(&a); probe1(); return a; }|}
        in
        let res = analyze src in
        let cp = CP.run res in
        let sid = probe_stmt res "probe1" in
        Alcotest.(check (option int64)) "a unknown" None
          (CP.const_at cp sid (Loc.Var ("a", Loc.Klocal))));
    case "fold sites report constant operand reads" (fun () ->
        let src = {|int main() { int a, b; a = 2; b = a + 3; return b; }|} in
        let res = analyze src in
        let cp = CP.run res in
        Alcotest.(check bool) "found" true (List.length (CP.fold_sites cp) >= 1));
  ]

let alias_query_tests =
  [
    case "distinct targets: no alias" (fun () ->
        let src =
          {|int v, w;
            void probe1(void);
            int main() { int *p, *q; p = &v; q = &w; probe1(); return 0; }|}
        in
        let res = analyze src in
        let fn = Option.get (Ir.find_func res.Analysis.prog "main") in
        let sid = probe_stmt res "probe1" in
        Alcotest.(check string) "no alias" "no-alias"
          (Q.verdict_to_string (Q.derefs_alias res fn sid "p" "q")));
    case "same definite target: must alias" (fun () ->
        let src =
          {|int v;
            void probe1(void);
            int main() { int *p, *q; p = &v; q = p; probe1(); return 0; }|}
        in
        let res = analyze src in
        let fn = Option.get (Ir.find_func res.Analysis.prog "main") in
        let sid = probe_stmt res "probe1" in
        Alcotest.(check string) "must alias" "must-alias"
          (Q.verdict_to_string (Q.derefs_alias res fn sid "p" "q")));
    case "overlapping possibilities: may alias" (fun () ->
        let src =
          {|int v, w; int c;
            void probe1(void);
            int main() { int *p, *q; p = &v; if (c) q = &v; else q = &w;
              probe1(); return 0; }|}
        in
        let res = analyze src in
        let fn = Option.get (Ir.find_func res.Analysis.prog "main") in
        let sid = probe_stmt res "probe1" in
        Alcotest.(check string) "may alias" "may-alias"
          (Q.verdict_to_string (Q.derefs_alias res fn sid "p" "q")));
    case "array head and unknown index may alias" (fun () ->
        let src =
          {|int arr[8];
            void probe1(void);
            int main(int argc, char **argv) { int *p, *q;
              p = &arr[0]; q = &arr[argc];
              probe1(); return 0; }|}
        in
        let res = analyze src in
        let fn = Option.get (Ir.find_func res.Analysis.prog "main") in
        let sid = probe_stmt res "probe1" in
        Alcotest.(check string) "may alias" "may-alias"
          (Q.verdict_to_string (Q.derefs_alias res fn sid "p" "q")));
    case "array head and tail do not alias" (fun () ->
        let src =
          {|int arr[8];
            void probe1(void);
            int main() { int *p, *q; p = &arr[0]; q = &arr[3];
              probe1(); return 0; }|}
        in
        let res = analyze src in
        let fn = Option.get (Ir.find_func res.Analysis.prog "main") in
        let sid = probe_stmt res "probe1" in
        Alcotest.(check string) "no alias" "no-alias"
          (Q.verdict_to_string (Q.derefs_alias res fn sid "p" "q")));
    case "non-singular target is never a must alias" (fun () ->
        let src =
          {|void probe1(void);
            int main() { int *p, *q; p = (int*)malloc(4); q = p; probe1(); return 0; }|}
        in
        let res = analyze src in
        let fn = Option.get (Ir.find_func res.Analysis.prog "main") in
        let sid = probe_stmt res "probe1" in
        Alcotest.(check string) "may, not must" "may-alias"
          (Q.verdict_to_string (Q.derefs_alias res fn sid "p" "q")));
    case "exhaustive pair table is computable" (fun () ->
        let src =
          {|int v; int main() { int *p, *q; p = &v; q = p; *p = 1; *q = 2; return 0; }|}
        in
        let res = analyze src in
        let fn = Option.get (Ir.find_func res.Analysis.prog "main") in
        Alcotest.(check bool) "non-empty" true (Q.deref_alias_pairs res fn <> []));
  ]

let suite =
  ("extensions", sharing_tests @ heap_tests @ constprop_tests @ alias_query_tests)
