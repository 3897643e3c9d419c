(** Interprocedural analysis tests: mapping/unmapping across calls
    (§4.1), invisible variables and symbolic names, recursion fixed
    points (§4.2), context sensitivity, return values, and the examples
    worked in the paper. Queries on globals are made at exit of main;
    queries inside callees use probe calls. *)

open Test_util
module Ig = Pointsto.Invocation_graph

let mapping_tests =
  [
    case "formals inherit the actuals' relationships" (fun () ->
        check_exit "param in"
          {|int v; int *g;
            void callee(int *p) { g = p; }
            int main() { callee(&v); return 0; }|}
          "g" [ "v/D" ]);
    case "globals keep their relationships across calls" (fun () ->
        check_exit "global through"
          {|int v; int *g;
            void noop(void) { int local; local = 1; }
            int main() { g = &v; noop(); return 0; }|}
          "g" [ "v/D" ]);
    case "callee writes through a parameter update the caller local" (fun () ->
        check_exit "write through"
          {|int v;
            void set(int **pp) { *pp = &v; }
            int main() { int *p; set(&p); return 0; }|}
          "p" [ "v/D" ]);
    case "the paper's swap example" (fun () ->
        let src =
          {|int g1, g2;
            void swap(int **x, int **y) { int *tmp; tmp = *x; *x = *y; *y = tmp; }
            int main() { int *p, *q; p = &g1; q = &g2; swap(&p, &q); return 0; }|}
        in
        let res = analyze src in
        check_targets "p" [ "g2/D" ] (exit_targets res "p");
        check_targets "q" [ "g1/D" ] (exit_targets res "q"));
    case "two-level invisible chain through symbolic names" (fun () ->
        check_exit "2_x"
          {|int v;
            void set(int ***ppp) { **ppp = &v; }
            int main() { int *p; int **pp; pp = &p; set(&pp); return 0; }|}
          "p" [ "v/D" ]);
    case "symbolic names appear in the callee's view" (fun () ->
        let src =
          {|int v;
            void probe1(void);
            void cal(int **pp) { probe1(); *pp = &v; }
            int main() { int *p; cal(&p); return 0; }|}
        in
        let res = analyze src in
        check_targets "pp points to 1_pp" [ "1_pp/D" ]
          (probe_targets res ~fname:"cal" "probe1" "pp"));
    case "unreachable caller locals persist across the call" (fun () ->
        check_exit "untouched"
          {|int v, w;
            void other(int *a) { }
            int main() { int *p, *q; p = &v; q = &w; other(q); return 0; }|}
          "p" [ "v/D" ]);
    case "one symbolic name per invisible variable (shared target)" (fun () ->
        (* x and y definitely point to the same invisible b: the callee
           must see a single symbolic location for b so that a write
           through x is seen through y *)
        check_exit "aliased params"
          {|int v; int *res;
            void callee(int **x, int **y) { *x = &v; res = *y; }
            int main() { int *b; callee(&b, &b); return 0; }|}
          "res" [ "v/D" ]);
    case "a symbolic name can represent several invisibles" (fun () ->
        check_exit "merged invisibles"
          {|int v; int c;
            void callee(int **x) { *x = &v; }
            int main() { int *a, *b, **pp;
              if (c) pp = &a; else pp = &b;
              callee(pp);
              return 0; }|}
          "a" [ "v/P" ]);
    case "struct argument passed by value copies its pointer fields" (fun () ->
        check_exit "struct by value"
          {|int v; int *g;
            struct s { int n; int *p; };
            void callee(struct s arg) { g = arg.p; }
            int main() { struct s x; x.p = &v; callee(x); return 0; }|}
          "g" [ "v/D" ]);
    case "callee cannot affect the actual variable itself" (fun () ->
        check_exit "actual copied"
          {|int v, w;
            void callee(int *p) { p = &w; }
            int main() { int *q; q = &v; callee(q); return 0; }|}
          "q" [ "v/D" ]);
    case "escaping callee locals are dropped at unmap" (fun () ->
        check_exit "dangling"
          {|int *g;
            void bad(void) { int local; g = &local; }
            int main() { bad(); return 0; }|}
          "g" []);
    case "heap relationships survive the call boundary" (fun () ->
        check_exit "heap through"
          {|int *g;
            void fill(int **pp) { *pp = (int*)malloc(4); }
            int main() { int *p; fill(&p); return 0; }|}
          "p" [ "heap/P" ]);
  ]

let return_tests =
  [
    case "returned address binds the call result" (fun () ->
        check_exit "return &v"
          {|int v;
            int *get(void) { return &v; }
            int main() { int *p; p = get(); return 0; }|}
          "p" [ "v/D" ]);
    case "returned parameter propagates its targets" (fun () ->
        check_exit "identity function"
          {|int v;
            int *id(int *x) { return x; }
            int main() { int *p; p = id(&v); return 0; }|}
          "p" [ "v/D" ]);
    case "merging returns from two paths" (fun () ->
        check_exit "two returns"
          {|int v, w; int c;
            int *pick(void) { if (c) return &v; return &w; }
            int main() { int *p; p = pick(); return 0; }|}
          "p" [ "v/P"; "w/P" ]);
    case "malloc wrapper returns heap" (fun () ->
        check_exit "xmalloc"
          {|int *xmalloc(int n) { int *p; p = (int*)malloc(n); return p; }
            int main() { int *p; p = xmalloc(4); return 0; }|}
          "p" [ "heap/P" ]);
    case "external call result is conservative" (fun () ->
        (* an external with no library model keeps the coarse transfer *)
        check_exit "external"
          {|char *mystery(char *name);
            int main() { char *p; p = mystery("HOME"); return 0; }|}
          "p" [ "heap/P"; "str/P" ]);
    case "modeled external: getenv returns a new object" (fun () ->
        check_exit "getenv"
          {|char *getenv(char *name);
            int main() { char *p; p = getenv("HOME"); return 0; }|}
          "p" [ "heap/P" ]);
    case "modeled external: strcpy returns its first argument" (fun () ->
        check_exit "strcpy"
          {|char *strcpy(char *dst, char *src);
            int main() { char a; char *d; char *p;
                         d = &a; p = strcpy(d, "x"); return 0; }|}
          "p" [ "a/D" ]);
  ]

let context_tests =
  [
    case "contexts are kept separate (no cross-site pollution)" (fun () ->
        (* identity called with &v and &w: each call site only sees its
           own argument *)
        let src =
          {|int v, w;
            int *id(int *x) { return x; }
            int main() { int *p, *q; p = id(&v); q = id(&w); return 0; }|}
        in
        let res = analyze src in
        check_targets "p only v" [ "v/D" ] (exit_targets res "p");
        check_targets "q only w" [ "w/D" ] (exit_targets res "q"));
    case "same call site along two chains gets two contexts" (fun () ->
        let src =
          {|int v, w; int *g;
            void inner(int *x) { g = x; }
            void outer1(void) { inner(&v); }
            void outer2(void) { inner(&w); }
            int main() { outer1(); outer2(); return 0; }|}
        in
        let res = analyze src in
        (* four invocation contexts besides main *)
        Alcotest.(check int) "5 nodes" 5 (Ig.n_nodes res.Analysis.graph);
        (* the second call strongly updates g: the last write wins *)
        check_targets "g at exit" [ "w/D" ] (exit_targets res "g"));
    case "context-insensitive ablation merges call sites" (fun () ->
        let opts =
          { Pointsto.Options.default with Pointsto.Options.context_sensitive = false }
        in
        let src =
          {|int v, w;
            int *id(int *x) { return x; }
            int main() { int *p, *q; p = id(&v); q = id(&w); return 0; }|}
        in
        let res = analyze ~opts src in
        check_targets "p polluted" [ "v/P"; "w/P" ] (exit_targets res "p");
        check_targets "q polluted" [ "v/P"; "w/P" ] (exit_targets res "q"));
    case "memoization reuses stored IN/OUT for equal inputs" (fun () ->
        (* both calls have identical mapped inputs; the analysis must
           still produce correct (and equal) results *)
        let src =
          {|int v; int *g;
            void f(int *x) { g = x; }
            int main() { f(&v); f(&v); return 0; }|}
        in
        check_targets "g" [ "v/D" ] (exit_targets (analyze src) "g"));
  ]

let recursion_tests =
  [
    case "simple recursion reaches a safe fixed point" (fun () ->
        check_exit "countdown"
          {|int a, b; int *g;
            void rec(int n) { if (n > 0) { g = &a; rec(n - 1); } else { g = &b; } }
            int main() { rec(5); return 0; }|}
          "g" [ "b/D" ]);
    case "recursion merging both branches" (fun () ->
        check_exit "either"
          {|int a, b; int *g; int c;
            void rec(int n) {
              if (n > 0) { if (c) g = &a; rec(n - 1); }
              else { if (c) g = &b; }
            }
            int main() { g = &a; rec(3); return 0; }|}
          "g" [ "a/P"; "b/P" ]);
    case "mutual recursion through approximate nodes" (fun () ->
        let src =
          {|int a, b; int *g;
            void even(int n);
            void odd(int n);
            void even(int n) { if (n) { odd(n - 1); } else { g = &a; } }
            void odd(int n) { if (n) { even(n - 1); } else { g = &b; } }
            int main() { even(4); return 0; }|}
        in
        let res = analyze src in
        check_targets "g" [ "a/P"; "b/P" ] (exit_targets res "g");
        Alcotest.(check bool) "has recursive node" true (Ig.n_recursive res.Analysis.graph >= 1);
        Alcotest.(check bool) "has approximate node" true
          (Ig.n_approximate res.Analysis.graph >= 1));
    case "recursive list walk over the heap" (fun () ->
        check_exit "list walk"
          {|struct n { struct n *next; };
            struct n *walk(struct n *p) { if (p != 0) return walk(p->next); return p; }
            int main() { struct n *h, *t;
              h = (struct n*)malloc(8); h->next = 0;
              t = walk(h);
              return 0; }|}
          "t" [ "heap/P" ]);
    case "recursion through a parameter pointer chain" (fun () ->
        check_exit "grow"
          {|int v; int *g;
            void rec(int **pp, int n) {
              if (n == 0) { *pp = &v; g = *pp; }
              else rec(pp, n - 1);
            }
            int main() { int *p; rec(&p, 3); return 0; }|}
          "p" [ "v/D" ]);
    case "recursion fixed point generalizes the input" (fun () ->
        (* the recursive call's input grows (p points deeper into the
           chain); pending-list restarts must converge *)
        check_exit "input generalization"
          {|struct n { struct n *next; };
            struct n x, y, z;
            struct n *last;
            void follow(struct n *p) {
              if (p->next != 0) follow(p->next);
              else last = p;
            }
            int main() { x.next = &y; y.next = &z; z.next = 0; follow(&x); return 0; }|}
          "last" [ "x/P"; "y/P"; "z/P" ]);
  ]

let fnptr_tests =
  [
    case "the paper's Figure 6 program" (fun () ->
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
        let res = analyze src in
        (* Point A: (fp,foo,P) (fp,bar,P) *)
        check_targets "A: fp" [ "fn:bar/P"; "fn:foo/P" ] (probe_targets res "probeA" "fp");
        check_targets "A: pc" [ "c/D" ] (probe_targets res "probeA" "pc");
        (* Point B: pa and pb possible *)
        check_targets "B: pa" [ "a/P" ] (probe_targets res "probeB" "pa");
        check_targets "B: pb" [ "b/P" ] (probe_targets res "probeB" "pb");
        (* Point C: fp definitely foo, pa definite *)
        check_targets "C: fp" [ "fn:foo/D" ] (probe_targets res ~fname:"foo" "probeC" "fp");
        check_targets "C: pa" [ "a/D" ] (probe_targets res ~fname:"foo" "probeC" "pa");
        (* Point D: fp definitely bar, pb definite *)
        check_targets "D: fp" [ "fn:bar/D" ] (probe_targets res ~fname:"bar" "probeD" "fp");
        check_targets "D: pb" [ "b/D" ] (probe_targets res ~fname:"bar" "probeD" "pb");
        (* Figure 7(c): foo's re-invocation through fp is recursive *)
        Alcotest.(check bool) "recursive node" true (Ig.n_recursive res.Analysis.graph >= 1));
    case "function pointer call through an array element" (fun () ->
        check_exit "table dispatch"
          {|int a, b; int *g;
            void fa(void) { g = &a; }
            void fb(void) { g = &b; }
            void (*tab[2])(void);
            int main(int argc, char **argv) {
              tab[0] = fa; tab[1] = fb;
              tab[argc]();
              return 0; }|}
          "g" [ "a/P"; "b/P" ]);
    case "function pointer in a struct field" (fun () ->
        check_exit "handler field"
          {|int v; int *g;
            struct ops { void (*handler)(void); };
            void h(void) { g = &v; }
            struct ops o;
            int main() { o.handler = h; o.handler(); return 0; }|}
          "g" [ "v/D" ]);
    case "multi-level function pointer" (fun () ->
        check_exit "pfp"
          {|int v; int *g;
            void h(void) { g = &v; }
            int main() { void (*fp)(void); void (**pfp)(void);
              fp = h; pfp = &fp;
              (*pfp)();
              return 0; }|}
          "g" [ "v/D" ]);
    case "function pointer passed as a parameter" (fun () ->
        check_exit "callback"
          {|int v; int *g;
            void h(void) { g = &v; }
            void apply(void (*cb)(void)) { cb(); }
            int main() { apply(h); return 0; }|}
          "g" [ "v/D" ]);
    case "function pointer returned from a function" (fun () ->
        check_exit "factory"
          {|int v; int *g;
            void h(void) { g = &v; }
            void (*get(void))(void) { return h; }
            int main() { void (*fp)(void); fp = get(); fp(); return 0; }|}
          "g" [ "v/D" ]);
    case "(*fp)() is the same as fp()" (fun () ->
        check_exit "deref call"
          {|int v; int *g;
            void h(void) { g = &v; }
            int main() { void (*fp)(void); fp = h; (*fp)(); return 0; }|}
          "g" [ "v/D" ]);
    case "indirect call with no targets warns and continues" (fun () ->
        let res =
          analyze
            {|int main() { void (*fp)(void); fp = 0; if (0) fp(); return 0; }|}
        in
        Alcotest.(check bool) "warned" true (res.Analysis.warnings <> []));
    case "each target analyzed with fp definitely bound (paper §5)" (fun () ->
        (* inside foo, a second call through fp must go to foo only *)
        let src =
          {|int *g; int a, b; int c;
            void probe1(void);
            int foo() { probe1(); return 0; }
            int bar() { g = &b; return 0; }
            int (*fp)();
            int main() { if (c) fp = foo; else fp = bar; fp(); return 0; }|}
        in
        let res = analyze src in
        check_targets "inside foo, fp -> foo only" [ "fn:foo/D" ]
          (probe_targets res ~fname:"foo" "probe1" "fp"));
  ]

let ig_tests =
  [
    case "invocation graph distinguishes call chains (Figure 2a)" (fun () ->
        let src =
          {|void f(void) { }
            void g(void) { f(); }
            int main() { g(); g(); f(); return 0; }|}
        in
        let res = analyze src in
        (* main -> g -> f, main -> g -> f, main -> f: 6 nodes *)
        Alcotest.(check int) "nodes" 6 (Ig.n_nodes res.Analysis.graph));
    case "recursive program graph (Figure 2b)" (fun () ->
        let src = {|void f(int n) { if (n) f(n - 1); } int main() { f(3); return 0; }|} in
        let res = analyze src in
        Alcotest.(check int) "nodes" 3 (Ig.n_nodes res.Analysis.graph);
        Alcotest.(check int) "recursive" 1 (Ig.n_recursive res.Analysis.graph);
        Alcotest.(check int) "approximate" 1 (Ig.n_approximate res.Analysis.graph));
    case "external calls contribute no nodes" (fun () ->
        let src = {|int printf(char *fmt, ...); int main() { printf("x"); return 0; }|} in
        let res = analyze src in
        Alcotest.(check int) "just main" 1 (Ig.n_nodes res.Analysis.graph));
    case "map info is deposited in the nodes" (fun () ->
        let src =
          {|int v;
            void callee(int **pp) { *pp = &v; }
            int main() { int *p; callee(&p); return 0; }|}
        in
        let res = analyze src in
        let has_info =
          Ig.fold (fun acc n -> acc || n.Ig.map_info <> []) false res.Analysis.graph
        in
        Alcotest.(check bool) "recorded" true has_info);
  ]

let arity_tests =
  [
    case "a call with too few arguments binds the missing formal to NULL" (fun () ->
        (* C89: an unprototyped declaration lets the call pass fewer
           actuals than the definition has formals *)
        let src =
          {|int *f(); int x; int *r;
            int main() { r = f(&x); return 0; }
            int *f(int *a, int *b) { probe1(); return a; }|}
        in
        let prog = simplify src in
        let res = Analysis.analyze prog in
        check_targets "r" [ "x/D" ] (exit_targets res "r");
        let f = Option.get (Ir.find_func prog "f") in
        let b = Option.get (Pointsto.Tenv.base_loc res.Analysis.tenv f "b") in
        Alcotest.(check (list string))
          "b" [ "NULL/D" ]
          (List.map show_pair (Pts.targets b (Analysis.pts_at res (probe_stmt res "probe1"))));
        (* the demand run answers each function's rows identically *)
        let d = Alias.Demand_driver.prepare prog in
        List.iter
          (fun (fn : Ir.func) ->
            let dem = Alias.Demand_driver.analyze d ~seed:fn.Ir.fn_name in
            Ir.fold_func
              (fun () st ->
                Alcotest.(check string)
                  (Fmt.str "demand row s%d" st.Ir.s_id)
                  (Pts.to_string (Analysis.pts_at res st.Ir.s_id))
                  (Pts.to_string (Analysis.pts_at dem st.Ir.s_id)))
              () fn)
          prog.Ir.funcs);
  ]

let suite =
  ( "interproc",
    mapping_tests @ return_tests @ context_tests @ recursion_tests @ fnptr_tests @ ig_tests
    @ arity_tests )
