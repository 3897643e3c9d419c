(** Tests for the alias-pair derivation (Figures 8 and 9 of the paper)
    and the flow-insensitive baseline analyses. *)

open Test_util
module Pairs = Alias.Pairs
module Cells = Alias.Cells

let pair_strings pairs =
  sorted_strings (List.map (fun p -> Fmt.str "%a" Pairs.pp_pair p) pairs)

let exit_pairs src =
  let res = analyze src in
  match res.Analysis.entry_output with
  | Some s ->
      let s = Pts.filter (fun _ t _ -> not (Loc.is_null t)) s in
      Pairs.of_pts s
  | None -> Alcotest.fail "no exit"

let pairs_tests =
  [
    case "Figure 8: points-to pairs avoid the spurious (**x,z)" (fun () ->
        (* after S3 (y = &w) the points-to set is x->y and y->w, both
           definite; the derived aliases must include the deref pairs of
           x and y with their targets, and must NOT include the stale
           deep alias of x's double deref with z that the Landi/Ryder
           representation reports *)
        let src =
          {|int main() {
              int **x, *y, z, w;
              x = &y;
              y = &z;
              y = &w;
              return 0;
            }|}
        in
        let strs = pair_strings (exit_pairs src) in
        let has s = List.exists (String.equal s) strs in
        Alcotest.(check bool) "(*x,y)" true (has "<*x,y>" || has "<y,*x>");
        Alcotest.(check bool) "(*y,w)" true (has "<*y,w>" || has "<w,*y>");
        Alcotest.(check bool) "no (**x,z)" false
          (has "<**x,z>" || has "<z,**x>"));
    case "Figure 9: the closure introduces the spurious deep alias" (fun () ->
        (* with pairs a->b possible and b->c possible, the transitive
           closure derives the spurious deep alias of a's double deref
           with c, exactly as the paper discusses *)
        let src =
          {|int main() {
              int **a, *b, c;
              int cond;
              if (cond) a = &b; else b = &c;
              return 0;
            }|}
        in
        let strs = pair_strings (exit_pairs src) in
        let has s = List.exists (String.equal s) strs in
        Alcotest.(check bool) "(*a,b)" true (has "<*a,b>" || has "<b,*a>");
        Alcotest.(check bool) "(*b,c)" true (has "<*b,c>" || has "<c,*b>");
        Alcotest.(check bool) "(**a,c) spurious but derived" true
          (has "<**a,c>" || has "<c,**a>"));
    case "no aliases from an empty set" (fun () ->
        Alcotest.(check int) "empty" 0 (List.length (Pairs.of_pts Pts.empty)));
    case "two pointers to the same location alias" (fun () ->
        let src = "int v; int main() { int *p, *q; p = &v; q = &v; return 0; }" in
        let strs = pair_strings (exit_pairs src) in
        Alcotest.(check bool) "(*p,*q)" true
          (List.exists (String.equal "<*p,*q>") strs
          || List.exists (String.equal "<*q,*p>") strs));
    case "derefs bounded by max_derefs" (fun () ->
        let v n = Loc.Var (n, Loc.Klocal) in
        let s =
          Pts.of_list
            [ (v "a", v "b", Pts.D); (v "b", v "c", Pts.D); (v "c", v "d", Pts.D) ]
        in
        let pairs = Pairs.of_pts ~max_derefs:1 s in
        Alcotest.(check bool) "no double deref"
          true
          (List.for_all
             (fun ((p : Pairs.path), (q : Pairs.path)) ->
               p.Pairs.derefs <= 1 && q.Pairs.derefs <= 1)
             pairs));
  ]

(* ------------------------------------------------------------------ *)
(* Baselines                                                          *)
(* ------------------------------------------------------------------ *)

let steensgaard_targets src var =
  let p = simplify src in
  let r = Alias.Steensgaard.run p in
  sorted_strings (List.map Cells.node_name (Alias.Steensgaard.targets r (Cells.Nvar var)))

let andersen_targets src var =
  let p = simplify src in
  let r = Alias.Andersen.run p in
  sorted_strings (List.map Cells.node_name (Alias.Andersen.targets r (Cells.Nvar var)))

let baseline_tests =
  [
    case "Andersen: basic address-of" (fun () ->
        let tgts = andersen_targets "int v; int *p; int main() { p = &v; return 0; }" "p" in
        Alcotest.(check (list string)) "p -> v" [ "v" ] tgts);
    case "Andersen: copy unions target sets" (fun () ->
        let tgts =
          andersen_targets
            "int v, w; int *p, *q; int c; int main() { p = &v; q = &w; if (c) p = q; return 0; }"
            "p"
        in
        Alcotest.(check (list string)) "p -> v,w" [ "v"; "w" ] tgts);
    case "Andersen: store and load through double pointer" (fun () ->
        let tgts =
          andersen_targets
            "int v; int *p, *q; int **x; int main() { x = &p; *x = &v; q = *x; return 0; }"
            "q"
        in
        Alcotest.(check (list string)) "q -> v" [ "v" ] tgts);
    case "Andersen is directional (subset, not unification)" (fun () ->
        let src =
          "int v, w; int *p, *q; int main() { p = &v; q = &w; p = q; return 0; }"
        in
        Alcotest.(check (list string)) "p gets both" [ "v"; "w" ] (andersen_targets src "p");
        Alcotest.(check (list string)) "q unpolluted" [ "w" ] (andersen_targets src "q"));
    case "Steensgaard unifies both directions" (fun () ->
        let src =
          "int v, w; int *p, *q; int main() { p = &v; q = &w; p = q; return 0; }"
        in
        let tq = steensgaard_targets src "q" in
        Alcotest.(check bool) "q polluted too" true
          (List.mem "v" tq && List.mem "w" tq));
    case "Andersen: interprocedural copy through parameters" (fun () ->
        let tgts =
          andersen_targets
            {|int v; int *g;
              void callee(int *a) { g = a; }
              int main() { callee(&v); return 0; }|}
            "g"
        in
        Alcotest.(check (list string)) "g -> v" [ "v" ] tgts);
    case "Andersen: indirect calls resolved on the fly" (fun () ->
        let tgts =
          andersen_targets
            {|int v; int *g;
              void h(void) { g = &v; }
              void (*fp)(void);
              int main() { fp = h; fp(); return 0; }|}
            "g"
        in
        Alcotest.(check (list string)) "g -> v" [ "v" ] tgts);
    case "Steensgaard: indirect calls resolved" (fun () ->
        let tgts =
          steensgaard_targets
            {|int v; int *g;
              void h(void) { g = &v; }
              void (*fp)(void);
              int main() { fp = h; fp(); return 0; }|}
            "g"
        in
        Alcotest.(check bool) "g -> v" true (List.mem "v" tgts));
    case "baselines are less precise than the context-sensitive analysis" (fun () ->
        let src =
          {|int v, w;
            int *id(int *z) { return z; }
            int main() { int *p, *q; p = id(&v); q = id(&w); return 0; }|}
        in
        (* precise: p -> {v}; Andersen conflates the two calls *)
        let res = analyze src in
        check_targets "precise p" [ "v/D" ] (exit_targets res "p");
        let at = andersen_targets src "main::p" in
        Alcotest.(check (list string)) "andersen p" [ "v"; "w" ] at);
    case "Steensgaard avg targets is computable" (fun () ->
        let p = simplify "int v; int *p; int main() { p = &v; return 0; }" in
        let r = Alias.Steensgaard.run p in
        Alcotest.(check bool) "positive" true (Alias.Steensgaard.avg_targets r >= 1.0));
  ]

(* ------------------------------------------------------------------ *)
(* Call-graph strategies                                              *)
(* ------------------------------------------------------------------ *)

let callgraph_tests =
  [
    case "three strategies ordered on a fn-ptr program" (fun () ->
        let src =
          {|int a, b; int *g;
            void fa(void) { g = &a; }
            void fb(void) { g = &b; }
            void fc(void) { }
            void (*tab[2])(void);
            int main(int argc, char **argv) {
              tab[0] = fa; tab[1] = fb;
              tab[argc]();
              return 0;
            }|}
        in
        let p = simplify src in
        let analyzed = Alias.Callgraph.Precise (Analysis.analyze p) in
        let precise = Alias.Callgraph.ig_size p analyzed in
        let at = Alias.Callgraph.ig_size p Alias.Callgraph.Address_taken in
        let naive = Alias.Callgraph.ig_size p Alias.Callgraph.Naive in
        Alcotest.(check bool) "precise <= addr-taken" true (precise <= at);
        Alcotest.(check bool) "addr-taken <= naive" true (at <= naive);
        (* fa, fb address-taken; fc not *)
        Alcotest.(check (list string)) "fanouts" [ "2"; "2"; "4" ]
          (List.map string_of_int
             [
               List.hd (Alias.Callgraph.indirect_fanout p analyzed);
               List.hd (Alias.Callgraph.indirect_fanout p Alias.Callgraph.Address_taken);
               List.hd (Alias.Callgraph.indirect_fanout p Alias.Callgraph.Naive);
             ]));
    case "call multigraph edges from the analyzed graph" (fun () ->
        let src =
          {|void f(void) { }
            void g(void) { f(); }
            int main() { g(); f(); return 0; }|}
        in
        let res = analyze src in
        let edges = Alias.Callgraph.edges_of_result res in
        Alcotest.(check (list (pair string string)))
          "edges"
          [ ("g", "f"); ("main", "f"); ("main", "g") ]
          edges);
    case "naive counting cuts recursion with approximate leaves" (fun () ->
        let src = {|void f(int n) { if (n) f(n - 1); } int main() { f(3); return 0; }|} in
        let p = simplify src in
        Alcotest.(check int) "3 nodes" 3 (Alias.Callgraph.ig_size p Alias.Callgraph.Naive));
  ]

let suite = ("alias", pairs_tests @ baseline_tests @ callgraph_tests)
