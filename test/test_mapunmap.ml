(** Direct unit tests of the map/unmap machinery (§4.1), driving
    {!Pointsto.Map_unmap} on constructed inputs, plus probe-based checks
    of the invariants the paper states. *)

open Test_util
module MU = Pointsto.Map_unmap
module Tenv = Pointsto.Tenv

let fixture =
  simplify
    {|
int g1, g2;
int *gp;
struct box { int *fst; int *snd; };
void callee(int *p, int **pp, struct box b) { }
int main() {
  int *la, *lb;
  int *lp;
  struct box mybox;
  callee(&la, &lp, mybox);
  return 0;
}
|}

let tenv = Tenv.make fixture
let caller = Option.get (Ir.find_func fixture "main")
let callee = Option.get (Ir.find_func fixture "callee")

let v name = Loc.Var (name, Loc.Klocal)
let g name = Loc.Var (name, Loc.Kglobal)
let param name = Loc.Var (name, Loc.Kparam)

let show s = sorted_strings (List.map show_pair s)

let targets_of set l =
  show (List.filter (fun (t, _) -> not (Loc.is_null t)) (Pts.targets l set))

let direct_tests =
  [
    case "globals map to themselves" (fun () ->
        let input = Pts.of_list [ (g "gp", g "g1", Pts.D) ] in
        let fi, _ =
          MU.map_call tenv ~caller_fn:caller ~callee ~input
            ~actuals:[ MU.Aother; MU.Aother; MU.Aother ]
        in
        Alcotest.(check (list string)) "gp -> g1 inside" [ "g1/D" ] (targets_of fi (g "gp")));
    case "pointer formal inherits the actual's targets" (fun () ->
        let fi, _ =
          MU.map_call tenv ~caller_fn:caller ~callee ~input:Pts.empty
            ~actuals:[ MU.Aptr (Pointsto.Lval.of_list [ (g "g1", Pts.D) ]); MU.Aother; MU.Aother ]
        in
        Alcotest.(check (list string)) "p -> g1" [ "g1/D" ] (targets_of fi (param "p")));
    case "invisible target gets the symbolic name 1_pp" (fun () ->
        let input = Pts.of_list [ (v "lp", g "g2", Pts.D) ] in
        let fi, info =
          MU.map_call tenv ~caller_fn:caller ~callee ~input
            ~actuals:
              [ MU.Aother; MU.Aptr (Pointsto.Lval.of_list [ (v "lp", Pts.D) ]); MU.Aother ]
        in
        Alcotest.(check (list string)) "pp -> 1_pp" [ "1_pp/D" ] (targets_of fi (param "pp"));
        (* the invisible's own relationships follow *)
        Alcotest.(check (list string)) "1_pp -> g2" [ "g2/D" ]
          (targets_of fi (Loc.Sym (param "pp")));
        Alcotest.(check int) "1_pp represents exactly lp" 1
          (MU.rep_count info (Loc.Sym (param "pp"))));
    case "two invisibles on one symbolic name demote to possible" (fun () ->
        let input = Pts.of_list [ (v "la", g "g1", Pts.D); (v "lb", g "g2", Pts.D) ] in
        let fi, info =
          MU.map_call tenv ~caller_fn:caller ~callee ~input
            ~actuals:
              [
                MU.Aother;
                MU.Aptr (Pointsto.Lval.of_list [ (v "la", Pts.P); (v "lb", Pts.P) ]);
                MU.Aother;
              ]
        in
        let sym = Loc.Sym (param "pp") in
        Alcotest.(check int) "two reps" 2 (MU.rep_count info sym);
        Alcotest.(check (list string)) "pp -> 1_pp possibly" [ "1_pp/P" ]
          (targets_of fi (param "pp"));
        (* la -> g1 but lb -> g2: from the merged name both are possible *)
        Alcotest.(check (list string)) "1_pp -> g1,g2 possibly" [ "g1/P"; "g2/P" ]
          (targets_of fi sym));
    case "aggregate actual maps its pointer cells onto the formal's" (fun () ->
        let input =
          Pts.of_list
            [
              (Loc.Fld (v "mybox", "fst"), g "g1", Pts.D);
              (Loc.Fld (v "mybox", "snd"), g "g2", Pts.P);
            ]
        in
        let fi, _ =
          MU.map_call tenv ~caller_fn:caller ~callee ~input
            ~actuals:[ MU.Aother; MU.Aother; MU.Aagg (v "mybox") ]
        in
        Alcotest.(check (list string)) "b.fst" [ "g1/D" ]
          (targets_of fi (Loc.Fld (param "b", "fst")));
        Alcotest.(check (list string)) "b.snd" [ "g2/P" ]
          (targets_of fi (Loc.Fld (param "b", "snd"))));
    case "callee locals are NULL-initialized in the mapped input" (fun () ->
        let p =
          simplify
            {|void has_local(void) { int *q; q = 0; }
              int main() { has_local(); return 0; }|}
        in
        let tenv = Tenv.make p in
        let caller = Option.get (Ir.find_func p "main") in
        let callee = Option.get (Ir.find_func p "has_local") in
        let fi, _ = MU.map_call tenv ~caller_fn:caller ~callee ~input:Pts.empty ~actuals:[] in
        Alcotest.(check bool) "q -> NULL definitely" true
          (Pts.find (Loc.Var ("q", Loc.Klocal)) Loc.Null fi = Some Pts.D));
    case "unmap: unreachable caller relationships persist" (fun () ->
        let input =
          Pts.of_list [ (v "lp", g "g1", Pts.D); (g "gp", g "g2", Pts.D) ]
        in
        (* callee reached only the globals *)
        let fi, info =
          MU.map_call tenv ~caller_fn:caller ~callee ~input
            ~actuals:[ MU.Aother; MU.Aother; MU.Aother ]
        in
        let out = MU.unmap_call tenv ~input ~output:fi ~info in
        Alcotest.(check (list string)) "lp kept" [ "g1/D" ] (targets_of out (v "lp"));
        Alcotest.(check (list string)) "gp kept" [ "g2/D" ] (targets_of out (g "gp")));
    case "unmap: callee writes through symbolic names reach the invisible" (fun () ->
        let input = Pts.empty in
        let fi, info =
          MU.map_call tenv ~caller_fn:caller ~callee ~input
            ~actuals:
              [ MU.Aother; MU.Aptr (Pointsto.Lval.of_list [ (v "lp", Pts.D) ]); MU.Aother ]
        in
        (* simulate the callee doing *pp = &g1 *)
        let sym = Loc.Sym (param "pp") in
        let out_callee = Pts.add sym (g "g1") Pts.D (Pts.kill_src sym fi) in
        let out = MU.unmap_call tenv ~input ~output:out_callee ~info in
        Alcotest.(check (list string)) "lp -> g1" [ "g1/D" ] (targets_of out (v "lp")));
    case "unmap: escaping callee locals are dropped" (fun () ->
        let fi, info =
          MU.map_call tenv ~caller_fn:caller ~callee ~input:Pts.empty
            ~actuals:[ MU.Aother; MU.Aother; MU.Aother ]
        in
        (* simulate the callee storing a local's address into a global *)
        let out_callee = Pts.add (g "gp") (Loc.Var ("dead", Loc.Klocal)) Pts.D fi in
        let out = MU.unmap_call tenv ~input:Pts.empty ~output:out_callee ~info in
        Alcotest.(check (list string)) "gp empty" [] (targets_of out (g "gp")));
    case "return_targets resolve through the map info" (fun () ->
        let fi, info =
          MU.map_call tenv ~caller_fn:caller ~callee ~input:Pts.empty
            ~actuals:[ MU.Aother; MU.Aother; MU.Aother ]
        in
        let out_callee = Pts.add (Loc.Ret "callee") (g "g1") Pts.D fi in
        let tgts = MU.return_targets ~output:out_callee ~info ~callee:"callee" in
        Alcotest.(check (list string)) "ret -> g1" [ "g1/D" ]
          (sorted_strings (List.map show_pair tgts)));
    case "symbolic depth bound summarizes instead of diverging" (fun () ->
        (* a recursive struct chain on the stack would need unbounded
           symbolic names; the bound must keep the analysis terminating
           and safe *)
        let src =
          {|struct n { struct n *next; };
            struct n *last(struct n *p) {
              if (p->next != 0) return last(p->next);
              return p;
            }
            int main() {
              struct n a, b, c, d, e, f, g, h;
              struct n *r;
              a.next = &b; b.next = &c; c.next = &d; d.next = &e;
              e.next = &f; f.next = &g; g.next = &h; h.next = 0;
              r = last(&a);
              return 0;
            }|}
        in
        let opts = { Pointsto.Options.default with Pointsto.Options.max_sym_depth = 2 } in
        let res = analyze ~opts src in
        (* r must cover all possible chain elements; with depth 2 the
           deeper ones summarize but safety demands the set is non-empty
           and includes at least a, b *)
        let tr = exit_targets res "r" in
        Alcotest.(check bool) "covers the early chain" true
          (List.exists (fun s -> s = "a/P" || s = "b/P") tr);
        Alcotest.(check bool) "non-empty" true (tr <> []))
  ]

(* The root walk over globals skips rows that translate to themselves
   and name nothing; every other row must map exactly as a full
   exploration does. *)
let roots_fixture =
  simplify
    {|
int x, y;
int *gp;
int **ga;
int **gb;
void callee(int **pp) { }
int main() {
  int la, lb;
  int *lq;
  callee(&lq);
  return 0;
}
|}

let roots_tenv = Tenv.make roots_fixture
let roots_caller = Option.get (Ir.find_func roots_fixture "main")
let roots_callee = Option.get (Ir.find_func roots_fixture "callee")

let map_roots ?(tenv = roots_tenv) ?(actuals = [ MU.Aother ]) input =
  MU.map_call tenv ~caller_fn:roots_caller ~callee:roots_callee ~input ~actuals

let resolved info l = List.map Loc.to_string (MU.resolve_back info l)

let root_tests =
  [
    case "a global pointing at the heap still explores it first" (fun () ->
        (* ga's heap target is explored when ga's row is mapped, so the
           invisible lq is named through the heap before gb reaches it *)
        let input =
          Pts.of_list
            [
              (g "ga", Loc.Heap, Pts.P);
              (Loc.Heap, v "lq", Pts.P);
              (g "gb", v "lq", Pts.D);
              (v "lq", v "la", Pts.D);
            ]
        in
        let fi, info = map_roots input in
        let sym_heap = Loc.Sym Loc.Heap in
        Alcotest.(check (list string)) "heap -> 1_heap" [ "1_heap/P" ] (targets_of fi Loc.Heap);
        Alcotest.(check (list string)) "gb -> 1_heap" [ "1_heap/D" ] (targets_of fi (g "gb"));
        Alcotest.(check (list string)) "ga -> heap" [ "heap/P" ] (targets_of fi (g "ga"));
        Alcotest.(check (list string)) "1_heap is lq" [ "lq" ] (resolved info sym_heap);
        Alcotest.(check (list string)) "2_heap is la" [ "la" ]
          (resolved info (Loc.Sym sym_heap));
        Alcotest.(check (list string)) "1_heap -> 2_heap" [ "2_heap/D" ] (targets_of fi sym_heap));
    case "a global's invisible targets get its 1_ name, definite first" (fun () ->
        let input =
          Pts.of_list [ (g "gp", v "la", Pts.P); (g "gp", v "lb", Pts.D); (g "ga", g "gp", Pts.D) ]
        in
        let fi, info = map_roots input in
        let sym = Loc.Sym (g "gp") in
        Alcotest.(check (list string)) "gp -> 1_gp possibly" [ "1_gp/P" ] (targets_of fi (g "gp"));
        Alcotest.(check (list string)) "definite lb assigned before la" [ "lb"; "la" ]
          (resolved info sym);
        (* a row of visible targets transfers as is *)
        Alcotest.(check (list string)) "ga -> gp" [ "gp/D" ] (targets_of fi (g "ga")));
    case "a global pointing at a reused symbolic name is demoted" (fun () ->
        (* ga -> 1_gb is the caller's own name, visible; this call also
           names gb's two invisible targets 1_gb, so ga's row is mapped,
           not skipped, and its target demoted *)
        let input =
          Pts.of_list
            [ (g "ga", Loc.Sym (g "gb"), Pts.D); (g "gb", v "la", Pts.P); (g "gb", v "lb", Pts.P) ]
        in
        let fi, info = map_roots input in
        Alcotest.(check int) "1_gb names two invisibles" 2 (MU.rep_count info (Loc.Sym (g "gb")));
        Alcotest.(check (list string)) "ga -> 1_gb possibly" [ "1_gb/P" ] (targets_of fi (g "ga")));
    case "a store through a reused symbolic name stays weak" (fun () ->
        (* in callee, ga -> 1_gq stands for both la and lb: the store
           must not kill their old targets *)
        check_exit "r1 -> x0, x1, y possibly"
          {|int x0, x1, y;
            int **gq, **ga;
            int *r1;
            void callee(void) { *ga = &y; }
            void mid(int c) {
              int *la, *lb;
              la = &x0;
              lb = &x1;
              ga = gq;
              if (c) gq = &la; else gq = &lb;
              callee();
              r1 = la;
            }
            int main() {
              int *x;
              x = &x0;
              gq = &x;
              mid(1);
              return 0;
            }|}
          "r1" [ "x0/P"; "x1/P"; "y/P" ]);
    case "heap_by_site: a site reached only from the caller's state is a root" (fun () ->
        let opts = { Pointsto.Options.default with Pointsto.Options.heap_by_site = true } in
        let tenv = Tenv.make ~opts roots_fixture in
        let site = Loc.Site 7 in
        let input =
          Pts.of_list [ (site, v "la", Pts.D); (site, g "x", Pts.P); (g "gp", g "y", Pts.D) ]
        in
        let fi, info = map_roots ~tenv input in
        Alcotest.(check (list string)) "site row mapped" [ "1_heap@7/D"; "x/P" ]
          (targets_of fi site);
        Alcotest.(check (list string)) "1_heap@7 is la" [ "la" ] (resolved info (Loc.Sym site)));
    case "unmap shares a self-resolving row and demotes a symbolic one" (fun () ->
        let input = Pts.of_list [ (v "lq", v "la", Pts.P); (g "gp", g "x", Pts.D) ] in
        let _, info =
          map_roots
            ~actuals:[ MU.Aptr (Pointsto.Lval.of_list [ (v "la", Pts.P); (v "lb", Pts.P) ]) ]
            input
        in
        (* the callee leaves gp -> y and makes ga point at its parameter's
           pointee, a name for both la and lb *)
        let out =
          Pts.of_list
            [ (g "gp", g "y", Pts.D); (g "ga", Loc.Sym (param "pp"), Pts.D) ]
        in
        let res = MU.unmap_call roots_tenv ~input ~output:out ~info in
        Alcotest.(check bool) "gp's row is the callee's, shared" true
          (Pts.tgt_map (g "gp") res == Pts.tgt_map (g "gp") out);
        Alcotest.(check (list string)) "ga -> la, lb possibly" [ "la/P"; "lb/P" ]
          (targets_of res (g "ga"));
        Alcotest.(check (list string)) "lq persists" [ "la/P" ] (targets_of res (v "lq")));
    case "a block-local shadowing a global does not hide it from a callee" (fun () ->
        (* lowering renames the shadowing local, so the name [g] in main's
           scope is the global's again when the callee is mapped *)
        check_exit "q -> x"
          {|int x;
            int *g, *q;
            void callee(void) { q = g; }
            int main() {
              g = &x;
              { int g; g = 0; callee(); }
              return 0;
            }|}
          "q" [ "x/D" ]);
    case "a parameter shadowing a global does not hide it from a callee" (fun () ->
        (* root cells are typed from the global's declaration, not from
           the same-named [int] parameter of the function making the
           call *)
        check_exit "q -> x"
          {|int x;
            int *g, *q;
            void callee(void) { q = g; }
            void mid(int g) { callee(); }
            int main() {
              g = &x;
              mid(0);
              return 0;
            }|}
          "q" [ "x/D" ]);
  ]

let suite = ("mapunmap", direct_tests @ root_tests)
