(** Unit and property tests for {!Pointsto.Pts} and {!Pointsto.Loc}:
    the points-to set lattice (merge, covering) and the abstract-location
    algebra. *)

open Test_util

let v name = Loc.Var (name, Loc.Klocal)
let g name = Loc.Var (name, Loc.Kglobal)

let x = v "x"
let y = v "y"
let z = v "z"
let w = v "w"

(* ------------------------------------------------------------------ *)
(* Unit tests                                                         *)
(* ------------------------------------------------------------------ *)

let unit_tests =
  [
    case "add/find" (fun () ->
        let s = Pts.add x y Pts.D Pts.empty in
        Alcotest.(check bool) "found D" true (Pts.find x y s = Some Pts.D);
        Alcotest.(check bool) "absent" true (Pts.find y x s = None));
    case "add overrides" (fun () ->
        let s = Pts.add x y Pts.P (Pts.add x y Pts.D Pts.empty) in
        Alcotest.(check bool) "now P" true (Pts.find x y s = Some Pts.P);
        let s = Pts.add x y Pts.D s in
        Alcotest.(check bool) "back to D" true (Pts.find x y s = Some Pts.D));
    case "add_weak weakens" (fun () ->
        let s = Pts.add_weak x y Pts.P (Pts.add x y Pts.D Pts.empty) in
        Alcotest.(check bool) "weakened" true (Pts.find x y s = Some Pts.P);
        let s = Pts.add_weak x y Pts.D s in
        Alcotest.(check bool) "stays P" true (Pts.find x y s = Some Pts.P));
    case "kill_src removes all pairs of a source" (fun () ->
        let s = Pts.of_list [ (x, y, Pts.D); (x, z, Pts.P); (y, z, Pts.D) ] in
        let s = Pts.kill_src x s in
        Alcotest.(check int) "one pair left" 1 (Pts.cardinal s);
        Alcotest.(check bool) "y->z kept" true (Pts.mem y z s));
    case "weaken_src demotes" (fun () ->
        let s = Pts.of_list [ (x, y, Pts.D); (y, z, Pts.D) ] in
        let s = Pts.weaken_src x s in
        Alcotest.(check bool) "x->y P" true (Pts.find x y s = Some Pts.P);
        Alcotest.(check bool) "y->z still D" true (Pts.find y z s = Some Pts.D));
    case "merge: D on both sides stays D" (fun () ->
        let a = Pts.of_list [ (x, y, Pts.D) ] in
        let b = Pts.of_list [ (x, y, Pts.D) ] in
        Alcotest.(check bool) "D" true (Pts.find x y (Pts.merge a b) = Some Pts.D));
    case "merge: pair on one side becomes P" (fun () ->
        let a = Pts.of_list [ (x, y, Pts.D) ] in
        let m = Pts.merge a Pts.empty in
        Alcotest.(check bool) "P" true (Pts.find x y m = Some Pts.P));
    case "merge: conflicting definites both become P" (fun () ->
        let a = Pts.of_list [ (x, y, Pts.D) ] in
        let b = Pts.of_list [ (x, z, Pts.D) ] in
        let m = Pts.merge a b in
        Alcotest.(check bool) "x->y P" true (Pts.find x y m = Some Pts.P);
        Alcotest.(check bool) "x->z P" true (Pts.find x z m = Some Pts.P));
    case "covered_by: pair subset with definite downgrade" (fun () ->
        let small = Pts.of_list [ (x, y, Pts.D) ] in
        let big = Pts.of_list [ (x, y, Pts.P); (x, z, Pts.P) ] in
        Alcotest.(check bool) "small <= big" true (Pts.covered_by small big);
        Alcotest.(check bool) "big </= small" false (Pts.covered_by big small));
    case "covered_by rejects spurious definite in the cover" (fun () ->
        (* the cover claims x definitely points to z, the covered set does
           not establish it: unsafe *)
        let small = Pts.of_list [ (x, y, Pts.P); (x, z, Pts.P) ] in
        let big = Pts.of_list [ (x, y, Pts.P); (x, z, Pts.D) ] in
        Alcotest.(check bool) "not covered" false (Pts.covered_by small big));
    case "state merge with Bottom is identity" (fun () ->
        let s = Some (Pts.of_list [ (x, y, Pts.D) ]) in
        Alcotest.(check bool) "left" true (Pts.state_equal (Pts.merge_state None s) s);
        Alcotest.(check bool) "right" true (Pts.state_equal (Pts.merge_state s None) s));
    case "remove_tgt drops every pair at the target" (fun () ->
        let s = Pts.of_list [ (x, z, Pts.D); (y, z, Pts.P); (z, y, Pts.D) ] in
        let s = Pts.remove_tgt z s in
        Alcotest.(check int) "one pair left" 1 (Pts.cardinal s);
        Alcotest.(check bool) "z->y kept" true (Pts.find z y s = Some Pts.D));
    case "sources inverts targets" (fun () ->
        let s = Pts.of_list [ (x, z, Pts.D); (y, z, Pts.P); (z, y, Pts.D) ] in
        Alcotest.(check int) "two sources of z" 2 (Loc.Set.cardinal (Pts.sources z s));
        Alcotest.(check bool) "x there" true (Loc.Set.mem x (Pts.sources z s));
        Alcotest.(check bool) "y there" true (Loc.Set.mem y (Pts.sources z s));
        Alcotest.(check bool) "none of x" true (Loc.Set.is_empty (Pts.sources x s)));
    case "filter_src keeps whole sources" (fun () ->
        let s = Pts.of_list [ (x, y, Pts.D); (x, z, Pts.P); (y, z, Pts.D) ] in
        let s = Pts.filter_src (fun src -> not (Loc.equal src x)) s in
        Alcotest.(check int) "x's pairs gone" 1 (Pts.cardinal s);
        Alcotest.(check bool) "y->z kept" true (Pts.mem y z s));
    case "add_rows equals kill then repeated add, sharing rows" (fun () ->
        let base = Pts.of_list [ (x, y, Pts.P); (x, z, Pts.P); (y, z, Pts.D); (z, x, Pts.D) ] in
        let rows =
          [ (x, Loc.Map.singleton y Pts.D); (w, Pts.tgt_map y base); (z, Loc.Map.empty) ]
        in
        let bulk = Pts.add_rows rows base in
        let one_by_one =
          List.fold_left
            (fun acc (s, m) -> Loc.Map.fold (fun t d acc -> Pts.add s t d acc) m (Pts.kill_src s acc))
            base rows
        in
        Alcotest.(check bool) "same set" true (Pts.equal bulk one_by_one);
        Alcotest.(check int) "cardinal tracked" (Pts.cardinal one_by_one) (Pts.cardinal bulk);
        Alcotest.(check bool) "x's row replaced" true (Pts.targets x bulk = [ (y, Pts.D) ]);
        Alcotest.(check bool) "empty row unbinds" true (Pts.targets z bulk = []);
        Alcotest.(check bool) "fresh row shared" true
          (Pts.tgt_map w bulk == Pts.tgt_map y base);
        Alcotest.(check bool) "unchanged rows, same set" true
          (Pts.add_rows [ (y, Pts.tgt_map y base) ] base == base));
    case "all_locs collects sources and targets" (fun () ->
        let s = Pts.of_list [ (x, y, Pts.D); (y, z, Pts.P) ] in
        Alcotest.(check int) "three locs" 3 (Loc.Set.cardinal (Pts.all_locs s)));
    case "to_list/of_list roundtrip" (fun () ->
        let s = Pts.of_list [ (x, y, Pts.D); (y, z, Pts.P); (x, z, Pts.P) ] in
        Alcotest.(check bool) "equal" true (Pts.equal s (Pts.of_list (Pts.to_list s))));
  ]

(* ------------------------------------------------------------------ *)
(* Loc unit tests                                                     *)
(* ------------------------------------------------------------------ *)

let loc_tests =
  [
    case "root walks to the base variable" (fun () ->
        let l = Loc.Fld (Loc.Tail (Loc.Sym x), "f") in
        Alcotest.(check bool) "root is x" true (Loc.root l = x));
    case "sym_depth counts Sym constructors" (fun () ->
        Alcotest.(check int) "0" 0 (Loc.sym_depth x);
        Alcotest.(check int) "1" 1 (Loc.sym_depth (Loc.Sym x));
        Alcotest.(check int) "2" 2 (Loc.sym_depth (Loc.Sym (Loc.Fld (Loc.Sym x, "f")))));
    case "singular: tails, heap and strings are not" (fun () ->
        Alcotest.(check bool) "var" true (Loc.singular x);
        Alcotest.(check bool) "head" true (Loc.singular (Loc.Head x));
        Alcotest.(check bool) "tail" false (Loc.singular (Loc.Tail x));
        Alcotest.(check bool) "field of tail" false (Loc.singular (Loc.Fld (Loc.Tail x, "f")));
        Alcotest.(check bool) "heap" false (Loc.singular Loc.Heap);
        Alcotest.(check bool) "str" false (Loc.singular Loc.Str);
        Alcotest.(check bool) "sym" true (Loc.singular (Loc.Sym x)));
    case "visibility: globals and specials only" (fun () ->
        Alcotest.(check bool) "local" false (Loc.is_global_visible x);
        Alcotest.(check bool) "global" true (Loc.is_global_visible (g "gv"));
        Alcotest.(check bool) "field of global" true
          (Loc.is_global_visible (Loc.Fld (g "gv", "f")));
        Alcotest.(check bool) "sym over param" false
          (Loc.is_global_visible (Loc.Sym (Loc.Var ("p", Loc.Kparam))));
        Alcotest.(check bool) "heap" true (Loc.is_global_visible Loc.Heap);
        Alcotest.(check bool) "fun" true (Loc.is_global_visible (Loc.Fun "f")));
    case "category follows the root and symbolic names win" (fun () ->
        Alcotest.(check bool) "local" true (Loc.category x = Some `Lo);
        Alcotest.(check bool) "global" true (Loc.category (g "gv") = Some `Gl);
        Alcotest.(check bool) "param" true
          (Loc.category (Loc.Var ("p", Loc.Kparam)) = Some `Fp);
        Alcotest.(check bool) "sym" true (Loc.category (Loc.Sym x) = Some `Sy);
        Alcotest.(check bool) "field of sym is sy" true
          (Loc.category (Loc.Fld (Loc.Sym x, "f")) = Some `Sy);
        Alcotest.(check bool) "heap uncategorized" true (Loc.category Loc.Heap = None));
    case "printing matches the paper's conventions" (fun () ->
        Alcotest.(check string) "var" "x" (Loc.to_string x);
        Alcotest.(check string) "head" "a_head" (Loc.to_string (Loc.Head (v "a")));
        Alcotest.(check string) "tail" "a_tail" (Loc.to_string (Loc.Tail (v "a")));
        Alcotest.(check string) "1_x" "1_x" (Loc.to_string (Loc.Sym x));
        Alcotest.(check string) "2_x" "2_x" (Loc.to_string (Loc.Sym (Loc.Sym x)));
        Alcotest.(check string) "field" "s.f" (Loc.to_string (Loc.Fld (v "s", "f")));
        Alcotest.(check string) "heap" "heap" (Loc.to_string Loc.Heap));
    case "interning: smart constructors return the canonical value" (fun () ->
        Alcotest.(check bool) "var" true
          (Loc.var "ix" Loc.Klocal == Loc.var "ix" Loc.Klocal);
        Alcotest.(check bool) "fld" true
          (Loc.fld (Loc.var "ix" Loc.Klocal) "f" == Loc.fld (Loc.var "ix" Loc.Klocal) "f");
        Alcotest.(check bool) "intern of a bare value" true (Loc.intern (Loc.Sym x) == Loc.sym x);
        Alcotest.(check bool) "stable id" true
          (Loc.id (Loc.var "ix" Loc.Klocal) = Loc.id (Loc.var "ix" Loc.Klocal)));
    case "is_stack: named locations and not heap/str/fun" (fun () ->
        Alcotest.(check bool) "var" true (Loc.is_stack x);
        Alcotest.(check bool) "sym" true (Loc.is_stack (Loc.Sym x));
        Alcotest.(check bool) "heap" false (Loc.is_stack Loc.Heap);
        Alcotest.(check bool) "fun" false (Loc.is_stack (Loc.Fun "f"));
        Alcotest.(check bool) "str" false (Loc.is_stack Loc.Str));
  ]

(* ------------------------------------------------------------------ *)
(* Properties                                                         *)
(* ------------------------------------------------------------------ *)

let loc_gen : Loc.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let base =
    oneofl [ v "x"; v "y"; v "z"; g "ga"; g "gb"; Loc.Heap; Loc.Null; Loc.Str; Loc.Fun "f" ]
  in
  let wrap l =
    oneofl
      [ l; Loc.Fld (l, "f"); Loc.Head l; Loc.Tail l; Loc.Sym l ]
  in
  base >>= fun b ->
  oneof [ return b; wrap b; (wrap b >>= wrap) ]

let cert_gen = QCheck2.Gen.oneofl [ Pts.D; Pts.P ]

let pts_gen : Pts.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  list_size (int_bound 12) (triple loc_gen loc_gen cert_gen) >|= Pts.of_list

let property_tests =
  [
    qcase "merge is commutative" QCheck2.Gen.(pair pts_gen pts_gen) (fun (a, b) ->
        Pts.equal (Pts.merge a b) (Pts.merge b a));
    qcase "merge is associative" QCheck2.Gen.(triple pts_gen pts_gen pts_gen)
      (fun (a, b, c) ->
        Pts.equal (Pts.merge a (Pts.merge b c)) (Pts.merge (Pts.merge a b) c));
    qcase "merge is idempotent" pts_gen (fun a -> Pts.equal (Pts.merge a a) a);
    qcase "covered_by is reflexive" pts_gen (fun a -> Pts.covered_by a a);
    qcase "merge is an upper bound" QCheck2.Gen.(pair pts_gen pts_gen) (fun (a, b) ->
        let m = Pts.merge a b in
        Pts.covered_by a m && Pts.covered_by b m);
    qcase "covered_by is transitive through merges"
      QCheck2.Gen.(triple pts_gen pts_gen pts_gen)
      (fun (a, b, c) ->
        let ab = Pts.merge a b in
        let abc = Pts.merge ab c in
        Pts.covered_by a abc);
    qcase "kill then query is empty" QCheck2.Gen.(pair loc_gen pts_gen) (fun (l, s) ->
        Pts.targets l (Pts.kill_src l s) = []);
    qcase "weaken_src leaves no definite pairs at the source"
      QCheck2.Gen.(pair loc_gen pts_gen)
      (fun (l, s) ->
        List.for_all (fun (_, c) -> c = Pts.P) (Pts.targets l (Pts.weaken_src l s)));
    qcase "merge absorption: merge a (merge a b) = merge a b"
      QCheck2.Gen.(pair pts_gen pts_gen)
      (fun (a, b) ->
        (* exercises the subsumption fast path: the second merge's left
           operand is covered by the result of the first *)
        let ab = Pts.merge a b in
        Pts.equal (Pts.merge a ab) ab && Pts.equal (Pts.merge ab b) ab);
    qcase "remove_tgt leaves no sources of the target"
      QCheck2.Gen.(pair loc_gen pts_gen)
      (fun (l, s) -> Loc.Set.is_empty (Pts.sources l (Pts.remove_tgt l s)));
    qcase "sources agrees with a forward scan" QCheck2.Gen.(pair loc_gen pts_gen)
      (fun (l, s) ->
        let scan =
          Pts.fold
            (fun src tgt _ acc -> if Loc.equal tgt l then Loc.Set.add src acc else acc)
            s Loc.Set.empty
        in
        Loc.Set.equal scan (Pts.sources l s));
    qcase "filter_src agrees with filter" pts_gen (fun s ->
        let keep src = Loc.singular src in
        Pts.equal (Pts.filter_src keep s) (Pts.filter (fun src _ _ -> keep src) s));
    qcase "cardinal agrees with to_list" pts_gen (fun s ->
        Pts.cardinal s = List.length (Pts.to_list s));
    qcase "Loc.compare is a total order (antisymmetry)"
      QCheck2.Gen.(pair loc_gen loc_gen)
      (fun (a, b) ->
        let c1 = Loc.compare a b and c2 = Loc.compare b a in
        (c1 = 0) = (c2 = 0) && (c1 > 0) = (c2 < 0));
    qcase "root is idempotent" loc_gen (fun l -> Loc.root (Loc.root l) = Loc.root l);
    qcase "interning preserves the order" QCheck2.Gen.(pair loc_gen loc_gen)
      (fun (a, b) ->
        let sign c = compare c 0 in
        sign (Loc.compare (Loc.intern a) (Loc.intern b)) = sign (Loc.compare a b));
  ]

let suite = ("pts", unit_tests @ loc_tests @ property_tests)
