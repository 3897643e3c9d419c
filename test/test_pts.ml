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
      (fun (l, s) ->
        let r = Pts.remove_tgt l s in
        let targeted = Pts.fold (fun _ tgt _ hit -> hit || Loc.equal tgt l) s false in
        Pts.equal r (Pts.filter (fun _ tgt _ -> not (Loc.equal tgt l)) s)
        && (targeted || r == s));
    qcase "all_locs equals the locations fold visits" pts_gen (fun s ->
        let scan =
          Pts.fold (fun src tgt _ acc -> Loc.Set.add src (Loc.Set.add tgt acc)) s Loc.Set.empty
        in
        Loc.Set.equal scan (Pts.all_locs s));
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

(* ------------------------------------------------------------------ *)
(* Row accumulators                                                   *)
(* ------------------------------------------------------------------ *)

(* A small interned vocabulary, so visits collide on sources and rows. *)
let acc_locs =
  [| Loc.var "p" Loc.Klocal; Loc.var "q" Loc.Klocal; Loc.var "ga" Loc.Kglobal; Loc.Heap; Loc.Null |]

let small_pts : Pts.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  let loc = oneofa acc_locs in
  list_size (int_bound 8) (triple loc loc cert_gen) >|= Pts.of_list

(** Visits derived from a few base sets: whole sets and single rows are
    physically shared between them, some are empty, and killing or
    weakening a source leaves it one-sided or demoted. *)
let visits_gen : Pts.t list QCheck2.Gen.t =
  let open QCheck2.Gen in
  list_size (int_range 1 3) small_pts >>= fun bases ->
  let base = oneofl bases and loc = oneofa acc_locs in
  let visit =
    oneof
      [
        base;
        return Pts.empty;
        small_pts;
        map2 Pts.kill_src loc base;
        map2 Pts.weaken_src loc base;
        map3 (fun l b o -> Pts.add_rows [ (l, Pts.tgt_map l o) ] b) loc base base;
      ]
  in
  list_size (int_range 1 6) visit

let fold_acc visits =
  let acc = Pts.Acc.create () and chain = Pts.Acc.chain () in
  List.iter (Pts.Acc.add chain acc) visits;
  Pts.Acc.freeze acc

let lub = function [] -> Pts.empty | v :: vs -> List.fold_left Pts.merge v vs

let acc_tests =
  [
    case "Acc: nothing added freezes to the empty set" (fun () ->
        Alcotest.(check bool) "empty" true (Pts.is_empty (fold_acc [])));
    case "Acc: a row one visit lacks becomes possible" (fun () ->
        let a = Pts.of_list [ (x, y, Pts.D); (y, z, Pts.D) ] in
        let b = Pts.of_list [ (y, z, Pts.D); (z, x, Pts.D) ] in
        let f = fold_acc [ a; b ] in
        Alcotest.(check bool) "x->y P" true (Pts.find x y f = Some Pts.P);
        Alcotest.(check bool) "y->z D" true (Pts.find y z f = Some Pts.D);
        Alcotest.(check bool) "z->x P" true (Pts.find z x f = Some Pts.P));
    qcase "Acc: freeze equals the fold of merge, in any order"
      QCheck2.Gen.(visits_gen >>= fun vs -> pair (return vs) (shuffle_l vs))
      (fun (vs, perm) -> Pts.equal (fold_acc perm) (lub vs));
    qcase "Acc: freeze of one visit is that visit" small_pts (fun s ->
        fold_acc [ s ] == s && fold_acc [ s; s; s ] == s);
    qcase "Acc: freeze is a visit that covers all the others"
      QCheck2.Gen.(
        visits_gen >>= fun vs ->
        (* a visit equal to the bound of the others, at any position *)
        shuffle_l (lub vs :: vs))
      (fun vs ->
        let f = fold_acc vs in
        Pts.equal f (lub vs) && List.exists (fun v -> v == f) vs);
    qcase "Acc: a chain shares folds without changing any bound"
      QCheck2.Gen.(
        visits_gen >>= fun vs ->
        (* runs of one visit to consecutive accumulators, some frozen after *)
        list_size (int_range 1 12) (quad (int_bound 3) (int_bound 3) (oneofl vs) bool))
      (fun runs ->
        let n = 4 in
        let accs = Array.init n (fun _ -> Pts.Acc.create ()) and seen = Array.make n [] in
        let chain = Pts.Acc.chain () in
        let agrees i = Pts.equal (Pts.Acc.freeze accs.(i)) (lub (List.rev seen.(i))) in
        List.for_all
          (fun (k, len, v, freeze) ->
            let last = min (n - 1) (k + len) in
            for i = k to last do
              Pts.Acc.add chain accs.(i) v;
              seen.(i) <- v :: seen.(i)
            done;
            (not freeze) || agrees last)
          runs
        && List.for_all agrees (List.init n Fun.id));
    qcase "Acc: a freeze mid-way does not disturb later visits"
      QCheck2.Gen.(pair visits_gen visits_gen)
      (fun (xs, ys) ->
        let acc = Pts.Acc.create () and chain = Pts.Acc.chain () in
        List.iter (Pts.Acc.add chain acc) xs;
        let mid = Pts.Acc.freeze acc in
        List.iter (Pts.Acc.add chain acc) ys;
        Pts.equal mid (lub xs) && Pts.equal (Pts.Acc.freeze acc) (lub (xs @ ys)));
  ]

(* ------------------------------------------------------------------ *)
(* The cached hash                                                    *)
(* ------------------------------------------------------------------ *)

(** One step of a set's life: every operation that returns a new set. *)
let step_gen : (Pts.t -> Pts.t) QCheck2.Gen.t =
  let open QCheck2.Gen in
  let loc = oneofa acc_locs in
  oneof
    [
      map3 Pts.add loc loc cert_gen;
      map3 Pts.add_weak loc loc cert_gen;
      map Pts.kill_src loc;
      map Pts.weaken_src loc;
      map Pts.remove_tgt loc;
      map (fun l -> Pts.filter (fun _ tgt c -> c == Pts.P || not (Loc.equal tgt l))) loc;
      map (fun l -> Pts.filter_src (fun src -> not (Loc.equal src l))) loc;
      map2 (fun l o -> Pts.add_rows [ (l, Pts.tgt_map l o) ]) loc small_pts;
      map (fun o s -> Pts.merge s o) small_pts;
      map
        (fun vs s ->
          let acc = Pts.Acc.create () and chain = Pts.Acc.chain () in
          List.iter (Pts.Acc.add chain acc) (s :: vs);
          Pts.Acc.freeze acc)
        (list_size (int_range 1 3) small_pts);
    ]

let hash_tests =
  [
    qcase ~count:500 "hash: a set's cached hash is never stale"
      QCheck2.Gen.(pair small_pts (list_size (int_range 1 12) step_gen))
      (fun (s0, steps) ->
        (* forcing the hash of every intermediate set means a step that
           carried its input's cached hash over to a different set is
           caught at the next check *)
        let fresh s =
          let rebuilt = Pts.of_list (Pts.to_list s) in
          let t = Pts.Tbl.create 4 in
          Pts.Tbl.replace t s ();
          Pts.hash s = Pts.hash rebuilt && Pts.Tbl.mem t rebuilt
        in
        let rec go s = function
          | [] -> fresh s
          | step :: rest -> fresh s && go (step s) rest
        in
        go s0 steps);
  ]

(* ------------------------------------------------------------------ *)
(* The global and frame parts                                         *)
(* ------------------------------------------------------------------ *)

(* Sources of every kind the split tells apart: global-rooted (a
   variable, a field, both array parts), frame (a local, a local's
   field, the heap, a site) and a global-rooted symbolic name, which
   belongs to the frame part. *)
let split_srcs =
  Array.map Loc.intern
    [|
      g "ga";
      Loc.Fld (g "gs", "f");
      Loc.Head (g "garr");
      Loc.Tail (g "garr");
      g "gcast";
      v "p";
      Loc.Fld (v "s", "f");
      Loc.Heap;
      Loc.Site 3;
      Loc.Sym (g "ga");
    |]

(* Targets that name nothing (globals, NULL, a function) and targets
   that name something (a local, a symbolic name, the heap). *)
let split_tgts =
  Array.map Loc.intern
    [| g "ga"; Loc.Fld (g "gs", "f"); Loc.Null; Loc.Fun "f"; v "p"; Loc.Sym (g "ga"); Loc.Heap |]

(* The declared cells: [gcast] is not one, like a source made through a
   cast. *)
let split_cells =
  List.fold_left
    (fun cells l -> Loc.Map.add l (Loc.Map.cardinal cells) cells)
    Loc.Map.empty
    [ g "ga"; Loc.Fld (g "gs", "f"); Loc.Head (g "garr"); Loc.Tail (g "garr") ]

let split_pts : Pts.t QCheck2.Gen.t =
  let open QCheck2.Gen in
  list_size (int_bound 10) (triple (oneofa split_srcs) (oneofa split_tgts) cert_gen)
  >|= Pts.of_list

(** One step of a set's life, the operand sets some steps take drawn
    with or without their index computed. *)
let split_step_gen : (string * (Pts.t -> Pts.t)) QCheck2.Gen.t =
  let open QCheck2.Gen in
  let src = oneofa split_srcs and tgt = oneofa split_tgts in
  let operand =
    map2
      (fun o force ->
        if force then ignore (Pts.global_index ~cells:split_cells o);
        o)
      split_pts bool
  in
  oneof
    [
      map3 (fun l t c -> ("add", Pts.add l t c)) src tgt cert_gen;
      map3 (fun l t c -> ("add_weak", Pts.add_weak l t c)) src tgt cert_gen;
      map2
        (fun ls o -> ("add_rows", Pts.add_rows (List.map (fun l -> (l, Pts.tgt_map l o)) ls)))
        (list_size (int_range 1 3) src) operand;
      map (fun l -> ("kill_src", Pts.kill_src l)) src;
      map (fun l -> ("weaken_src", Pts.weaken_src l)) src;
      map (fun l -> ("filter_src", Pts.filter_src (fun s -> not (Loc.equal s l)))) src;
      map (fun o -> ("merge", fun s -> Pts.merge s o)) operand;
      map (fun o -> ("merge'", Pts.merge o)) operand;
    ]

(** [s] against the set rebuilt from its pairs: the same pairs in
    {!Loc.compare} order, hash, equality both ways of asking, and a
    global index equal to one computed from scratch. *)
let agrees_with_rebuilt s =
  let r = Pts.of_list (Pts.to_list s) in
  let pairs = Pts.to_list s in
  let ordered =
    List.sort
      (fun (a, b, _) (c, d, _) ->
        match Loc.compare a c with 0 -> Loc.compare b d | n -> n)
      pairs
  in
  let srcs = List.map fst (Pts.rows s) in
  pairs = ordered
  && pairs = Pts.to_list r
  && srcs = List.sort_uniq Loc.compare srcs
  && Pts.hash s = Pts.hash r
  && Pts.equal s r && Pts.equal r s
  && Pts.covered_by s r && Pts.covered_by r s
  && Loc.Set.equal (Pts.global_index ~cells:split_cells s)
       (* cells the rebuilt set has never seen: an index computed from scratch *)
       (Pts.global_index ~cells:(Loc.Map.map Fun.id split_cells) r)

let split_tests =
  [
    qcase ~count:1000 "split: every step agrees with the set rebuilt from its pairs"
      QCheck2.Gen.(pair split_pts (list_size (int_range 1 12) split_step_gen))
      (fun (s0, steps) ->
        (* the index is asked for at every step, so each step starts
           from a set that carries one and must keep it exact *)
        let rec go s = function
          | [] -> agrees_with_rebuilt s
          | (name, step) :: rest ->
              if not (agrees_with_rebuilt s) then
                QCheck2.Test.fail_reportf "before %s: %s" name (Pts.to_string s);
              go (step s) rest
        in
        go s0 steps);
    case "split: the index lists the rows that name something and undeclared sources"
      (fun () ->
        let s =
          Pts.of_list
            [
              (g "ga", Loc.Null, Pts.D);
              (Loc.Fld (g "gs", "f"), v "p", Pts.P);
              (Loc.Head (g "garr"), Loc.Heap, Pts.P);
              (Loc.Tail (g "garr"), Loc.Sym (g "ga"), Pts.P);
              (g "gcast", g "ga", Pts.D);
              (v "p", v "p", Pts.D);
            ]
        in
        Alcotest.(check (list string))
          "indexed"
          [ "gcast"; "gs.f"; "garr_head"; "garr_tail" ]
          (List.map Loc.to_string
             (Loc.Set.elements (Pts.global_index ~cells:split_cells s))));
  ]

let suite =
  ("pts", unit_tests @ loc_tests @ property_tests @ acc_tests @ hash_tests @ split_tests)
