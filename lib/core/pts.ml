(** Points-to sets: finite maps from (source, target) location pairs to a
    certainty — definite or possible (paper Definitions 3.1/3.2).

    The representation is source-indexed ([source -> target -> cert]) and
    carries two derived structures:

    - a reverse index [target -> sources], built lazily on the first
      target-directed query ({!remove_tgt}, {!sources}, {!all_locs}) and
      memoized, so the add-heavy phases (gen sets, call mapping) never
      pay for it;
    - the pair count, maintained incrementally, so cardinality is O(1)
      and serves as a pre-check for {!equal} and {!covered_by}.

    The lattice ordering used for the interprocedural fixed point
    (Figure 4's [isSubsetOf] and [Merge]) is: [s1] is covered by [s2]
    iff every pair of [s1] occurs in [s2] (with any certainty) and every
    definite pair of [s2] occurs definitely in [s1]. [merge] is the
    least upper bound: union of the pairs, definite only when definite
    on both sides. [merge] first runs a subsumption pre-check so the
    steady state of a fixed point returns its operand physically
    unchanged — the loop and recursion fixed points in {!Engine} and the
    memo lookups in {!Map_unmap} then terminate on O(1) pointer
    checks. *)

type cert = D | P

let cert_and a b = match (a, b) with D, D -> D | _ -> P

let cert_to_string = function D -> "D" | P -> "P"

module LM = Loc.Map

type t = {
  fwd : cert LM.t LM.t;  (** source -> target -> certainty *)
  rev : Loc.Set.t LM.t Lazy.t;  (** target -> sources, forced on demand *)
  card : int;  (** number of pairs *)
}

(* Invariants: submaps of [fwd] and sets of [rev] are never empty;
   forcing [rev] yields exactly the transpose of [fwd]'s pair set;
   [card] is the number of pairs. Keys are not interned here — the
   producers ({!Lval}, {!Tenv}, {!Map_unmap}) build locations through
   the interning smart constructors, so the [Loc.compare] fast path
   fires throughout without paying a hash lookup per insertion. *)

let empty : t = { fwd = LM.empty; rev = lazy LM.empty; card = 0 }

let is_empty (s : t) = s.card = 0

let cert_eq (a : cert) b = a == b

let rev_add src tgt rev =
  LM.update tgt
    (function
      | None -> Some (Loc.Set.singleton src)
      | Some ss -> Some (Loc.Set.add src ss))
    rev

let transpose (fwd : cert LM.t LM.t) : Loc.Set.t LM.t =
  LM.fold
    (fun src m rev -> LM.fold (fun tgt _ rev -> rev_add src tgt rev) m rev)
    fwd LM.empty

let rev (s : t) = Lazy.force s.rev

(** Pack a forward map whose pair count is [card]; the reverse index is
    recomputed on first use. *)
let mk fwd card = { fwd; rev = lazy (transpose fwd); card }

(** Add a pair, overriding any existing certainty (used for gen sets:
    the newly generated relationship replaces the old one). *)
let add src tgt cert (s : t) : t =
  match LM.find_opt src s.fwd with
  | None -> mk (LM.add src (LM.singleton tgt cert) s.fwd) (s.card + 1)
  | Some m ->
      let m' = LM.add tgt cert m in
      if m' == m then s (* already bound to the same certainty *)
      else if LM.mem tgt m then
        (* certainty change only: the pair set, hence [rev], is unchanged *)
        { s with fwd = LM.add src m' s.fwd }
      else mk (LM.add src m' s.fwd) (s.card + 1)

(** Add a pair, weakening: if present as definite and added as possible
    (or vice versa), the result is possible. Used when accumulating
    independent facts. *)
let add_weak src tgt cert (s : t) : t =
  match LM.find_opt src s.fwd with
  | None -> mk (LM.add src (LM.singleton tgt cert) s.fwd) (s.card + 1)
  | Some m -> (
      match LM.find_opt tgt m with
      | None -> mk (LM.add src (LM.add tgt cert m) s.fwd) (s.card + 1)
      | Some c0 ->
          let c' = cert_and c0 cert in
          if cert_eq c' c0 then s
          else { s with fwd = LM.add src (LM.add tgt c' m) s.fwd })

let find src tgt (s : t) : cert option =
  match LM.find_opt src s.fwd with None -> None | Some m -> LM.find_opt tgt m

let mem src tgt s = Option.is_some (find src tgt s)

(** All targets of [src], with certainties. *)
let targets src (s : t) : (Loc.t * cert) list =
  match LM.find_opt src s.fwd with
  | None -> []
  | Some m -> LM.fold (fun tgt c acc -> (tgt, c) :: acc) m []

(** The target map of [src] (empty when it has no relationships). The
    returned map is the set's own submap, shared, not a copy. *)
let tgt_map src (s : t) : cert LM.t =
  match LM.find_opt src s.fwd with None -> LM.empty | Some m -> m

(** [add_rows rows s]: bind each row's source to exactly that target
    map, replacing the row it had (an empty map unbinds it), and pack
    once. A row is shared, not copied, and one physically equal to the
    source's current row leaves the set untouched — so assembling a set
    from rows (a callee input) or re-binding a caller's rows after a
    call costs a tree update only per row that changed. *)
let add_rows rows (s : t) : t =
  let fwd, card =
    List.fold_left
      (fun (fwd, card) (src, m) ->
        match LM.find_opt src fwd with
        | Some m0 when m0 == m -> (fwd, card)
        | old ->
            let card = match old with Some m0 -> card - LM.cardinal m0 | None -> card in
            if LM.is_empty m then (LM.remove src fwd, card)
            else (LM.add src m fwd, card + LM.cardinal m))
      (s.fwd, s.card) rows
  in
  if fwd == s.fwd then s else mk fwd card

(** All sources pointing at [tgt] (the reverse index). *)
let sources tgt (s : t) : Loc.Set.t =
  match LM.find_opt tgt (rev s) with None -> Loc.Set.empty | Some ss -> ss

(** Remove every relationship whose source is [src]. *)
let kill_src src (s : t) : t =
  match LM.find_opt src s.fwd with
  | None -> s
  | Some m -> mk (LM.remove src s.fwd) (s.card - LM.cardinal m)

(** Demote every relationship of [src] from definite to possible. *)
let weaken_src src (s : t) : t =
  match LM.find_opt src s.fwd with
  | None -> s
  | Some m ->
      if LM.for_all (fun _ c -> c == P) m then s
      else { s with fwd = LM.add src (LM.map (fun _ -> P) m) s.fwd }

(** Remove every relationship whose target is [tgt] (reverse-index
    directed: touches only the sources actually pointing at [tgt]). *)
let remove_tgt tgt (s : t) : t =
  match LM.find_opt tgt (rev s) with
  | None -> s
  | Some srcs ->
      let fwd, removed =
        Loc.Set.fold
          (fun src (fwd, k) ->
            match LM.find_opt src fwd with
            | None -> (fwd, k)
            | Some m ->
                let m' = LM.remove tgt m in
                ((if LM.is_empty m' then LM.remove src fwd else LM.add src m' fwd), k + 1))
          srcs (s.fwd, 0)
      in
      (* [s.rev] is already forced; removing the one key keeps it exact *)
      { fwd; rev = lazy (LM.remove tgt (rev s)); card = s.card - removed }

let fold f (s : t) acc =
  LM.fold (fun src m acc -> LM.fold (fun tgt c acc -> f src tgt c acc) m acc) s.fwd acc

let iter f (s : t) = LM.iter (fun src m -> LM.iter (fun tgt c -> f src tgt c) m) s.fwd

let iter_srcs f (s : t) = LM.iter f s.fwd

let exists f (s : t) =
  LM.exists (fun src m -> LM.exists (fun tgt c -> f src tgt c) m) s.fwd

(* Filters start from [s] and remove only the dropped pairs, so the
   untouched submaps stay physically shared with the input (and a filter
   that drops nothing returns [s] itself). *)

let filter f (s : t) : t =
  let fwd, card =
    LM.fold
      (fun src m (fwd, card) ->
        let m' = LM.filter (fun tgt c -> f src tgt c) m in
        if m' == m then (fwd, card)
        else
          ( (if LM.is_empty m' then LM.remove src fwd else LM.add src m' fwd),
            card - (LM.cardinal m - LM.cardinal m') ))
      s.fwd (s.fwd, s.card)
  in
  if fwd == s.fwd then s else mk fwd card

(** Keep only the relationships whose source satisfies [f] (evaluated
    once per source, not per pair; retained submaps stay physically
    shared with the input). *)
let filter_src f (s : t) : t =
  let fwd, card =
    LM.fold
      (fun src m (fwd, card) ->
        if f src then (fwd, card) else (LM.remove src fwd, card - LM.cardinal m))
      s.fwd (s.fwd, s.card)
  in
  if fwd == s.fwd then s else mk fwd card

let cardinal (s : t) = s.card

(** Cheap structural fingerprint: equal sets fingerprint equally, and
    the bounded traversal of [Hashtbl.hash] keeps it O(1) even on large
    sets. Used to bucket set-interning tables — cardinality alone
    chains every same-sized set into one bucket. *)
let fingerprint (s : t) = Hashtbl.hash (s.card, s.fwd)

let to_list (s : t) = List.rev (fold (fun a b c acc -> (a, b, c) :: acc) s [])

let of_list l = List.fold_left (fun s (a, b, c) -> add_weak a b c s) empty l

let equal (a : t) (b : t) =
  let m = Metrics.cur () in
  m.Metrics.equal_checks <- m.Metrics.equal_checks + 1;
  if a == b then begin
    m.Metrics.equal_fast <- m.Metrics.equal_fast + 1;
    true
  end
  else if a.card <> b.card then begin
    m.Metrics.equal_fast <- m.Metrics.equal_fast + 1;
    false
  end
  else LM.equal (fun ma mb -> ma == mb || LM.equal cert_eq ma mb) a.fwd b.fwd

(** [subsumes a b]: would [merge a b] return exactly [a]? Holds when
    every pair of [b] is in [a] with a certainty unchanged by the merge
    (i.e. [cert_and ca cb = ca]), and every pair of [a] absent from [b]
    is already possible (one-sided pairs demote to possible). Early
    exits make the common fixed-point steady state O(pairs) without
    allocation. *)
let subsumes (a : t) (b : t) : bool =
  b.card <= a.card
  && (not
        (LM.exists
           (fun src mb ->
             match LM.find_opt src a.fwd with
             | None -> true
             | Some ma ->
                 ma != mb
                 && LM.exists
                      (fun tgt cb ->
                        match LM.find_opt tgt ma with
                        | None -> true
                        | Some ca -> not (cert_eq (cert_and ca cb) ca))
                      mb)
           b.fwd))
  && not
       (LM.exists
          (fun src ma ->
            match LM.find_opt src b.fwd with
            | Some mb when mb == ma -> false
            | mbo ->
                LM.exists
                  (fun tgt ca ->
                    ca == D
                    && (match mbo with None -> true | Some mb -> not (LM.mem tgt mb)))
                  ma)
          a.fwd)

let all_possible m = LM.for_all (fun _ c -> c == P) m

(** Least upper bound: union of pairs; a pair is definite only when
    definite in both operands (a definite pair present on only one side
    becomes possible, since the other side's execution paths do not
    establish it). *)
let merge (a : t) (b : t) : t =
  let mt = Metrics.cur () in
  mt.Metrics.merges <- mt.Metrics.merges + 1;
  if a == b then begin
    mt.Metrics.merge_fast <- mt.Metrics.merge_fast + 1;
    a
  end
  else if subsumes a b then begin
    mt.Metrics.merge_fast <- mt.Metrics.merge_fast + 1;
    a
  end
  else if subsumes b a then begin
    mt.Metrics.merge_fast <- mt.Metrics.merge_fast + 1;
    b
  end
  else begin
    let count = ref 0 in
    let fwd =
      LM.merge
        (fun _src ma mb ->
          match (ma, mb) with
          | None, None -> None
          | Some m, None | None, Some m ->
              count := !count + LM.cardinal m;
              Some (if all_possible m then m else LM.map (fun _ -> P) m)
          | Some ma, Some mb ->
              if ma == mb then begin
                count := !count + LM.cardinal ma;
                Some ma
              end
              else
                Some
                  (LM.merge
                     (fun _tgt ca cb ->
                       match (ca, cb) with
                       | None, None -> None
                       | Some _, None | None, Some _ ->
                           incr count;
                           Some P
                       | Some ca, Some cb ->
                           incr count;
                           Some (cert_and ca cb))
                     ma mb))
        a.fwd b.fwd
    in
    mk fwd !count
  end

(** [covered_by s1 s2]: is [s2] a safe generalization of [s1]?
    Requires (1) every pair of [s1] to be present in [s2], and (2) every
    definite pair of [s2] to be definite in [s1]. *)
let covered_by (s1 : t) (s2 : t) : bool =
  let m = Metrics.cur () in
  m.Metrics.covered_checks <- m.Metrics.covered_checks + 1;
  if s1 == s2 then begin
    m.Metrics.covered_fast <- m.Metrics.covered_fast + 1;
    true
  end
  else if s1.card > s2.card then begin
    m.Metrics.covered_fast <- m.Metrics.covered_fast + 1;
    false
  end
  else
    (not
       (LM.exists
          (fun src m1 ->
            match LM.find_opt src s2.fwd with
            | None -> true
            | Some m2 -> m1 != m2 && LM.exists (fun tgt _ -> not (LM.mem tgt m2)) m1)
          s1.fwd))
    && not
         (LM.exists
            (fun src m2 ->
              match LM.find_opt src s1.fwd with
              | Some m1 when m1 == m2 -> false
              | m1o ->
                  LM.exists
                    (fun tgt c ->
                      c == D
                      &&
                      match m1o with
                      | None -> true
                      | Some m1 -> LM.find_opt tgt m1 <> Some D)
                    m2)
            s2.fwd)

(** Canonical structural digest, consistent with {!equal}: equal sets
    hash equal (on any domain). Folding [fwd] visits pairs in
    [Loc.compare] order, which is canonical for the value, and
    {!Loc.hash} is structural, so neither interning nor construction
    order can split equal sets. Used by the {!Engine} sub-tree-sharing
    memo to index stored (IN, OUT) entries in O(1) expected instead of a
    linear [equal] scan. *)
let hash (s : t) : int =
  let comb h x = (h * 1000003) lxor x in
  LM.fold
    (fun src m acc ->
      LM.fold
        (fun tgt c acc ->
          comb (comb acc (Loc.hash tgt)) (match c with D -> 17 | P -> 19))
        m
        (comb acc (Loc.hash src)))
    s.fwd (comb 0 s.card)
  land max_int

(** Force (and memoize) the reverse index now. Call before sharing a
    set across domains for read-only parallel querying: two domains
    racing to force the same lazy suspension is a runtime error in
    OCaml 5, and a primed set has no suspension left to race on. *)
let prime (s : t) : unit = ignore (Lazy.force s.rev)

(** Every location mentioned (as source or target) — assembled from the
    two index levels, without folding over pairs. *)
let all_locs (s : t) : Loc.Set.t =
  LM.fold
    (fun src _ acc -> Loc.Set.add src acc)
    s.fwd
    (LM.fold (fun tgt _ acc -> Loc.Set.add tgt acc) (rev s) Loc.Set.empty)

let pp ppf (s : t) =
  let pairs = to_list s in
  Fmt.pf ppf "{%a}"
    (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (a, b, c) ->
         Fmt.pf ppf "(%a,%a,%s)" Loc.pp a Loc.pp b (cert_to_string c)))
    pairs

let to_string s = Fmt.str "%a" pp s

(* ------------------------------------------------------------------ *)
(* Analysis states: Bottom or a reached set                           *)
(* ------------------------------------------------------------------ *)

(** [None] is Figure 4's Bottom: unreachable / not yet computed. It is
    the identity of [merge_state] — merging with Bottom must not demote
    definite pairs. *)
type state = t option

let bot : state = None

let merge_state (a : state) (b : state) : state =
  match (a, b) with
  | None, s | s, None -> s
  | Some a, Some b -> Some (merge a b)

let state_equal (a : state) (b : state) =
  match (a, b) with
  | None, None -> true
  | Some a, Some b -> equal a b
  | None, Some _ | Some _, None -> false

let state_covered_by (a : state) (b : state) =
  match (a, b) with
  | None, _ -> true
  | Some _, None -> false
  | Some a, Some b -> covered_by a b

let pp_state ppf = function
  | None -> Fmt.string ppf "<bottom>"
  | Some s -> pp ppf s
