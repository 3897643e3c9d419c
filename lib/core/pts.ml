(** Points-to sets: finite maps from (source, target) location pairs to a
    certainty — definite or possible (paper Definitions 3.1/3.2).

    The representation is one source-indexed map ([source -> target ->
    cert]) plus the pair count, maintained incrementally, so cardinality
    is O(1) and serves as a pre-check for {!equal} and {!covered_by}.
    Every rule that builds or reads a set goes by source (Figure 1's
    kill/change/gen, §4.1 map/unmap, Figure 4's merge); the rare
    target-directed operations ({!remove_tgt}, {!all_locs}) scan the
    map. A set is plain immutable data: it holds no closure or
    suspension, so any number of domains may read it at once.

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
  card : int;  (** number of pairs *)
  mutable hash : int;  (** {!hash} once computed, [-1] before *)
}

(* Invariants: submaps of [fwd] are never empty; [card] is the number
   of pairs; [hash] is [-1] or the digest of [fwd]. Every set is built
   by [mk], which resets [hash], so no update can carry a stale digest
   over. Keys are not interned here — the producers ({!Lval},
   {!Tenv}, {!Map_unmap}) build locations through the interning smart
   constructors, so the [Loc.compare] fast path fires throughout
   without paying a hash lookup per insertion. *)

(** Pack a map whose pair count is [card]: the only constructor. *)
let mk fwd card = { fwd; card; hash = -1 }

let empty : t = mk LM.empty 0

let is_empty (s : t) = s.card = 0

let cert_eq (a : cert) b = a == b

(** Add a pair, overriding any existing certainty (used for gen sets:
    the newly generated relationship replaces the old one). *)
let add src tgt cert (s : t) : t =
  match LM.find_opt src s.fwd with
  | None -> mk (LM.add src (LM.singleton tgt cert) s.fwd) (s.card + 1)
  | Some m ->
      let m' = LM.add tgt cert m in
      if m' == m then s (* already bound to the same certainty *)
      else if LM.mem tgt m then
        (* certainty change only: the pair count is unchanged *)
        mk (LM.add src m' s.fwd) s.card
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
          else mk (LM.add src (LM.add tgt c' m) s.fwd) s.card)

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

(** Remove every relationship whose source is [src]. *)
let kill_src src (s : t) : t =
  match LM.find_opt src s.fwd with
  | None -> s
  | Some m -> mk (LM.remove src s.fwd) (s.card - LM.cardinal m)

(** A target map with every certainty possible: the map itself when it
    already is. *)
let demote m = if LM.for_all (fun _ c -> c == P) m then m else LM.map (fun _ -> P) m

(** Demote every relationship of [src] from definite to possible. *)
let weaken_src src (s : t) : t =
  match LM.find_opt src s.fwd with
  | None -> s
  | Some m ->
      let m' = demote m in
      if m' == m then s else mk (LM.add src m' s.fwd) s.card

let fold f (s : t) acc =
  LM.fold (fun src m acc -> LM.fold (fun tgt c acc -> f src tgt c acc) m acc) s.fwd acc

let iter f (s : t) = LM.iter (fun src m -> LM.iter (fun tgt c -> f src tgt c) m) s.fwd

let iter_srcs f (s : t) = LM.iter f s.fwd

let rows (s : t) = LM.bindings s.fwd

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

(** Remove every relationship whose target is [tgt]: a {!filter}, so a
    set in which no source points at [tgt] is returned itself. *)
let remove_tgt tgt (s : t) : t = filter (fun _ t _ -> not (Loc.equal t tgt)) s

let cardinal (s : t) = s.card

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
              Some (demote m)
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

(* ------------------------------------------------------------------ *)
(* Row accumulators: a least upper bound built in place               *)
(* ------------------------------------------------------------------ *)

(* Per-target steps of {!row_cmp}'s flags: bit 1 holds while the bound's
   row [ma] subsumes the visit's row [mb] (their merge is [ma]), bit 2
   while [mb] subsumes [ma]. A one-sided target becomes possible in the
   merge. *)
let both flags ca cb = if ca == cb then flags else if ca == D then flags land 2 else flags land 1
let only_b flags cb = if cb == D then 0 else flags land 2

(** How two target maps of one source order: 3 when equal, 1 when [ma]
    strictly subsumes [mb], 2 for the converse, 0 when their merge is
    neither. One lookup per target of [mb], counting the shared ones,
    and a scan of [ma] only when it has targets [mb] lacks; the
    accumulator packs the count above the two flag bits, so a check
    allocates one closure. *)
let row_cmp ma mb =
  let acc =
    LM.fold
      (fun t cb acc ->
        match LM.find t ma with
        | ca -> ((acc lsr 2 + 1) lsl 2) lor both (acc land 3) ca cb
        | exception Not_found -> acc land lnot 3 lor only_b (acc land 3) cb)
      mb 3
  in
  let flags = acc land 3 in
  if flags = 0 || acc lsr 2 = LM.cardinal ma then flags
  else if LM.for_all (fun t ca -> ca == P || LM.mem t mb) ma then flags land 1
  else 0

(** Least upper bound of two target maps of one source, neither of
    which subsumes the other. *)
let row_union ma mb =
  LM.merge
    (fun _tgt ca cb ->
      match (ca, cb) with
      | None, None -> None
      | Some _, None | None, Some _ -> Some P
      | Some ca, Some cb -> Some (cert_and ca cb))
    ma mb

module Acc = struct
  type set = t

  (* The bound as parallel source-sorted arrays, the first [len] slots
     live: each source's bound row, and in [last] the row the latest
     visit with that source brought, which the bound already covers.
     [cur] is a set equal to the bound when one is known: a visit that
     covered everything before it, or the last {!freeze}. [shape] is a
     set with exactly the bound's sources, which {!freeze} copies the
     tree shape of. *)
  type rows = {
    mutable srcs : Loc.t array;
    mutable maps : cert LM.t array;
    mutable last : cert LM.t array;
    mutable len : int;
    mutable cur : set option;
    mutable shape : set option;
  }

  type state = Empty | One of set | Rows of rows

  (* A bound, shared by every accumulator whose visits so far were the
     same sets in the same order (see {!chain}). [refs] counts the
     accumulators pointing here, and a shared cell is never mutated: an
     add copies it first. *)
  type cell = { mutable st : state; mutable refs : int }
  type t = { mutable cell : cell }

  (* The latest {!add} that did not adopt another's result: the visit,
     the cell it started from ([None]: an empty one) and the cell it
     produced. *)
  type chain = { mutable row : set; mutable before : cell option; mutable after : cell }

  let create () = { cell = { st = Empty; refs = 1 } }

  (* [row] starts as a set no caller holds, so nothing matches it *)
  let chain () = { row = mk LM.empty 0; before = None; after = (create ()).cell }

  let rows_of (s : set) =
    let n = LM.cardinal s.fwd in
    let srcs = Array.make n Loc.Null and maps = Array.make n LM.empty in
    let i = ref 0 in
    LM.iter
      (fun src m ->
        srcs.(!i) <- src;
        maps.(!i) <- m;
        incr i)
      s.fwd;
    { srcs; maps; last = Array.copy maps; len = n; cur = Some s; shape = Some s }

  (* One in-step walk of the bound's rows against a visit's. Slots are
     rewritten in place; the arrays are copied only when the visit brings
     a source the bound lacks. [changed]: the bound grew; [covers]: the
     new bound equals the visit; [lacks]: the visit misses a source of
     the bound. *)
  type walk = {
    mutable i : int;  (** next unread slot of the old arrays *)
    mutable j : int;  (** next slot to write *)
    mutable osrcs : Loc.t array;
    mutable omaps : cert LM.t array;
    mutable olast : cert LM.t array;
    mutable changed : bool;
    mutable covers : bool;
    mutable lacks : bool;
  }

  let add_rows r (s : set) =
    let w =
      {
        i = 0;
        j = 0;
        osrcs = r.srcs;
        omaps = r.maps;
        olast = r.last;
        changed = false;
        covers = true;
        lacks = false;
      }
    in
    let put src m l =
      let j = w.j in
      if w.osrcs != r.srcs then begin
        w.osrcs.(j) <- src;
        w.omaps.(j) <- m;
        w.olast.(j) <- l
      end
      else begin
        if w.omaps.(j) != m then w.omaps.(j) <- m;
        if w.olast.(j) != l then w.olast.(j) <- l
      end;
      w.j <- j + 1
    in
    (* a source of the bound the visit lacks: its pairs become possible *)
    let only_old () =
      let m = r.maps.(w.i) in
      w.covers <- false;
      w.lacks <- true;
      let m' = demote m in
      if m' != m then w.changed <- true;
      put r.srcs.(w.i) m' r.last.(w.i);
      w.i <- w.i + 1
    in
    LM.iter
      (fun src mb ->
        while w.i < r.len && r.srcs.(w.i) != src && Loc.compare r.srcs.(w.i) src < 0 do
          only_old ()
        done;
        if w.i < r.len && (r.srcs.(w.i) == src || Loc.compare r.srcs.(w.i) src = 0) then begin
          let ma = r.maps.(w.i) in
          let m =
            if ma == mb then ma
            else if r.last.(w.i) == mb && not w.covers then
              (* merged before; whether the visit covers is settled *)
              ma
            else
              match row_cmp ma mb with
              | 3 -> if w.covers then mb else ma
              | 1 ->
                  w.covers <- false;
                  ma
              | 2 ->
                  w.changed <- true;
                  mb
              | _ ->
                  w.changed <- true;
                  w.covers <- false;
                  row_union ma mb
          in
          put r.srcs.(w.i) m mb;
          w.i <- w.i + 1
        end
        else begin
          (* a source only the visit has: leave the in-place arrays for
             larger copies *)
          if w.osrcs == r.srcs then begin
            let cap = r.len + LM.cardinal s.fwd in
            let osrcs = Array.make cap Loc.Null
            and omaps = Array.make cap LM.empty
            and olast = Array.make cap LM.empty in
            Array.blit r.srcs 0 osrcs 0 w.j;
            Array.blit r.maps 0 omaps 0 w.j;
            Array.blit r.last 0 olast 0 w.j;
            w.osrcs <- osrcs;
            w.omaps <- omaps;
            w.olast <- olast
          end;
          w.changed <- true;
          let m = demote mb in
          if m != mb then w.covers <- false;
          put src m mb
        end)
      s.fwd;
    while w.i < r.len do
      only_old ()
    done;
    let grew = w.j > r.len in
    r.srcs <- w.osrcs;
    r.maps <- w.omaps;
    r.last <- w.olast;
    r.len <- w.j;
    if not w.lacks then r.shape <- Some s else if grew then r.shape <- None;
    if w.changed then r.cur <- (if w.covers then Some s else None)
    else if w.covers && Option.is_none r.cur then r.cur <- Some s

  let add_state c (s : set) =
    match c.st with
    | Empty -> c.st <- One s
    | One a ->
        if a != s then begin
          let r = rows_of a in
          c.st <- Rows r;
          add_rows r s
        end
    | Rows r -> add_rows r s

  let copy_state = function
    | Rows r ->
        let sub a = Array.sub a 0 r.len in
        Rows { r with srcs = sub r.srcs; maps = sub r.maps; last = sub r.last }
    | (Empty | One _) as st -> st

  let move acc c =
    if acc.cell != c then begin
      acc.cell.refs <- acc.cell.refs - 1;
      c.refs <- c.refs + 1;
      acc.cell <- c
    end

  (* Counts [records] and times the walks into [t_record]: a chain
     adoption or a first visit costs less than the two clock reads. *)
  let add ch acc (s : set) =
    let c = acc.cell in
    let m = Metrics.cur () in
    if c.st != Empty then m.Metrics.records <- m.Metrics.records + 1;
    if ch.row == s && match ch.before with None -> c.st == Empty | Some b -> b == c then
      (* the latest add took this same bound by this same visit *)
      move acc ch.after
    else begin
      let before = match c.st with Empty -> None | One _ | Rows _ -> Some c in
      if c.refs > 1 then move acc { st = copy_state c.st; refs = 0 };
      (match before with
      | None -> add_state acc.cell s
      | Some _ ->
          let t0 = Metrics.now () in
          add_state acc.cell s;
          m.Metrics.t_record <- m.Metrics.t_record +. (Metrics.now () -. t0));
      ch.row <- s;
      ch.before <- before;
      ch.after <- acc.cell
    end

  let freeze acc : set =
    match acc.cell.st with
    | Empty -> empty
    | One a -> a
    | Rows { cur = Some s; _ } -> s
    | Rows r ->
        let card = ref 0 in
        for k = 0 to r.len - 1 do
          card := !card + LM.cardinal r.maps.(k)
        done;
        let fwd =
          match r.shape with
          | Some t ->
              (* same sources: rebuild [t]'s tree in order, no compares *)
              let k = ref (-1) in
              LM.mapi
                (fun _ _ ->
                  incr k;
                  r.maps.(!k))
                t.fwd
          | None ->
              let fwd = ref LM.empty in
              for k = 0 to r.len - 1 do
                fwd := LM.add r.srcs.(k) r.maps.(k) !fwd
              done;
              !fwd
        in
        let s = mk fwd !card in
        r.cur <- Some s;
        s
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
    order can split equal sets. Computed on first use and kept in the
    set; two domains racing on the first call write the same int. *)
let hash (s : t) : int =
  if s.hash >= 0 then s.hash
  else begin
    let comb h x = (h * 1000003) lxor x in
    let h =
      LM.fold
        (fun src m acc ->
          LM.fold
            (fun tgt c acc ->
              comb (comb acc (Loc.hash tgt)) (match c with D -> 17 | P -> 19))
            m
            (comb acc (Loc.hash src)))
        s.fwd (comb 0 s.card)
      land max_int
    in
    s.hash <- h;
    h
  end

(* Both keys' digests are cached, so unequal digests settle a probe
   before {!equal} is asked (and counted in [Metrics]). *)
module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let hash = hash
  let equal a b = hash a = hash b && equal a b
end)

(** A no-op: a set holds no suspension, so there is nothing to force
    before sharing it across domains. Kept only because the frozen
    [perf/] harness still calls it; delete it with that call. *)
let prime (_ : t) : unit = ()

(** Every location mentioned, as source or target. *)
let all_locs (s : t) : Loc.Set.t =
  LM.fold
    (fun src m acc -> LM.fold (fun tgt _ acc -> Loc.Set.add tgt acc) m (Loc.Set.add src acc))
    s.fwd Loc.Set.empty

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
