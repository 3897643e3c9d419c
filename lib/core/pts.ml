(** Points-to sets: finite maps from (source, target) location pairs to a
    certainty — definite or possible (paper Definitions 3.1/3.2).

    The representation is two source-indexed maps ([source -> target ->
    cert]), the global part and the frame part, plus the pair counts,
    maintained incrementally, so cardinality is O(1) and serves as a
    pre-check for {!equal} and {!covered_by}. Every rule that builds or
    reads a set goes by source (Figure 1's kill/change/gen, §4.1
    map/unmap, Figure 4's merge), so a source's part is decided once per
    operation; the rare target-directed operations ({!remove_tgt},
    {!all_locs}) scan both maps. Walks that others observe interleave
    the two parts in [Loc.compare] order of the sources. A set is plain
    immutable data with two caches (its hash and its global index): it
    holds no closure or suspension, so any number of domains may read it
    at once.

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

(** The global rows a call must visit, for one set of declared global
    cells: see {!global_index}. *)
type index =
  | No_index  (** not computed *)
  | Index of { cells : int LM.t; srcs : Loc.Set.t }
      (** computed for the declared cells [cells] (compared physically) *)

type t = {
  glob : cert LM.t LM.t;  (** the global part: source -> target -> certainty *)
  frame : cert LM.t LM.t;  (** the frame part, keyed the same way *)
  gcard : int;  (** number of pairs in [glob] *)
  card : int;  (** number of pairs *)
  mutable hash : int;  (** {!hash} once computed, [-1] before *)
  mutable index : index;  (** {!global_index} once computed *)
}

(* Invariants: submaps are never empty; a source is in [glob] iff
   {!is_global_src} holds of it, so no source is in both parts; [gcard]
   and [card] count the pairs of [glob] and of both parts; [hash] is
   [-1] or the digest of the pairs; [index] is [No_index] or the index
   of [glob] for its [cells]. Every set is built by [mk], which resets
   [hash]; an update passes on the index it keeps exact. Keys are not
   interned here — the producers ({!Lval}, {!Tenv}, {!Map_unmap}) build
   locations through the interning smart constructors, so the
   [Loc.compare] fast path fires throughout without paying a hash
   lookup per insertion. *)

(** The only constructor. *)
let mk glob frame gcard card index = { glob; frame; gcard; card; hash = -1; index }

let empty : t = mk LM.empty LM.empty 0 0 No_index

let is_empty (s : t) = s.card = 0

let cert_eq (a : cert) b = a == b

(** Does a row with this source belong to the global part: a global
    variable, or a field or array part of one, with no symbolic name on
    the path? *)
let rec is_global_src = function
  | Loc.Var (_, k) -> k == Loc.Kglobal
  | Loc.Fld (b, _) | Loc.Head b | Loc.Tail b -> is_global_src b
  | Loc.Sym _ | Loc.Heap | Loc.Site _ | Loc.Null | Loc.Str | Loc.Fun _ | Loc.Ret _ -> false

(** The part [src]'s row lives in. *)
let part (s : t) global = if global then s.glob else s.frame

(** [s] with [src]'s row, in the part [global] selects, set to [m] (an
    empty map unbinds it), the set holding [d] more pairs; [index] is
    the new set's index when the row is global. *)
let set_row (s : t) ~global src m d index =
  let put p = if LM.is_empty m then LM.remove src p else LM.add src m p in
  if global then mk (put s.glob) s.frame (s.gcard + d) (s.card + d) index
  else mk s.glob (put s.frame) s.gcard (s.card + d) s.index

(* ------------------------------------------------------------------ *)
(* The global index                                                   *)
(* ------------------------------------------------------------------ *)

(** A target a call keeps as it is: visible, not symbolic and not the
    heap blob. *)
let tgt_names_nothing = function
  | Loc.Heap -> false
  | t -> Loc.is_global_visible t && Loc.sym_depth t = 0

let names_nothing m = LM.for_all (fun t _ -> tgt_names_nothing t) m

(** Is the global row [m] of [src] one the index of [cells] lists? *)
let indexed cells src m = (not (names_nothing m)) || not (LM.mem src cells)

let with_srcs index cells srcs srcs' =
  if srcs' == srcs then index else Index { cells; srcs = srcs' }

(** The index after [src]'s global row became [m] (empty: unbound). *)
let reindex index src m =
  match index with
  | No_index -> index
  | Index { cells; srcs } ->
      with_srcs index cells srcs
        (if (not (LM.is_empty m)) && indexed cells src m then Loc.Set.add src srcs
         else Loc.Set.remove src srcs)

(** The index after [src]'s global row gained the target [tgt]: a row
    that named nothing names something now only through [tgt]. *)
let reindex_add index src tgt =
  match index with
  | No_index -> index
  | Index { cells; srcs } ->
      if tgt_names_nothing tgt && LM.mem src cells then index
      else with_srcs index cells srcs (Loc.Set.add src srcs)

let global_index ~cells (s : t) =
  match s.index with
  | Index ix when ix.cells == cells -> ix.srcs
  | (No_index | Index _) when LM.is_empty s.glob ->
      (* nothing to walk, and {!empty} is shared: no cache written *)
      Loc.Set.empty
  | No_index | Index _ ->
      let srcs =
        LM.fold
          (fun src m acc -> if indexed cells src m then Loc.Set.add src acc else acc)
          s.glob Loc.Set.empty
      in
      s.index <- Index { cells; srcs };
      srcs

(* ------------------------------------------------------------------ *)
(* Pairs                                                              *)
(* ------------------------------------------------------------------ *)

(** Add a pair, overriding any existing certainty (used for gen sets:
    the newly generated relationship replaces the old one). *)
let add src tgt cert (s : t) : t =
  let global = is_global_src src in
  match LM.find_opt src (part s global) with
  | None ->
      set_row s ~global src (LM.singleton tgt cert) 1
        (if global then reindex_add s.index src tgt else s.index)
  | Some m ->
      let m' = LM.add tgt cert m in
      if m' == m then s (* already bound to the same certainty *)
      else if LM.mem tgt m then
        (* certainty change only: the pair count and the index are unchanged *)
        set_row s ~global src m' 0 s.index
      else
        set_row s ~global src m' 1 (if global then reindex_add s.index src tgt else s.index)

(** Add a pair, weakening: if present as definite and added as possible
    (or vice versa), the result is possible. Used when accumulating
    independent facts. *)
let add_weak src tgt cert (s : t) : t =
  let global = is_global_src src in
  match LM.find_opt src (part s global) with
  | None ->
      set_row s ~global src (LM.singleton tgt cert) 1
        (if global then reindex_add s.index src tgt else s.index)
  | Some m -> (
      match LM.find_opt tgt m with
      | None ->
          set_row s ~global src (LM.add tgt cert m) 1
            (if global then reindex_add s.index src tgt else s.index)
      | Some c0 ->
          let c' = cert_and c0 cert in
          if cert_eq c' c0 then s else set_row s ~global src (LM.add tgt c' m) 0 s.index)

let find src tgt (s : t) : cert option =
  match LM.find_opt src (part s (is_global_src src)) with
  | None -> None
  | Some m -> LM.find_opt tgt m

let mem src tgt s = Option.is_some (find src tgt s)

(** The target map of [src] (empty when it has no relationships). The
    returned map is the set's own submap, shared, not a copy. *)
let tgt_map src (s : t) : cert LM.t =
  match LM.find_opt src (part s (is_global_src src)) with None -> LM.empty | Some m -> m

(** All targets of [src], with certainties. *)
let targets src (s : t) : (Loc.t * cert) list =
  LM.fold (fun tgt c acc -> (tgt, c) :: acc) (tgt_map src s) []

(** [add_rows rows s]: bind each row's source to exactly that target
    map, replacing the row it had (an empty map unbinds it), and pack
    once. A row is shared, not copied, and one physically equal to the
    source's current row leaves the set untouched — so assembling a set
    from rows (a callee input) or re-binding a caller's rows after a
    call costs a tree update only per row that changed. *)
let add_rows rows (s : t) : t =
  let glob = ref s.glob and frame = ref s.frame in
  let gcard = ref s.gcard and card = ref s.card and index = ref s.index in
  List.iter
    (fun (src, m) ->
      let global = is_global_src src in
      let p = if global then !glob else !frame in
      match LM.find_opt src p with
      | Some m0 when m0 == m -> ()
      | old ->
          let d = LM.cardinal m - match old with Some m0 -> LM.cardinal m0 | None -> 0 in
          let p = if LM.is_empty m then LM.remove src p else LM.add src m p in
          card := !card + d;
          if global then begin
            glob := p;
            gcard := !gcard + d;
            index := reindex !index src m
          end
          else frame := p)
    rows;
  if !glob == s.glob && !frame == s.frame then s else mk !glob !frame !gcard !card !index

(** Remove every relationship whose source is [src]. *)
let kill_src src (s : t) : t =
  let global = is_global_src src in
  match LM.find_opt src (part s global) with
  | None -> s
  | Some m ->
      set_row s ~global src LM.empty (-LM.cardinal m)
        (if global then reindex s.index src LM.empty else s.index)

(** A target map with every certainty possible: the map itself when it
    already is. *)
let demote m = if LM.for_all (fun _ c -> c == P) m then m else LM.map (fun _ -> P) m

(** Demote every relationship of [src] from definite to possible. *)
let weaken_src src (s : t) : t =
  let global = is_global_src src in
  match LM.find_opt src (part s global) with
  | None -> s
  | Some m ->
      let m' = demote m in
      if m' == m then s else set_row s ~global src m' 0 s.index

(* ------------------------------------------------------------------ *)
(* Iteration, in Loc.compare order of the sources                     *)
(* ------------------------------------------------------------------ *)

(** Does frame source [f] sort before global source [g]? Global sources
    are headed by a variable, a field or an array part; a frame source
    headed by the heap sorts before every one of them, one headed by a
    symbolic name, a site or a return slot after, and only the cells of
    locals and parameters interleave with them, where the two sources
    differ at their roots: two variables' names differing in their
    first letter settle it without a string compare. *)
let rec frame_before f g =
  match (f, g) with
  | (Loc.Heap | Loc.Null | Loc.Str), _ -> true
  | (Loc.Sym _ | Loc.Site _ | Loc.Fun _ | Loc.Ret _), _ -> false
  | Loc.Var (nf, _), Loc.Var (ng, _)
    when String.length nf > 0 && String.length ng > 0
         && not (Char.equal (String.unsafe_get nf 0) (String.unsafe_get ng 0)) ->
      Char.compare (String.unsafe_get nf 0) (String.unsafe_get ng 0) < 0
  | Loc.Fld (bf, _), Loc.Fld (bg, _) | Loc.Head bf, Loc.Head bg | Loc.Tail bf, Loc.Tail bg ->
      frame_before bf bg
  | _ -> Loc.compare f g < 0

(** Fold the rows of both parts in [Loc.compare] order of their sources:
    the global part's by its own fold, the frame part's interleaved from
    its bindings. *)
let fold_rows f (s : t) acc =
  if LM.is_empty s.frame then LM.fold f s.glob acc
  else if LM.is_empty s.glob then LM.fold f s.frame acc
  else begin
    let rest = ref (LM.bindings s.frame) in
    let rec before src acc =
      match !rest with
      | (fsrc, fm) :: tl when frame_before fsrc src ->
          rest := tl;
          before src (f fsrc fm acc)
      | _ -> acc
    in
    let acc = LM.fold (fun src m acc -> f src m (before src acc)) s.glob acc in
    List.fold_left (fun acc (src, m) -> f src m acc) acc !rest
  end

let fold f (s : t) acc =
  fold_rows (fun src m acc -> LM.fold (fun tgt c acc -> f src tgt c acc) m acc) s acc

let iter f (s : t) = fold_rows (fun src m () -> LM.iter (fun tgt c -> f src tgt c) m) s ()

let iter_srcs f (s : t) = fold_rows (fun src m () -> f src m) s ()

let iter_frame f (s : t) = LM.iter f s.frame

(** Both parts' bindings, merged; the rows after the last one taken
    from the other part are shared with a part's bindings, not copied. *)
let rows (s : t) =
  if LM.is_empty s.frame then LM.bindings s.glob
  else if LM.is_empty s.glob then LM.bindings s.frame
  else
    let rec go g f =
      match (g, f) with
      | [], l | l, [] -> l
      | ((gsrc, _) as grow) :: gs, ((fsrc, _) as frow) :: fs ->
          if frame_before fsrc gsrc then frow :: go g fs else grow :: go gs f
    in
    go (LM.bindings s.glob) (LM.bindings s.frame)

(* ------------------------------------------------------------------ *)
(* Filters                                                            *)
(* ------------------------------------------------------------------ *)

(* Filters start from [s] and remove only the dropped pairs, so the
   untouched submaps stay physically shared with the input (and a filter
   that drops nothing returns [s] itself). *)

(** One part through a per-pair filter: the new part, its pair count
    and, for the global part, the index. *)
let filter_part f ~global p pcard index =
  LM.fold
    (fun src m ((p, pcard, index) as acc) ->
      let m' = LM.filter (fun tgt c -> f src tgt c) m in
      if m' == m then acc
      else
        ( (if LM.is_empty m' then LM.remove src p else LM.add src m' p),
          pcard - (LM.cardinal m - LM.cardinal m'),
          if global then reindex index src m' else index ))
    p (p, pcard, index)

let filter f (s : t) : t =
  let glob, gcard, index = filter_part f ~global:true s.glob s.gcard s.index in
  let frame, fcard, _ = filter_part f ~global:false s.frame (s.card - s.gcard) No_index in
  if glob == s.glob && frame == s.frame then s else mk glob frame gcard (gcard + fcard) index

(** One part through a per-source filter, like {!filter_part}. *)
let filter_src_part f ~global p pcard index =
  LM.fold
    (fun src m ((p, pcard, index) as acc) ->
      if f src then acc
      else
        ( LM.remove src p,
          pcard - LM.cardinal m,
          if global then reindex index src LM.empty else index ))
    p (p, pcard, index)

(** Keep only the relationships whose source satisfies [f] (evaluated
    once per source, not per pair; retained submaps stay physically
    shared with the input). *)
let filter_src f (s : t) : t =
  let glob, gcard, index = filter_src_part f ~global:true s.glob s.gcard s.index in
  let frame, fcard, _ = filter_src_part f ~global:false s.frame (s.card - s.gcard) No_index in
  if glob == s.glob && frame == s.frame then s else mk glob frame gcard (gcard + fcard) index

let filter_frame f (s : t) : t =
  let frame, fcard, _ = filter_src_part f ~global:false s.frame (s.card - s.gcard) No_index in
  if frame == s.frame then s else mk s.glob frame s.gcard (s.gcard + fcard) s.index

let splice ~(globals : t) ~(frame : t) : t =
  if globals.glob == frame.glob then frame
  else if globals.frame == frame.frame then globals
  else
    mk globals.glob frame.frame globals.gcard
      (globals.gcard + frame.card - frame.gcard)
      globals.index

(** Remove every relationship whose target is [tgt]: a {!filter}, so a
    set in which no source points at [tgt] is returned itself. *)
let remove_tgt tgt (s : t) : t = filter (fun _ t _ -> not (Loc.equal t tgt)) s

let cardinal (s : t) = s.card

let to_list (s : t) = List.rev (fold (fun a b c acc -> (a, b, c) :: acc) s [])

let of_list l = List.fold_left (fun s (a, b, c) -> add_weak a b c s) empty l

(* ------------------------------------------------------------------ *)
(* The lattice                                                        *)
(* ------------------------------------------------------------------ *)

let row_equal ma mb = ma == mb || LM.equal cert_eq ma mb

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
  else
    a.gcard = b.gcard
    && (a.glob == b.glob || LM.equal row_equal a.glob b.glob)
    && (a.frame == b.frame || LM.equal row_equal a.frame b.frame)

(** {!subsumes} on one part. *)
let subsumes_part pa pb =
  pa == pb
  || (not
        (LM.exists
           (fun src mb ->
             match LM.find_opt src pa with
             | None -> true
             | Some ma ->
                 ma != mb
                 && LM.exists
                      (fun tgt cb ->
                        match LM.find_opt tgt ma with
                        | None -> true
                        | Some ca -> not (cert_eq (cert_and ca cb) ca))
                      mb)
           pb))
     && not
          (LM.exists
             (fun src ma ->
               match LM.find_opt src pb with
               | Some mb when mb == ma -> false
               | mbo ->
                   LM.exists
                     (fun tgt ca ->
                       ca == D && match mbo with None -> true | Some mb -> not (LM.mem tgt mb))
                     ma)
             pa)

(** [subsumes a b]: would [merge a b] return exactly [a]? Holds when
    every pair of [b] is in [a] with a certainty unchanged by the merge
    (i.e. [cert_and ca cb = ca]), and every pair of [a] absent from [b]
    is already possible (one-sided pairs demote to possible). Early
    exits make the common fixed-point steady state O(pairs) without
    allocation. *)
let subsumes (a : t) (b : t) : bool =
  b.card <= a.card && subsumes_part a.glob b.glob && subsumes_part a.frame b.frame

(** Least upper bound of one part, counting its pairs into [count]. *)
let merge_part count pa pb =
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
    pa pb

(** Least upper bound: union of pairs; a pair is definite only when
    definite in both operands (a definite pair present on only one side
    becomes possible, since the other side's execution paths do not
    establish it). A merged global row names something when either side's
    does, so the index of the merge is the union of the operands'. *)
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
    let glob, gcard, index =
      if a.glob == b.glob then
        (a.glob, a.gcard, match a.index with No_index -> b.index | Index _ -> a.index)
      else
        let count = ref 0 in
        let glob = merge_part count a.glob b.glob in
        let index =
          match (a.index, b.index) with
          | Index x, Index y when x.cells == y.cells ->
              Index { cells = x.cells; srcs = Loc.Set.union x.srcs y.srcs }
          | (No_index | Index _), _ -> No_index
        in
        (glob, !count, index)
    in
    let count = ref 0 in
    let frame = merge_part count a.frame b.frame in
    mk glob frame gcard (gcard + !count) index
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

  (* One part of the bound as parallel source-sorted arrays, the first
     [len] slots live: each source's bound row, and in [last] the row the
     latest visit with that source brought, which the bound already
     covers. [shape] is a map with exactly the part's sources, which
     {!freeze} copies the tree shape of. *)
  type part = {
    mutable srcs : Loc.t array;
    mutable maps : cert LM.t array;
    mutable last : cert LM.t array;
    mutable len : int;
    mutable shape : cert LM.t LM.t option;
  }

  (* The bound: its global and frame parts, walked separately, and in
     [cur] a set equal to the bound when one is known: a visit that
     covered everything before it, or the last {!freeze}. *)
  type rows = { g : part; f : part; mutable cur : set option }

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
  let chain () =
    { row = mk LM.empty LM.empty 0 0 No_index; before = None; after = (create ()).cell }

  let part_of (p : cert LM.t LM.t) =
    let n = LM.cardinal p in
    let srcs = Array.make n Loc.Null and maps = Array.make n LM.empty in
    let i = ref 0 in
    LM.iter
      (fun src m ->
        srcs.(!i) <- src;
        maps.(!i) <- m;
        incr i)
      p;
    { srcs; maps; last = Array.copy maps; len = n; shape = Some p }

  let rows_of (s : set) = { g = part_of s.glob; f = part_of s.frame; cur = Some s }

  (* One in-step walk of a part's rows against the visit's same part.
     Slots are rewritten in place; the arrays are copied only when the
     visit brings a source the bound lacks. [changed]: the bound grew;
     [covers]: the new bound equals the visit — both over the two parts;
     [lacks]: the visit misses a source of this part. *)
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

  let put w r src m l =
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

  (* a source of the bound the visit lacks: its pairs become possible *)
  let only_old w r =
    let m = r.maps.(w.i) in
    w.covers <- false;
    w.lacks <- true;
    let m' = demote m in
    if m' != m then w.changed <- true;
    put w r r.srcs.(w.i) m' r.last.(w.i);
    w.i <- w.i + 1

  let walk_part w r (vp : cert LM.t LM.t) =
    w.i <- 0;
    w.j <- 0;
    w.osrcs <- r.srcs;
    w.omaps <- r.maps;
    w.olast <- r.last;
    w.lacks <- false;
    LM.iter
      (fun src mb ->
        while w.i < r.len && r.srcs.(w.i) != src && Loc.compare r.srcs.(w.i) src < 0 do
          only_old w r
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
          put w r r.srcs.(w.i) m mb;
          w.i <- w.i + 1
        end
        else begin
          (* a source only the visit has: leave the in-place arrays for
             larger copies *)
          if w.osrcs == r.srcs then begin
            let cap = r.len + LM.cardinal vp in
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
          put w r src m mb
        end)
      vp;
    while w.i < r.len do
      only_old w r
    done;
    let grew = w.j > r.len in
    r.srcs <- w.osrcs;
    r.maps <- w.omaps;
    r.last <- w.olast;
    r.len <- w.j;
    if not w.lacks then r.shape <- Some vp else if grew then r.shape <- None

  let add_rows r (s : set) =
    let w =
      {
        i = 0;
        j = 0;
        osrcs = [||];
        omaps = [||];
        olast = [||];
        changed = false;
        covers = true;
        lacks = false;
      }
    in
    walk_part w r.g s.glob;
    walk_part w r.f s.frame;
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

  let copy_part p =
    let sub a = Array.sub a 0 p.len in
    { p with srcs = sub p.srcs; maps = sub p.maps; last = sub p.last }

  let copy_state = function
    | Rows r -> Rows { r with g = copy_part r.g; f = copy_part r.f }
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

  (* A part's map and pair count, rebuilt from its arrays. *)
  let freeze_part p =
    let card = ref 0 in
    for k = 0 to p.len - 1 do
      card := !card + LM.cardinal p.maps.(k)
    done;
    let map =
      match p.shape with
      | Some t ->
          (* same sources: rebuild [t]'s tree in order, no compares *)
          let k = ref (-1) in
          LM.mapi
            (fun _ _ ->
              incr k;
              p.maps.(!k))
            t
      | None ->
          let map = ref LM.empty in
          for k = 0 to p.len - 1 do
            map := LM.add p.srcs.(k) p.maps.(k) !map
          done;
          !map
    in
    (map, !card)

  let freeze acc : set =
    match acc.cell.st with
    | Empty -> empty
    | One a -> a
    | Rows { cur = Some s; _ } -> s
    | Rows r ->
        let glob, gcard = freeze_part r.g and frame, fcard = freeze_part r.f in
        let s = mk glob frame gcard (gcard + fcard) No_index in
        r.cur <- Some s;
        s
end

(** {!covered_by} on one part. *)
let covered_part p1 p2 =
  p1 == p2
  || (not
        (LM.exists
           (fun src m1 ->
             match LM.find_opt src p2 with
             | None -> true
             | Some m2 -> m1 != m2 && LM.exists (fun tgt _ -> not (LM.mem tgt m2)) m1)
           p1))
     && not
          (LM.exists
             (fun src m2 ->
               match LM.find_opt src p1 with
               | Some m1 when m1 == m2 -> false
               | m1o ->
                   LM.exists
                     (fun tgt c ->
                       c == D
                       && match m1o with None -> true | Some m1 -> LM.find_opt tgt m1 <> Some D)
                     m2)
             p2)

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
  else covered_part s1.glob s2.glob && covered_part s1.frame s2.frame

(** Canonical structural digest, consistent with {!equal}: equal sets
    hash equal (on any domain). Folding the rows visits pairs in
    [Loc.compare] order across both parts, which is canonical for the
    value, and {!Loc.hash} is structural, so neither interning,
    construction order nor the split into parts can split equal sets.
    Computed on first use and kept in the set; two domains racing on the
    first call write the same int. *)
let hash (s : t) : int =
  if s.hash >= 0 then s.hash
  else begin
    let comb h x = (h * 1000003) lxor x in
    let h =
      fold_rows
        (fun src m acc ->
          LM.fold
            (fun tgt c acc ->
              comb (comb acc (Loc.hash tgt)) (match c with D -> 17 | P -> 19))
            m
            (comb acc (Loc.hash src)))
        s (comb 0 s.card)
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
  let add_rows p acc =
    LM.fold
      (fun src m acc -> LM.fold (fun tgt _ acc -> Loc.Set.add tgt acc) m (Loc.Set.add src acc))
      p acc
  in
  add_rows s.frame (add_rows s.glob Loc.Set.empty)

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
