(** Abstract stack locations (paper §3.1).

    Every real stack location that is the source or target of a points-to
    relationship is represented by exactly one named abstract location
    (Property 3.1); an abstract location may represent one or more real
    locations (Property 3.2). The constructors:

    - [Var] — a named local, formal parameter or global variable;
    - [Fld] — a structure field of another location (nested);
    - [Head]/[Tail] — the two abstract locations of an array: element 0
      and elements 1..n (paper §3.2), composable for nested arrays;
    - [Sym] — a symbolic name for an invisible variable: [Sym l] is the
      location reachable by dereferencing [l] when the real target is not
      in scope (printed "1_x", "2_x", ... as in §4.1);
    - [Heap] — the single abstract location for all heap storage;
    - [Null] — the NULL target (pointer locals are initialized to point
      definitely to NULL; NULL pairs are excluded from statistics);
    - [Str] — string-literal storage;
    - [Fun] — a function, the target of function pointers (§5);
    - [Ret] — the return-value pseudo-location of a function. *)

type var_kind =
  | Kglobal
  | Klocal
  | Kparam

type t =
  | Var of string * var_kind
  | Fld of t * string
  | Head of t
  | Tail of t
  | Sym of t
  | Heap
  | Site of int
      (** a heap allocation site (statement id), when the analysis runs
          with [heap_by_site] — the refinement of the single [Heap]
          location used by the companion heap analyses the paper defers
          to [Ghiya 93] *)
  | Null
  | Str
  | Fun of string
  | Ret of string

(* ------------------------------------------------------------------ *)
(* Interning                                                          *)
(* ------------------------------------------------------------------ *)

(* Locations are built over and over from the same small vocabulary (the
   L-/R-location rules rebuild them per statement, the map/unmap
   machinery per call) and then compared many times as [Map]/[Set] keys
   on the engine's hot path. We intern every location into an id-stamped
   table: structurally equal locations share one physical
   representative, so the comparisons below answer most queries with a
   pointer check instead of a structural walk.

   The table is domain-local ([Domain.DLS]): each {!Pool} worker interns
   into its own table, so the lock-free hot path stays lock-free under
   parallel analysis. Physical equality is only ever a fast path —
   [compare]/[equal] fall back to the structural walk — so values built
   on one domain remain correct (just marginally slower to compare) when
   consumed on another. A table lives as long as its domain — abstract
   locations are tiny and their vocabulary is bounded by the programs
   the domain analyzes. *)

module HT = Hashtbl.Make (struct
  type nonrec t = t

  let equal (a : t) (b : t) = a == b || Stdlib.compare a b = 0
  let hash (l : t) = Hashtbl.hash l
end)

type intern_tbl = { tbl : (t * int) HT.t; mutable next_id : int }

let tbl_key : intern_tbl Domain.DLS.key =
  Domain.DLS.new_key (fun () -> { tbl = HT.create 4096; next_id = 0 })

(** The canonical physical representative of [l] (sub-locations
    canonicalized too) in the calling domain. Idempotent; safe on any
    location. *)
let intern (l : t) : t =
  let it = Domain.DLS.get tbl_key in
  let rec go l =
    match HT.find_opt it.tbl l with
    | Some (c, _) -> c
    | None ->
        let canon =
          match l with
          | Fld (b, f) -> Fld (go b, f)
          | Head b -> Head (go b)
          | Tail b -> Tail (go b)
          | Sym b -> Sym (go b)
          | Var _ | Heap | Site _ | Null | Str | Fun _ | Ret _ -> l
        in
        HT.add it.tbl canon (canon, it.next_id);
        it.next_id <- it.next_id + 1;
        canon
  in
  go l

(** The stamp of [l] in the calling domain's intern table (interning it
    on demand). Equal locations have equal ids within one domain; ids
    are assigned in first-seen order. *)
let id (l : t) : int =
  let it = Domain.DLS.get tbl_key in
  match HT.find_opt it.tbl l with
  | Some (_, i) -> i
  | None ->
      let c = intern l in
      (match HT.find_opt it.tbl c with Some (_, i) -> i | None -> assert false)

let interned_count () = (Domain.DLS.get tbl_key).next_id

(** Structural hash, consistent with {!equal} across domains (interning
    never changes structure, and [Hashtbl.hash] is depth-limited but
    deterministic on equal values). *)
let hash (l : t) : int = Hashtbl.hash l

(* Smart constructors returning interned locations. Use these on hot
   paths; the bare variant constructors remain available (and correct)
   for pattern matching and cold code. *)

let var n k = intern (Var (n, k))
let fld b f = intern (Fld (b, f))
let head b = intern (Head b)
let tail b = intern (Tail b)
let sym b = intern (Sym b)
let site i = intern (Site i)
let func f = intern (Fun f)
let ret f = intern (Ret f)

(* Total order identical to [Stdlib.compare] on this type (constant
   constructors first in declaration order, then blocks in declaration
   order, fields left-to-right) — map/set iteration order is part of
   the engine's observable behavior (symbolic-name assignment follows
   it), so it must not change. The physical-equality fast paths are
   what interning buys: equal interned locations compare in O(1). *)

let order_tag = function
  | Heap -> 0
  | Null -> 1
  | Str -> 2
  | Var _ -> 3
  | Fld _ -> 4
  | Head _ -> 5
  | Tail _ -> 6
  | Sym _ -> 7
  | Site _ -> 8
  | Fun _ -> 9
  | Ret _ -> 10

let rec compare (a : t) (b : t) : int =
  if a == b then 0
  else
    match (a, b) with
    | Var (n1, k1), Var (n2, k2) ->
        let c = String.compare n1 n2 in
        if c <> 0 then c else Stdlib.compare k1 k2
    | Fld (b1, f1), Fld (b2, f2) ->
        let c = compare b1 b2 in
        if c <> 0 then c else String.compare f1 f2
    | Head b1, Head b2 | Tail b1, Tail b2 | Sym b1, Sym b2 -> compare b1 b2
    | Site i1, Site i2 -> Int.compare i1 i2
    | Fun f1, Fun f2 | Ret f1, Ret f2 -> String.compare f1 f2
    | _ -> Int.compare (order_tag a) (order_tag b)

let equal a b = a == b || compare a b = 0

(** The base variable (or special location) a location is built from. *)
let rec root = function
  | Fld (b, _) | Head b | Tail b | Sym b -> root b
  | (Var _ | Heap | Site _ | Null | Str | Fun _ | Ret _) as l -> l

(** Number of [Sym] constructors on the path: the "level of indirection"
    of a symbolic name (the k of "k_x"). *)
let rec sym_depth = function
  | Sym b -> 1 + sym_depth b
  | Fld (b, _) | Head b | Tail b -> sym_depth b
  | Var _ | Heap | Site _ | Null | Str | Fun _ | Ret _ -> 0

(** Is this location visible inside every procedure (globals, heap, the
    special locations)? Locations rooted at locals, parameters, return
    slots or symbolic names are procedure-specific. *)
let is_global_visible l =
  match root l with
  | Var (_, Kglobal) | Heap | Site _ | Null | Str | Fun _ -> true
  | Var (_, (Klocal | Kparam)) | Ret _ -> false
  | Fld _ | Head _ | Tail _ | Sym _ -> assert false

(** Does the location represent exactly one real stack location (given
    that its symbolic names represent single invisible variables — the
    multi-representation case is handled by the map/unmap demotions)?
    Non-singular locations receive only weak updates and their generated
    relationships are demoted to possible. *)
let rec singular = function
  | Var _ | Null | Fun _ | Ret _ -> true
  | Fld (b, _) | Head b -> singular b
  | Sym b -> singular b
  | Tail _ | Heap | Site _ | Str -> false

(** Table 4 categorization of the root: local / global / formal /
    symbolic. [None] for special locations (heap, null, functions). *)
let category l =
  let rec has_sym = function
    | Sym _ -> true
    | Fld (b, _) | Head b | Tail b -> has_sym b
    | Var _ | Heap | Site _ | Null | Str | Fun _ | Ret _ -> false
  in
  if has_sym l then Some `Sy
  else
    match root l with
    | Var (_, Kglobal) -> Some `Gl
    | Var (_, Klocal) -> Some `Lo
    | Var (_, Kparam) -> Some `Fp
    | Ret _ -> Some `Lo
    | Heap | Site _ | Null | Str | Fun _ -> None
    | Fld _ | Head _ | Tail _ | Sym _ -> None

let is_null = function Null -> true | _ -> false

let is_fun = function Fun _ -> true | _ -> false

(** On the stack for the purpose of the Table 3/5 stack/heap split:
    everything rooted at a named variable or symbolic name. *)
let is_stack l =
  match root l with
  | Var _ | Ret _ -> true
  | Heap | Site _ | Null | Str | Fun _ -> false
  | Fld _ | Head _ | Tail _ | Sym _ -> false

let rec pp ppf = function
  | Var (n, _) -> Fmt.string ppf n
  | Fld (b, f) -> Fmt.pf ppf "%a.%s" pp b f
  | Head b -> Fmt.pf ppf "%a_head" pp b
  | Tail b -> Fmt.pf ppf "%a_tail" pp b
  | Sym b ->
      (* collapse nested symbolic names: Sym (Sym (Var x)) prints 2_x *)
      let rec count k = function Sym b -> count (k + 1) b | l -> (k, l) in
      let k, inner = count 1 b in
      Fmt.pf ppf "%d_%a" k pp inner
  | Heap -> Fmt.string ppf "heap"
  | Site i -> Fmt.pf ppf "heap@%d" i
  | Null -> Fmt.string ppf "NULL"
  | Str -> Fmt.string ppf "str"
  | Fun f -> Fmt.pf ppf "fn:%s" f
  | Ret f -> Fmt.pf ppf "ret:%s" f

let to_string l = Fmt.str "%a" pp l

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Set = Stdlib.Set.Make (Ord)
module Map = Stdlib.Map.Make (Ord)
