(** L-location and R-location sets (paper §3.2, Table 1).

    Given a points-to set [S] valid at a program point, [lvals] computes
    the set of abstract locations a variable reference may denote when it
    appears on the left of an assignment, and [rvals_ref]/[rvals_rhs]
    compute the locations referred to by right-hand sides. Locations come
    paired with a certainty: definite (the reference denotes exactly this
    location on every path) or possible.

    The computation is compositional over the selector path of the
    reference, which yields every row of Table 1 as a special case and
    extends uniformly to mixed paths such as "a[i].f" and "(*p).f[0]". *)

module Ir = Simple_ir.Ir

type locset = Pts.cert Loc.Map.t

let empty : locset = Loc.Map.empty

let add_loc l c (s : locset) : locset =
  Loc.Map.update l
    (function None -> Some c | Some c0 -> Some (Pts.cert_and c0 c))
    s

let of_list l : locset = List.fold_left (fun s (x, c) -> add_loc x c s) empty l

let to_list (s : locset) = Loc.Map.bindings s

let union (a : locset) (b : locset) : locset =
  Loc.Map.union (fun _ c1 c2 -> Some (Pts.cert_and c1 c2)) a b

let map_cert f (s : locset) : locset = Loc.Map.map f s

let weaken (s : locset) = map_cert (fun _ -> Pts.P) s

(** Apply a field selector to a location. Unions collapse to the base
    location; the heap and string blobs absorb fields. *)
let apply_field tenv fn l f c : (Loc.t * Pts.cert) list =
  match l with
  | Loc.Heap | Loc.Site _ -> [ (l, c) ]
  | Loc.Str -> [ (Loc.Str, c) ]
  | Loc.Null -> []
  | Loc.Fun _ | Loc.Ret _ -> []
  | _ -> if Tenv.is_union_loc tenv fn l then [ (l, c) ] else [ (Loc.fld l f, c) ]

(** Move across sibling objects of an array region (pointer subscripts
    and pointer arithmetic, the "(*a)[i]" rows of Table 1): the head
    element shifted positively lands in the tail; an unknown shift may
    land anywhere in the array. Subscripting a pointer to a non-array
    object stays within that object (the paper's §6 setting). *)
let apply_shift l (idx : Ir.index) c : (Loc.t * Pts.cert) list =
  match l with
  | Loc.Site _ -> [ (l, c) ]
  | Loc.Head b -> (
      match idx with
      | Ir.Izero -> [ (Loc.head b, c) ]
      | Ir.Ipos -> [ (Loc.tail b, c) ]
      | Ir.Iany -> [ (Loc.head b, Pts.P); (Loc.tail b, Pts.P) ])
  | Loc.Tail b -> (
      match idx with
      | Ir.Izero | Ir.Ipos -> [ (Loc.tail b, c) ]
      | Ir.Iany -> [ (Loc.tail b, Pts.P) ])
  | Loc.Heap -> [ (Loc.Heap, c) ]
  | Loc.Str -> [ (Loc.Str, c) ]
  | Loc.Null -> []
  | _ -> ( match idx with Ir.Izero -> [ (l, c) ] | Ir.Ipos | Ir.Iany -> [ (l, Pts.P) ])

(** Select within an array object (true array subscripts): element 0 is
    the head location, the rest the tail (paper §3.2). On a non-array
    location (a type confusion through casts) falls back to the shift
    semantics, which is safe. *)
let apply_index tenv fn l (idx : Ir.index) c : (Loc.t * Pts.cert) list =
  if Tenv.is_array_loc tenv fn l then
    match idx with
    | Ir.Izero -> [ (Loc.head l, c) ]
    | Ir.Ipos -> [ (Loc.tail l, c) ]
    | Ir.Iany -> [ (Loc.head l, Pts.P); (Loc.tail l, Pts.P) ]
  else apply_shift l idx c

let apply_selector tenv fn sel (s : locset) : locset =
  Loc.Map.fold
    (fun l c acc ->
      let next =
        match sel with
        | Ir.Sfield f -> apply_field tenv fn l f c
        | Ir.Sindex idx -> apply_index tenv fn l idx c
        | Ir.Sshift idx -> apply_shift l idx c
      in
      List.fold_left (fun acc (l, c) -> add_loc l c acc) acc next)
    s empty

(** L-location set of a variable reference (Table 1, L-loc column).
    Dereferences of NULL and of function values are dropped (the paper's
    assumption that a dereferenced pointer is non-NULL at run time). *)
let lvals tenv fn (s : Pts.t) (r : Ir.vref) : locset =
  let start =
    if r.Ir.r_deref then
      match Tenv.base_loc tenv fn r.Ir.r_base with
      | None -> empty (* dereferencing a function name: meaningless *)
      | Some base ->
          List.fold_left
            (fun acc (tgt, c) ->
              if Loc.is_null tgt || Loc.is_fun tgt then acc else add_loc tgt c acc)
            empty (Pts.targets base s)
    else
      match Tenv.base_loc tenv fn r.Ir.r_base with
      | None -> empty
      | Some base -> add_loc base Pts.D empty
  in
  List.fold_left (fun acc sel -> apply_selector tenv fn sel acc) start r.Ir.r_path

(** R-location set of a variable reference (Table 1, R-loc column): one
    more level of dereference than the L-locations. A plain reference to
    a function name evaluates to the function location itself. *)
let rvals_ref tenv fn (s : Pts.t) (r : Ir.vref) : locset =
  if (not r.Ir.r_deref) && r.Ir.r_path = [] && Tenv.var_info tenv fn r.Ir.r_base = None
     && Tenv.is_func_name tenv r.Ir.r_base
  then add_loc (Loc.func r.Ir.r_base) Pts.D empty
  else
    let ls = lvals tenv fn s r in
    Loc.Map.fold
      (fun l c1 acc ->
        List.fold_left
          (fun acc (tgt, c2) -> add_loc tgt (Pts.cert_and c1 c2) acc)
          acc (Pts.targets l s))
      ls empty

(** Targets after pointer arithmetic: shift each pointed-to location by
    the classified displacement. A shifted non-array target stays the
    presently pointed-to object, possibly (the paper's §6 setting). *)
let shift_loc (l : Loc.t) (shift : Ir.ptr_shift) c : (Loc.t * Pts.cert) list =
  match shift with
  | Ir.Pzero -> [ (l, c) ]
  | Ir.Ppos -> (
      match l with
      | Loc.Head b -> [ (Loc.tail b, c) ]
      | Loc.Tail b -> [ (Loc.tail b, c) ]
      | Loc.Heap | Loc.Site _ -> [ (l, c) ]
      | Loc.Str -> [ (Loc.Str, c) ]
      | Loc.Null -> [ (Loc.Null, c) ]
      | _ -> [ (l, Pts.P) ])
  | Ir.Pany -> (
      match l with
      | Loc.Head b | Loc.Tail b -> [ (Loc.head b, Pts.P); (Loc.tail b, Pts.P) ]
      | Loc.Heap | Loc.Site _ -> [ (l, c) ]
      | Loc.Str -> [ (Loc.Str, c) ]
      | Loc.Null -> [ (Loc.Null, c) ]
      | _ -> [ (l, Pts.P) ])

(** R-location set of a right-hand side. *)
let rvals_rhs tenv fn (s : Pts.t) (rhs : Ir.rhs) : locset =
  match rhs with
  | Ir.Rref r -> rvals_ref tenv fn s r
  | Ir.Raddr r -> lvals tenv fn s r
  | Ir.Rconst _ | Ir.Rbinop _ | Ir.Runop _ -> add_loc Loc.Null Pts.D empty
  | Ir.Rnull -> add_loc Loc.Null Pts.D empty
  | Ir.Rstr -> add_loc Loc.Str Pts.P empty
  | Ir.Rmalloc -> add_loc Loc.Heap Pts.P empty
  | Ir.Rarith (r, shift) ->
      let base = rvals_ref tenv fn s r in
      Loc.Map.fold
        (fun l c acc ->
          List.fold_left
            (fun acc (l, c) -> add_loc l c acc)
            acc
            (shift_loc l shift c))
        base empty

(** R-location set of an operand. *)
let rvals_operand tenv fn (s : Pts.t) (op : Ir.operand) : locset =
  match op with
  | Ir.Oref r -> rvals_ref tenv fn s r
  | Ir.Oconst _ -> add_loc Loc.Null Pts.D empty
  | Ir.Onull -> add_loc Loc.Null Pts.D empty
  | Ir.Ostr -> add_loc Loc.Str Pts.P empty

let pp ppf (s : locset) =
  Fmt.pf ppf "{%a}"
    (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (l, c) ->
         Fmt.pf ppf "(%a,%s)" Loc.pp l (Pts.cert_to_string c)))
    (to_list s)
