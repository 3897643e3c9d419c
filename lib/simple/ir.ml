(** The SIMPLE intermediate representation.

    SIMPLE is McCAT's structured, compositional IR [Hendren et al. 1992].
    The properties the points-to analysis relies on (paper §2):

    - complex statements are compiled into sequences of basic statements;
    - every variable reference in a basic statement has at most one level
      of pointer indirection;
    - conditional expressions of [if]/[while] are simple and side-effect
      free (side-effecting conditions are hoisted into the loop's
      condition block, re-evaluated on the back edge);
    - procedure arguments are constants or variable names;
    - variable initializations are moved from declarations into the body.

    Control flow is fully structured: [if], a unified loop form covering
    [while]/[do]/[for], [switch] with fall-through groups, [break],
    [continue], [return]. *)

(** Classification of an array subscript, following Table 1 of the paper:
    a constant [0] selects the array head, a positive constant selects the
    tail, and a statically unknown subscript may select either. *)
type index = Izero | Ipos | Iany

type selector =
  | Sfield of string  (** .f *)
  | Sindex of index  (** [i] applied to an array object: selects within it *)
  | Sshift of index
      (** [i] applied to a pointer (p[i] is *(p+i)): moves across sibling
          objects of the pointee's array region *)

(** A SIMPLE variable reference: a base variable, an optional single
    dereference, and a selector path. This generalizes every variable
    reference form of Table 1 — plain variables, field paths, array
    subscripts, single dereferences, dereference-then-field,
    dereference-then-subscript — and mixed paths such as "a[i].f". *)
type vref = {
  r_base : string;
  r_deref : bool;
  r_path : selector list;
}

let var_ref base = { r_base = base; r_deref = false; r_path = [] }
let deref_ref base = { r_base = base; r_deref = true; r_path = [] }

let is_plain_var r = (not r.r_deref) && r.r_path = []

(** Has at least one level of indirection: either an explicit dereference
    or an index applied to a pointer is encoded as deref by the
    simplifier. *)
let is_indirect r = r.r_deref

type operand =
  | Oref of vref
  | Oconst of int64 option
      (** numeric or character constant (the value when integral and
          statically known): carries no pointer *)
  | Onull  (** the NULL pointer constant *)
  | Ostr  (** a string literal *)

(** Side-effect-free conditions, kept structured for printing; the
    analysis itself is path-insensitive and only uses conditions for
    display. *)
type cond =
  | Cop of string * operand * operand  (** binary comparison/test, op name *)
  | Cval of operand
  | Cnot of cond
  | Cand of cond * cond
  | Cor of cond * cond

type callee =
  | Cdirect of string
  | Cindirect of vref  (** call through a function pointer reference *)

(** Arithmetic shift applied to a pointer value, used to adjust
    head/tail array targets: [+0], [+positive-constant], or unknown. *)
type ptr_shift = Pzero | Ppos | Pany

type rhs =
  | Rref of vref  (** lhs = ref *)
  | Raddr of vref  (** lhs = &ref *)
  | Rconst of int64 option
      (** lhs = constant (the value when integral and statically known) *)
  | Rnull  (** lhs = NULL (0 in pointer context) *)
  | Rstr  (** lhs = "literal" *)
  | Rmalloc  (** lhs = malloc/calloc/realloc (...) *)
  | Rarith of vref * ptr_shift
      (** pointer arithmetic: lhs = p + k (or p - k); the shift classifies
          the displacement like an array index *)
  | Rbinop of string * operand * operand
      (** non-pointer arithmetic over simplified operands; carries no
          points-to value *)
  | Runop of string * operand  (** non-pointer unary arithmetic *)

(** A statement, named by its id: ids number the program's statements in
    textual order. A statement holds no source position, so two texts
    that lower alike (a comment or whitespace apart) give equal
    programs; positions stay in the AST, for lowering errors. *)
type stmt = { s_id : int; s_desc : stmt_desc }

and stmt_desc =
  | Sassign of vref * rhs
  | Scall of vref option * callee * operand list
  | Sif of cond * stmt list * stmt list
  | Sloop of loop
  | Sswitch of operand * switch_group list
  | Sbreak
  | Scontinue
  | Sreturn of operand option

and loop = {
  l_kind : [ `While | `Do | `For ];
  l_cond_stmts : stmt list;
      (** statements evaluating a side-effecting condition; run before
          every test *)
  l_cond : cond;
  l_step : stmt list;  (** for-loop step; run after body and continue *)
  l_body : stmt list;
}

and switch_group = {
  g_cases : int64 list;
  g_default : bool;
  g_body : stmt list;  (** falls through into the next group *)
}

type func = {
  fn_name : string;
  fn_ret : Cfront.Ctype.t;
  fn_params : (string * Cfront.Ctype.t) list;
  fn_locals : (string * Cfront.Ctype.t) list;  (** declared locals and temps *)
  fn_body : stmt list;
  fn_variadic : bool;
}

type program = {
  globals : (string * Cfront.Ctype.t) list;
  funcs : func list;
  layouts : Cfront.Ctype.layouts;
  protos : (string * Cfront.Ctype.func_sig) list;  (** external functions *)
  n_stmts : int;  (** total number of SIMPLE statements (basic + control) *)
}

let find_func p name = List.find_opt (fun f -> String.equal f.fn_name name) p.funcs

let is_defined p name = Option.is_some (find_func p name)

(* ------------------------------------------------------------------ *)
(* Traversal                                                          *)
(* ------------------------------------------------------------------ *)

(** Fold [f] over every statement, in textual order, descending into all
    nested statement lists. *)
let rec fold_stmts f acc (stmts : stmt list) =
  List.fold_left (fold_stmt f) acc stmts

and fold_stmt f acc s =
  let acc = f acc s in
  match s.s_desc with
  | Sassign _ | Scall _ | Sbreak | Scontinue | Sreturn _ -> acc
  | Sif (_, t, e) -> fold_stmts f (fold_stmts f acc t) e
  | Sloop l ->
      let acc = fold_stmts f acc l.l_cond_stmts in
      let acc = fold_stmts f acc l.l_body in
      fold_stmts f acc l.l_step
  | Sswitch (_, groups) ->
      List.fold_left (fun acc g -> fold_stmts f acc g.g_body) acc groups

let fold_func f acc fn = fold_stmts f acc fn.fn_body

let fold_program f acc p =
  List.fold_left (fold_func f) acc p.funcs

(** Does [fn] call through a function pointer anywhere? *)
let calls_indirectly fn =
  fold_func
    (fun acc s -> acc || match s.s_desc with Scall (_, Cindirect _, _) -> true | _ -> false)
    false fn

(** Number of statements in a function (basic and control). *)
let count_stmts fn = fold_func (fun n _ -> n + 1) 0 fn

(** All call sites [(caller, stmt)] in the program, in textual order. *)
let call_sites p =
  List.concat_map
    (fun fn ->
      List.rev
        (fold_func
           (fun acc s ->
             match s.s_desc with Scall _ -> (fn, s) :: acc | _ -> acc)
           [] fn))
    p.funcs

(** Functions whose address is taken anywhere in the program (their name
    is used other than as the callee of a direct call). Used by the
    address-taken call-graph baseline. *)
let address_taken_funcs p =
  let defined name = is_defined p name in
  let add acc name = if defined name && not (List.mem name acc) then name :: acc else acc in
  let of_operand acc = function
    | Oref r when is_plain_var r -> add acc r.r_base
    | Oref _ | Oconst _ | Onull | Ostr -> acc
  in
  let of_rhs acc = function
    | Rref r | Raddr r | Rarith (r, _) ->
        if is_plain_var r then add acc r.r_base else acc
    | Rbinop (_, a, b) -> of_operand (of_operand acc a) b
    | Runop (_, a) -> of_operand acc a
    | Rconst _ | Rnull | Rstr | Rmalloc -> acc
  in
  let of_stmt acc s =
    match s.s_desc with
    | Sassign (_, rhs) -> of_rhs acc rhs
    | Scall (_, _, args) -> List.fold_left of_operand acc args
    | Sreturn (Some op) -> of_operand acc op
    | Sif _ | Sloop _ | Sswitch _ | Sbreak | Scontinue | Sreturn None -> acc
  in
  fold_program of_stmt [] p
