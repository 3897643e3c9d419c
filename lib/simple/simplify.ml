(** Simplification: lowering the C AST to SIMPLE.

    Implements the transformations described in paper §2: complex
    statements become sequences of basic statements; every variable
    reference in a basic statement has at most one level of indirection;
    loop/if conditions become side-effect free (side-effecting
    subexpressions are hoisted, and short-circuit operators with impure
    operands are restructured into nested ifs on a boolean temporary);
    call arguments become constants or variable names; initializations
    move from declarations into statement position (global initializers
    are prepended to [main]).

    The pass carries a small type checker for C expressions, needed to
    classify pointer arithmetic, detect NULL constants in pointer
    contexts, expand struct copies field-wise and distinguish direct from
    indirect calls. *)

open Cfront

exception Unsupported of Srcloc.t * string

let fail loc fmt = Fmt.kstr (fun m -> raise (Unsupported (loc, m))) fmt

type env = {
  layouts : Ctype.layouts;
  globals : (string, Ctype.t) Hashtbl.t;
  func_sigs : (string, Ctype.func_sig) Hashtbl.t;  (** defined + prototyped *)
  defined_funcs : (string, unit) Hashtbl.t;
  mutable implicit_protos : (string * Ctype.func_sig) list;
  (* per-function state *)
  locals : (string, Ctype.t) Hashtbl.t;  (** resolved name -> type *)
  mutable local_order : (string * Ctype.t) list;  (** reverse order *)
  mutable scopes : (string, string) Hashtbl.t list;  (** source -> resolved *)
  mutable temp_counter : int;
  mutable rename_counter : int;
  mutable ret_ty : Ctype.t;
  mutable cur_loc : Srcloc.t;  (** where a lowering error is reported *)
  mutable stmt_id : int;
}

let make_env (p : Ast.program) =
  let globals = Hashtbl.create 64 in
  List.iter (fun (d : Ast.decl) -> Hashtbl.replace globals d.d_name d.d_ty) p.p_globals;
  let func_sigs = Hashtbl.create 64 in
  let defined_funcs = Hashtbl.create 64 in
  List.iter
    (fun (f : Ast.func_def) ->
      Hashtbl.replace defined_funcs f.f_name ();
      Hashtbl.replace func_sigs f.f_name
        { Ctype.ret = f.f_ret; params = List.map snd f.f_params; variadic = f.f_variadic })
    p.p_funcs;
  List.iter (fun (n, s) -> Hashtbl.replace func_sigs n s) p.p_protos;
  {
    layouts = p.p_layouts;
    globals;
    func_sigs;
    defined_funcs;
    implicit_protos = [];
    locals = Hashtbl.create 32;
    local_order = [];
    scopes = [];
    temp_counter = 0;
    rename_counter = 0;
    ret_ty = Ctype.Void;
    cur_loc = Srcloc.dummy;
    stmt_id = 0;
  }

let err env fmt = fail env.cur_loc fmt

(* ------------------------------------------------------------------ *)
(* Name resolution and temporaries                                    *)
(* ------------------------------------------------------------------ *)

let resolve env name =
  let rec walk = function
    | [] -> name
    | sc :: rest -> ( match Hashtbl.find_opt sc name with Some r -> r | None -> walk rest)
  in
  walk env.scopes

let push_scope env = env.scopes <- Hashtbl.create 8 :: env.scopes
let pop_scope env = env.scopes <- List.tl env.scopes

(** Declare a local in the innermost scope, renaming if it shadows. *)
let declare_local env name ty =
  let resolved =
    if Hashtbl.mem env.locals name || Hashtbl.mem env.globals name
       || Hashtbl.mem env.func_sigs name
    then begin
      env.rename_counter <- env.rename_counter + 1;
      Printf.sprintf "%s$%d" name env.rename_counter
    end
    else name
  in
  (match env.scopes with
  | sc :: _ -> Hashtbl.replace sc name resolved
  | [] -> ());
  Hashtbl.replace env.locals resolved ty;
  env.local_order <- (resolved, ty) :: env.local_order;
  resolved

let fresh_temp env ty =
  env.temp_counter <- env.temp_counter + 1;
  let name = Printf.sprintf "_t%d" env.temp_counter in
  Hashtbl.replace env.locals name ty;
  env.local_order <- (name, ty) :: env.local_order;
  name

(** Type of a variable as seen from the current function. Function names
    type as their function type. *)
let var_type env name =
  let name = resolve env name in
  match Hashtbl.find_opt env.locals name with
  | Some t -> Some t
  | None -> (
      match Hashtbl.find_opt env.globals name with
      | Some t -> Some t
      | None -> (
          match Hashtbl.find_opt env.func_sigs name with
          | Some s -> Some (Ctype.Func s)
          | None -> None))

(* ------------------------------------------------------------------ *)
(* Expression typing                                                  *)
(* ------------------------------------------------------------------ *)

let rec type_of env (e : Ast.expr) : Ctype.t =
  match e with
  | Ast.Eint _ -> Ctype.Int Ctype.Iint
  | Ast.Efloat _ -> Ctype.Float Ctype.Fdouble
  | Ast.Echar _ -> Ctype.Int Ctype.Ichar
  | Ast.Estr _ -> Ctype.Ptr (Ctype.Int Ctype.Ichar)
  | Ast.Eident x -> (
      match var_type env x with
      | Some t -> t
      | None -> err env "undeclared identifier '%s'" x)
  | Ast.Eunary (Ast.Uderef, e) -> (
      match Ctype.deref (Ctype.decay (type_of env e)) with
      | Some t -> t
      | None -> err env "dereference of non-pointer (type %s)" (Ctype.to_string (type_of env e)))
  | Ast.Eunary (Ast.Uaddr, e) -> Ctype.Ptr (type_of env e)
  | Ast.Eunary ((Ast.Uneg | Ast.Ubnot), e) -> Ctype.decay (type_of env e)
  | Ast.Eunary (Ast.Ulnot, _) -> Ctype.Int Ctype.Iint
  | Ast.Ebinary (op, a, b) -> (
      match op with
      | Ast.Blt | Ast.Bgt | Ast.Ble | Ast.Bge | Ast.Beq | Ast.Bne | Ast.Bland | Ast.Blor ->
          Ctype.Int Ctype.Iint
      | Ast.Badd | Ast.Bsub | Ast.Bmul | Ast.Bdiv | Ast.Bmod | Ast.Bshl | Ast.Bshr
      | Ast.Bband | Ast.Bbor | Ast.Bbxor -> (
          let ta = Ctype.decay (type_of env a) in
          let tb = Ctype.decay (type_of env b) in
          match (ta, tb, op) with
          | Ctype.Ptr _, Ctype.Ptr _, Ast.Bsub -> Ctype.Int Ctype.Ilong
          | (Ctype.Ptr _ as t), _, _ -> t
          | _, (Ctype.Ptr _ as t), _ -> t
          | Ctype.Float k, _, _ | _, Ctype.Float k, _ -> Ctype.Float k
          | _ -> ta))
  | Ast.Eassign (_, l, _) -> type_of env l
  | Ast.Econd (_, a, b) -> (
      let ta = Ctype.decay (type_of env a) in
      match ta with
      | Ctype.Int _ when Ctype.is_pointer (Ctype.decay (type_of env b)) ->
          Ctype.decay (type_of env b)
      | t -> t)
  | Ast.Ecall (f, _) -> (
      match callee_sig env f with
      | Some s -> s.Ctype.ret
      | None -> Ctype.Int Ctype.Iint)
  | Ast.Eindex (a, _) -> (
      match Ctype.deref (Ctype.decay (type_of env a)) with
      | Some t -> t
      | None -> err env "subscript of non-array/pointer")
  | Ast.Emember (b, f) -> (
      match Ctype.field_type env.layouts (type_of env b) f with
      | Some t -> t
      | None -> err env "no field '%s' in %s" f (Ctype.to_string (type_of env b)))
  | Ast.Earrow (b, f) -> (
      match Ctype.deref (Ctype.decay (type_of env b)) with
      | Some bt -> (
          match Ctype.field_type env.layouts bt f with
          | Some t -> t
          | None -> err env "no field '%s' in %s" f (Ctype.to_string bt))
      | None -> err env "-> applied to non-pointer")
  | Ast.Ecast (t, _) -> t
  | Ast.Esizeof_type _ | Ast.Esizeof_expr _ -> Ctype.Int Ctype.Ilong
  | Ast.Ecomma (_, b) -> type_of env b
  | Ast.Eincdec (_, _, e) -> type_of env e

(** Signature of the callee of a call expression, if determinable. *)
and callee_sig env (f : Ast.expr) : Ctype.func_sig option =
  match Ctype.decay (type_of_callee env f) with
  | Ctype.Ptr (Ctype.Func s) -> Some s
  | Ctype.Func s -> Some s
  | _ -> None

(** Like {!type_of} but tolerates undeclared identifiers in call position
    (implicit function declaration, as in pre-ANSI C). *)
and type_of_callee env (f : Ast.expr) : Ctype.t =
  match f with
  | Ast.Eident x -> (
      match var_type env x with
      | Some t -> t
      | None ->
          (* implicit declaration: int f(...) *)
          let s = { Ctype.ret = Ctype.Int Ctype.Iint; params = []; variadic = true } in
          Hashtbl.replace env.func_sigs x s;
          env.implicit_protos <- (x, s) :: env.implicit_protos;
          Ctype.Func s)
  | _ -> type_of env f

(* ------------------------------------------------------------------ *)
(* Emission helpers                                                   *)
(* ------------------------------------------------------------------ *)

type emitter = Ir.stmt list ref

let new_emitter () : emitter = ref []

let flush (em : emitter) = List.rev !em

let mk_stmt env desc =
  env.stmt_id <- env.stmt_id + 1;
  { Ir.s_id = env.stmt_id; s_desc = desc }

let emit env (em : emitter) desc = em := mk_stmt env desc :: !em

(* ------------------------------------------------------------------ *)
(* Purity                                                             *)
(* ------------------------------------------------------------------ *)

let rec expr_is_pure (e : Ast.expr) =
  match e with
  | Ast.Eint _ | Ast.Efloat _ | Ast.Echar _ | Ast.Estr _ | Ast.Eident _
  | Ast.Esizeof_type _ | Ast.Esizeof_expr _ ->
      true
  | Ast.Eassign _ | Ast.Ecall _ | Ast.Eincdec _ -> false
  | Ast.Eunary (_, e) | Ast.Ecast (_, e) -> expr_is_pure e
  | Ast.Ebinary (_, a, b) | Ast.Eindex (a, b) | Ast.Ecomma (a, b) ->
      expr_is_pure a && expr_is_pure b
  | Ast.Econd (a, b, c) -> expr_is_pure a && expr_is_pure b && expr_is_pure c
  | Ast.Emember (e, _) | Ast.Earrow (e, _) -> expr_is_pure e

(* ------------------------------------------------------------------ *)
(* Lowering expressions                                               *)
(* ------------------------------------------------------------------ *)

let is_malloc_like env name =
  (not (Hashtbl.mem env.defined_funcs name))
  && List.mem name [ "malloc"; "calloc"; "realloc"; "valloc"; "memalign"; "strdup" ]

let classify_index (e : Ast.expr) : Ir.index =
  match e with
  | Ast.Eint 0L -> Ir.Izero
  | Ast.Eint n when n > 0L -> Ir.Ipos
  | Ast.Echar c when c = '\000' -> Ir.Izero
  | _ -> Ir.Iany

let classify_shift (e : Ast.expr) : Ir.ptr_shift =
  match e with
  | Ast.Eint 0L -> Ir.Pzero
  | Ast.Eint n when n > 0L -> Ir.Ppos
  | _ -> Ir.Pany

let binop_name (op : Ast.binop) =
  match op with
  | Ast.Badd -> "+"
  | Ast.Bsub -> "-"
  | Ast.Bmul -> "*"
  | Ast.Bdiv -> "/"
  | Ast.Bmod -> "%"
  | Ast.Bshl -> "<<"
  | Ast.Bshr -> ">>"
  | Ast.Blt -> "<"
  | Ast.Bgt -> ">"
  | Ast.Ble -> "<="
  | Ast.Bge -> ">="
  | Ast.Beq -> "=="
  | Ast.Bne -> "!="
  | Ast.Bband -> "&"
  | Ast.Bbor -> "|"
  | Ast.Bbxor -> "^"
  | Ast.Bland -> "&&"
  | Ast.Blor -> "||"

(** Is [e] a "null pointer constant" in a pointer context? *)
let rec is_null_const (e : Ast.expr) =
  match e with
  | Ast.Eint 0L -> true
  | Ast.Ecast (Ctype.Ptr _, e) -> is_null_const e
  | _ -> false

(** Lower an lvalue expression to a SIMPLE variable reference, emitting
    temporaries as needed so that the result has at most one level of
    indirection. *)
let rec lower_ref env em (e : Ast.expr) : Ir.vref =
  match e with
  | Ast.Eident x -> Ir.var_ref (resolve env x)
  | Ast.Emember (b, f) ->
      let r = lower_ref env em b in
      { r with Ir.r_path = r.Ir.r_path @ [ Ir.Sfield f ] }
  | Ast.Earrow (b, f) -> lower_ref env em (Ast.Emember (Ast.Eunary (Ast.Uderef, b), f))
  | Ast.Eunary (Ast.Uderef, b) ->
      let v = pointer_var env em b in
      Ir.deref_ref v
  | Ast.Eindex (b, i) ->
      let idx = classify_index i in
      (* evaluate the subscript for its effects *)
      if not (expr_is_pure i) then ignore (lower_operand env em i);
      let bt = type_of env b in
      if Ctype.is_array bt then begin
        let r = lower_ref env em b in
        { r with Ir.r_path = r.Ir.r_path @ [ Ir.Sindex idx ] }
      end
      else begin
        (* pointer subscript: p[i] is *(p + i), a shift across sibling
           objects of the array p points into *)
        let v = pointer_var env em b in
        { Ir.r_base = v; r_deref = true; r_path = [ Ir.Sshift idx ] }
      end
  | Ast.Ecast (_, b) -> lower_ref env em b
  | Ast.Ecomma (a, b) ->
      lower_effects env em a;
      lower_ref env em b
  | _ -> err env "expression is not an lvalue"

(** Lower a pointer-valued expression to a plain variable name holding the
    pointer. *)
and pointer_var env em (e : Ast.expr) : string =
  match lower_operand env em e with
  | Ir.Oref r when Ir.is_plain_var r -> r.Ir.r_base
  | op ->
      let ty = Ctype.decay (type_of env e) in
      let t = fresh_temp env ty in
      let rhs =
        match op with
        | Ir.Oref r -> Ir.Rref r
        | Ir.Oconst v -> Ir.Rconst v
        | Ir.Onull -> Ir.Rnull
        | Ir.Ostr -> Ir.Rstr
      in
      emit env em (Ir.Sassign (Ir.var_ref t, rhs));
      t

(** Lower an rvalue to an operand (a constant or a plain variable),
    emitting temporaries for anything more complex. Call arguments,
    return values and switch scrutinees are lowered through this. *)
and lower_operand ?expected env em (e : Ast.expr) : Ir.operand =
  let pointer_context =
    match expected with Some t -> Ctype.is_pointer (Ctype.decay t) | None -> false
  in
  match e with
  | _ when is_null_const e && pointer_context -> Ir.Onull
  | Ast.Eint n -> Ir.Oconst (Some n)
  | Ast.Echar c -> Ir.Oconst (Some (Int64.of_int (Char.code c)))
  | Ast.Efloat _ | Ast.Esizeof_type _ | Ast.Esizeof_expr _ -> Ir.Oconst None
  | Ast.Estr _ -> Ir.Ostr
  | Ast.Eident x -> (
      let rx = resolve env x in
      match var_type env x with
      | Some (Ctype.Array _) ->
          (* array decays to pointer to its head *)
          let t = fresh_temp env (Ctype.decay (type_of env e)) in
          emit env em
            (Ir.Sassign
               ( Ir.var_ref t,
                 Ir.Raddr { Ir.r_base = rx; r_deref = false; r_path = [ Ir.Sindex Ir.Izero ] } ));
          Ir.Oref (Ir.var_ref t)
      | _ -> Ir.Oref (Ir.var_ref rx))
  | Ast.Ecomma (a, b) ->
      lower_effects env em a;
      lower_operand ?expected env em b
  | Ast.Ecast (t, b) -> lower_operand ~expected:t env em b
  | _ ->
      let ty =
        match expected with
        | Some t when Ctype.is_pointer (Ctype.decay t) -> Ctype.decay t
        | _ -> Ctype.decay (type_of env e)
      in
      let t = fresh_temp env ty in
      lower_assign_to env em (Ir.var_ref t) ty e;
      Ir.Oref (Ir.var_ref t)

(** Lower [lref = e] where [lref] has type [lty], emitting the assignment
    (and any preparatory statements). *)
and lower_assign_to env em (lref : Ir.vref) (lty : Ctype.t) (e : Ast.expr) : unit =
  match e with
  | _ when is_null_const e && Ctype.is_pointer (Ctype.decay lty) ->
      emit env em (Ir.Sassign (lref, Ir.Rnull))
  | Ast.Eint n -> emit env em (Ir.Sassign (lref, Ir.Rconst (Some n)))
  | Ast.Echar c ->
      emit env em (Ir.Sassign (lref, Ir.Rconst (Some (Int64.of_int (Char.code c)))))
  | Ast.Efloat _ | Ast.Esizeof_type _ | Ast.Esizeof_expr _ ->
      emit env em (Ir.Sassign (lref, Ir.Rconst None))
  | Ast.Estr _ -> emit env em (Ir.Sassign (lref, Ir.Rstr))
  | Ast.Ecast (t, b) ->
      (* lower under the cast type when it is a pointer type, so that null
         constants and malloc results are classified correctly *)
      let ty = if Ctype.is_pointer (Ctype.decay t) then t else lty in
      lower_assign_to env em lref ty b
  | Ast.Ecomma (a, b) ->
      lower_effects env em a;
      lower_assign_to env em lref lty b
  | Ast.Eident x when (match var_type env x with Some (Ctype.Array _) -> true | _ -> false) ->
      emit env em
        (Ir.Sassign
           ( lref,
             Ir.Raddr
               { Ir.r_base = resolve env x; r_deref = false; r_path = [ Ir.Sindex Ir.Izero ] } ))
  | Ast.Eident _ | Ast.Emember _ | Ast.Earrow _ | Ast.Eindex _ | Ast.Eunary (Ast.Uderef, _)
    -> (
      match Ctype.su_of env.layouts lty with
      | Some _ ->
          let rref = lower_ref env em e in
          lower_struct_copy env em lref rref lty
      | None ->
          if Ctype.is_array (type_of env e) then begin
            (* rvalue of array type decays to the address of its head *)
            let r = lower_ref env em e in
            emit env em
              (Ir.Sassign
                 (lref, Ir.Raddr { r with Ir.r_path = r.Ir.r_path @ [ Ir.Sindex Ir.Izero ] }))
          end
          else begin
            let r = lower_ref env em e in
            emit env em (Ir.Sassign (lref, Ir.Rref r))
          end)
  | Ast.Eunary (Ast.Uaddr, l) -> (
      match l with
      | Ast.Eunary (Ast.Uderef, b) ->
          (* &*p is p *)
          lower_assign_to env em lref lty b
      | _ ->
          let r = lower_ref env em l in
          emit env em (Ir.Sassign (lref, Ir.Raddr r)))
  | Ast.Eunary ((Ast.Uneg | Ast.Ubnot | Ast.Ulnot) as u, b) ->
      let name = match u with Ast.Uneg -> "-" | Ast.Ubnot -> "~" | _ -> "!" in
      let o = lower_operand env em b in
      emit env em (Ir.Sassign (lref, Ir.Runop (name, o)))
  | Ast.Ecall (f, args) -> lower_call env em (Some (lref, lty)) f args
  | Ast.Ebinary (op, a, b) -> (
      let ta = Ctype.decay (type_of env a) in
      let tb = Ctype.decay (type_of env b) in
      match (op, ta, tb) with
      | (Ast.Badd | Ast.Bsub), Ctype.Ptr _, Ctype.Ptr _ ->
          (* pointer difference: an integer *)
          let oa = lower_operand env em a in
          let ob = lower_operand env em b in
          emit env em (Ir.Sassign (lref, Ir.Rbinop (binop_name op, oa, ob)))
      | (Ast.Badd | Ast.Bsub), Ctype.Ptr _, _ ->
          let shift = if op = Ast.Bsub then Ir.Pany else classify_shift b in
          lower_effects env em b;
          let r = lower_value_ref env em a in
          emit env em (Ir.Sassign (lref, Ir.Rarith (r, shift)))
      | Ast.Badd, _, Ctype.Ptr _ ->
          let shift = classify_shift a in
          lower_effects env em a;
          let r = lower_value_ref env em b in
          emit env em (Ir.Sassign (lref, Ir.Rarith (r, shift)))
      | _ ->
          (* non-pointer arithmetic: simplify both operands to constants
             or variables, so that memory reads appear as explicit basic
             statements (paper section 2) *)
          let oa = lower_operand env em a in
          let ob = lower_operand env em b in
          emit env em (Ir.Sassign (lref, Ir.Rbinop (binop_name op, oa, ob))))
  | Ast.Econd (c, a, b) ->
      let cond, cem = lower_cond env c in
      List.iter (fun s -> em := s :: !em) (List.rev cem);
      let em_t = new_emitter () in
      lower_assign_to env em_t lref lty a;
      let em_e = new_emitter () in
      lower_assign_to env em_e lref lty b;
      emit env em (Ir.Sif (cond, flush em_t, flush em_e))
  | Ast.Eassign (aop, l, r) ->
      lower_assignment env em aop l r;
      let rr = lower_ref env em l in
      if Ctype.su_of env.layouts lty <> None then lower_struct_copy env em lref rr lty
      else emit env em (Ir.Sassign (lref, Ir.Rref rr))
  | Ast.Eincdec (pos, iop, l) -> (
      match pos with
      | Ast.Pre ->
          lower_incdec env em iop l;
          let r = lower_ref env em l in
          emit env em (Ir.Sassign (lref, Ir.Rref r))
      | Ast.Post ->
          let r = lower_ref env em l in
          emit env em (Ir.Sassign (lref, Ir.Rref r));
          lower_incdec env em iop l)

(** Lower a pointer-valued expression to a vref suitable for [Rarith]. *)
and lower_value_ref env em (e : Ast.expr) : Ir.vref =
  match e with
  | Ast.Eident x when not (Ctype.is_array (type_of env e)) -> Ir.var_ref (resolve env x)
  | Ast.Eident _ | Ast.Emember _ | Ast.Earrow _ | Ast.Eindex _ | Ast.Eunary (Ast.Uderef, _) ->
      if Ctype.is_array (type_of env e) then begin
        (* &a[0] + k: materialize the decayed pointer *)
        let v = pointer_var env em e in
        Ir.var_ref v
      end
      else lower_ref env em e
  | _ ->
      let v = pointer_var env em e in
      Ir.var_ref v

(** Expand a struct copy [lref = rref] into per-field assignments of all
    pointer-carrying leaf paths (paper §3.3: "any assignment between
    structures can be handled by breaking down the assignment into
    assignments between corresponding fields"). Array fields copy their
    head and tail locations separately; unions are copied as a single
    location. Fields that cannot carry pointers still contribute one
    summary [Rconst] assignment for statement-count realism. *)
and lower_struct_copy env em (lref : Ir.vref) (rref : Ir.vref) (ty : Ctype.t) : unit =
  let paths = Ctype.pointer_leaf_paths env.layouts ty in
  if paths = [] then emit env em (Ir.Sassign (lref, Ir.Rconst None))
  else
    List.iter
      (fun path ->
        let sel =
          List.concat_map
            (function
              | Ctype.Pfield f -> [ Ir.Sfield f ]
              | Ctype.Phead -> [ Ir.Sindex Ir.Izero ]
              | Ctype.Ptail -> [ Ir.Sindex Ir.Ipos ])
            path
        in
        let l = { lref with Ir.r_path = lref.Ir.r_path @ sel } in
        let r = { rref with Ir.r_path = rref.Ir.r_path @ sel } in
        emit env em (Ir.Sassign (l, Ir.Rref r)))
      paths

(** Lower an assignment expression [l aop= r] for effect. *)
and lower_assignment env em (aop : Ast.binop option) (l : Ast.expr) (r : Ast.expr) : unit =
  let lty = type_of env l in
  match aop with
  | None -> (
      match Ctype.su_of env.layouts lty with
      | Some _ ->
          let lref = lower_ref env em l in
          (* struct source must be an lvalue or a call *)
          (match r with
          | Ast.Ecall (f, args) -> lower_call env em (Some (lref, lty)) f args
          | _ ->
              let rref = lower_ref env em r in
              lower_struct_copy env em lref rref lty)
      | None ->
          let lref = lower_ref env em l in
          lower_assign_to env em lref lty r)
  | Some op -> (
      let lref = lower_ref env em l in
      match (op, Ctype.decay lty) with
      | (Ast.Badd | Ast.Bsub), Ctype.Ptr _ ->
          (* p += k / p -= k *)
          let shift = if op = Ast.Bsub then Ir.Pany else classify_shift r in
          lower_effects env em r;
          emit env em (Ir.Sassign (lref, Ir.Rarith (lref, shift)))
      | _ ->
          (* l op= r reads l: materialize the read, then the update *)
          let ov = read_operand env em lref lty in
          let orr = lower_operand env em r in
          emit env em (Ir.Sassign (lref, Ir.Rbinop (binop_name op, ov, orr))))

(** Read the value of a cell through a reference, yielding an operand
    (a plain variable or the reference's base if already simple). *)
and read_operand env em (lref : Ir.vref) (lty : Ctype.t) : Ir.operand =
  if Ir.is_plain_var lref then Ir.Oref lref
  else begin
    let t = fresh_temp env (Ctype.decay lty) in
    emit env em (Ir.Sassign (Ir.var_ref t, Ir.Rref lref));
    Ir.Oref (Ir.var_ref t)
  end

and lower_incdec env em (iop : Ast.incdec_op) (l : Ast.expr) : unit =
  let lty = Ctype.decay (type_of env l) in
  let lref = lower_ref env em l in
  match lty with
  | Ctype.Ptr _ ->
      let shift = match iop with Ast.Inc -> Ir.Ppos | Ast.Dec -> Ir.Pany in
      emit env em (Ir.Sassign (lref, Ir.Rarith (lref, shift)))
  | _ ->
      let ov = read_operand env em lref lty in
      let name = match iop with Ast.Inc -> "+" | Ast.Dec -> "-" in
      emit env em (Ir.Sassign (lref, Ir.Rbinop (name, ov, Ir.Oconst (Some 1L))))

(** Lower a call, assigning the result to [dst] when given. *)
and lower_call env em (dst : (Ir.vref * Ctype.t) option) (f : Ast.expr) (args : Ast.expr list) :
    unit =
  (* malloc family: only when the name is not a program-defined variable *)
  let direct_name =
    match f with
    | Ast.Eident x -> (
        match var_type env x with
        | None | Some (Ctype.Func _) -> Some x
        | Some _ -> None)
    | _ -> None
  in
  match direct_name with
  | Some name when is_malloc_like env name ->
      List.iter (lower_effects env em) args;
      (match dst with
      | Some (lref, _) -> emit env em (Ir.Sassign (lref, Ir.Rmalloc))
      | None -> ())
  | _ ->
      let fsig = callee_sig env f in
      let callee =
        (* note: no decay here — a bare function type means a direct call *)
        match type_of_callee env f with
        | Ctype.Func _ -> (
            match f with
            | Ast.Eident x -> Ir.Cdirect x
            | Ast.Eunary (Ast.Uderef, b) ->
                (* ( *fp )() is fp(): the deref of a function pointer *)
                Ir.Cindirect (readable_fnptr env em b)
            | _ -> err env "unsupported callee expression")
        | Ctype.Ptr (Ctype.Func _) -> Ir.Cindirect (readable_fnptr env em f)
        | t -> err env "call of non-function (type %s)" (Ctype.to_string t)
      in
      let param_tys = match fsig with Some s -> s.Ctype.params | None -> [] in
      let rec lower_args args tys acc =
        match args with
        | [] -> List.rev acc
        | a :: rest ->
            let expected, tys' = match tys with t :: ts -> (Some t, ts) | [] -> (None, []) in
            let op = lower_operand ?expected env em a in
            lower_args rest tys' (op :: acc)
      in
      let ops = lower_args args param_tys [] in
      let lhs =
        match dst with
        | None -> None
        | Some (lref, lty) ->
            if Ir.is_plain_var lref then Some (lref, lty, true)
            else
              let t = fresh_temp env lty in
              Some (Ir.var_ref t, lty, false)
      in
      (match lhs with
      | None -> emit env em (Ir.Scall (None, callee, ops))
      | Some (r, _, _) -> emit env em (Ir.Scall (Some r, callee, ops)));
      (* copy through the temp when the destination was complex *)
      match (lhs, dst) with
      | Some (r, lty, false), Some (lref, _) ->
          if Ctype.su_of env.layouts lty <> None then lower_struct_copy env em lref r lty
          else emit env em (Ir.Sassign (lref, Ir.Rref r))
      | _ -> ()

(** Lower the callee expression of an indirect call: a reference whose
    r-value is the function pointer. Dereferences applied to a function
    type are dropped ("( *fp )()" is "fp()"). *)
and readable_fnptr env em (e : Ast.expr) : Ir.vref =
  match e with
  | Ast.Eident x -> Ir.var_ref (resolve env x)
  | Ast.Emember _ | Ast.Earrow _ | Ast.Eindex _ | Ast.Eunary (Ast.Uderef, _) ->
      lower_ref env em e
  | Ast.Ecast (_, b) -> readable_fnptr env em b
  | _ -> Ir.var_ref (pointer_var env em e)

(** Lower an expression purely for its side effects. *)
and lower_effects env em (e : Ast.expr) : unit =
  match e with
  | Ast.Eint _ | Ast.Efloat _ | Ast.Echar _ | Ast.Estr _ | Ast.Eident _
  | Ast.Esizeof_type _ | Ast.Esizeof_expr _ ->
      ()
  | Ast.Eassign (aop, l, r) -> lower_assignment env em aop l r
  | Ast.Eincdec (_, iop, l) -> lower_incdec env em iop l
  | Ast.Ecall (f, args) -> lower_call env em None f args
  | Ast.Ecomma (a, b) ->
      lower_effects env em a;
      lower_effects env em b
  | Ast.Ecast (_, b) | Ast.Eunary (_, b) | Ast.Emember (b, _) | Ast.Earrow (b, _) ->
      lower_effects env em b
  | Ast.Ebinary ((Ast.Bland | Ast.Blor), _, _) | Ast.Econd (_, _, _) ->
      if not (expr_is_pure e) then begin
        (* short-circuit with impure operands: restructure via a temp *)
        let t = fresh_temp env (Ctype.Int Ctype.Iint) in
        lower_bool env em t e
      end
  | Ast.Ebinary (_, a, b) | Ast.Eindex (a, b) ->
      lower_effects env em a;
      lower_effects env em b

(** Lower [t = bool(e)] preserving short-circuit evaluation order. *)
and lower_bool env em (t : string) (e : Ast.expr) : unit =
  match e with
  | Ast.Ebinary (Ast.Bland, a, b) ->
      lower_bool env em t a;
      let em_t = new_emitter () in
      lower_bool env em_t t b;
      emit env em (Ir.Sif (Ir.Cval (Ir.Oref (Ir.var_ref t)), flush em_t, []))
  | Ast.Ebinary (Ast.Blor, a, b) ->
      lower_bool env em t a;
      let em_e = new_emitter () in
      lower_bool env em_e t b;
      emit env em (Ir.Sif (Ir.Cval (Ir.Oref (Ir.var_ref t)), [], flush em_e))
  | Ast.Eunary (Ast.Ulnot, a) -> lower_bool env em t a
  | Ast.Econd (c, a, b) ->
      let cond, cem = lower_cond env c in
      List.iter (fun s -> em := s :: !em) (List.rev cem);
      let em_t = new_emitter () in
      lower_bool env em_t t a;
      let em_e = new_emitter () in
      lower_bool env em_e t b;
      emit env em (Ir.Sif (cond, flush em_t, flush em_e))
  | _ ->
      let o = lower_operand env em e in
      emit env em (Ir.Sassign (Ir.var_ref t, Ir.Rbinop ("!=", o, Ir.Oconst (Some 0L))))

(** Lower a condition expression to a side-effect-free SIMPLE condition,
    returning the preparatory statements separately (so that loops can
    re-run them on the back edge). *)
and lower_cond env (e : Ast.expr) : Ir.cond * Ir.stmt list =
  let em = new_emitter () in
  let rec go (e : Ast.expr) : Ir.cond =
    match e with
    | Ast.Ebinary (Ast.Bland, a, b) when expr_is_pure e -> Ir.Cand (go a, go b)
    | Ast.Ebinary (Ast.Blor, a, b) when expr_is_pure e -> Ir.Cor (go a, go b)
    | Ast.Eunary (Ast.Ulnot, a) -> Ir.Cnot (go a)
    | Ast.Ebinary ((Ast.Blt | Ast.Bgt | Ast.Ble | Ast.Bge | Ast.Beq | Ast.Bne) as op, a, b) ->
        let name =
          match op with
          | Ast.Blt -> "<"
          | Ast.Bgt -> ">"
          | Ast.Ble -> "<="
          | Ast.Bge -> ">="
          | Ast.Beq -> "=="
          | Ast.Bne -> "!="
          | _ -> assert false
        in
        let ta = type_of env a and tb = type_of env b in
        let oa = lower_operand ~expected:tb env em a in
        let ob = lower_operand ~expected:ta env em b in
        Ir.Cop (name, oa, ob)
    | Ast.Ebinary ((Ast.Bland | Ast.Blor), _, _) | Ast.Econd _ ->
        (* impure short-circuit: restructure through a boolean temp *)
        let t = fresh_temp env (Ctype.Int Ctype.Iint) in
        lower_bool env em t e;
        Ir.Cval (Ir.Oref (Ir.var_ref t))
    | _ ->
        let op = lower_operand env em e in
        Ir.Cval op
  in
  let c = go e in
  (c, flush em)

(* ------------------------------------------------------------------ *)
(* Lowering statements                                                *)
(* ------------------------------------------------------------------ *)

let rec lower_init env em (lref : Ir.vref) (ty : Ctype.t) (init : Ast.init) : unit =
  match (init, ty) with
  | Ast.Iexpr e, _ -> lower_assign_to env em lref ty e
  | Ast.Ilist items, Ctype.Array (elt, _) ->
      List.iteri
        (fun i item ->
          let idx = if i = 0 then Ir.Izero else Ir.Ipos in
          lower_init env em
            { lref with Ir.r_path = lref.Ir.r_path @ [ Ir.Sindex idx ] }
            elt item)
        items
  | Ast.Ilist items, Ctype.Su (Ctype.Struct_su, tag) -> (
      match Hashtbl.find_opt env.layouts tag with
      | None -> err env "initializer for struct with unknown layout '%s'" tag
      | Some l ->
          let rec zip fields items =
            match (fields, items) with
            | _, [] -> ()
            | [], _ :: _ -> err env "too many initializers for struct %s" tag
            | (f, ft) :: fs, item :: rest ->
                lower_init env em
                  { lref with Ir.r_path = lref.Ir.r_path @ [ Ir.Sfield f ] }
                  ft item;
                zip fs rest
          in
          zip l.Ctype.fields items)
  | Ast.Ilist [ item ], _ -> lower_init env em lref ty item
  | Ast.Ilist _, _ -> err env "brace initializer for scalar"

let rec lower_stmt env em (s : Ast.stmt) : unit =
  env.cur_loc <- s.Ast.s_loc;
  match s.Ast.s_desc with
  | Ast.Sexpr e -> lower_effects env em e
  | Ast.Sdecl d -> (
      let resolved = declare_local env d.Ast.d_name d.Ast.d_ty in
      match d.Ast.d_init with
      | None -> ()
      | Some init -> lower_init env em (Ir.var_ref resolved) d.Ast.d_ty init)
  | Ast.Sif (c, t, e) ->
      let cond, pre = lower_cond env c in
      List.iter (fun st -> em := st :: !em) pre;
      let em_t = new_emitter () in
      lower_block env em_t t;
      let em_e = new_emitter () in
      lower_block env em_e e;
      emit env em (Ir.Sif (cond, flush em_t, flush em_e))
  | Ast.Swhile (c, body) ->
      let cond, pre = lower_cond env c in
      let em_b = new_emitter () in
      lower_block env em_b body;
      emit env em
        (Ir.Sloop
           { Ir.l_kind = `While; l_cond_stmts = pre; l_cond = cond; l_step = []; l_body = flush em_b })
  | Ast.Sdo (body, c) ->
      let cond, pre = lower_cond env c in
      let em_b = new_emitter () in
      lower_block env em_b body;
      emit env em
        (Ir.Sloop
           { Ir.l_kind = `Do; l_cond_stmts = pre; l_cond = cond; l_step = []; l_body = flush em_b })
  | Ast.Sfor (init, c, step, body) ->
      (match init with Some e -> lower_effects env em e | None -> ());
      let cond, pre =
        match c with
        | Some c -> lower_cond env c
        | None -> (Ir.Cval (Ir.Oconst (Some 1L)), [])
      in
      let em_s = new_emitter () in
      (match step with Some e -> lower_effects env em_s e | None -> ());
      let em_b = new_emitter () in
      lower_block env em_b body;
      emit env em
        (Ir.Sloop
           {
             Ir.l_kind = `For;
             l_cond_stmts = pre;
             l_cond = cond;
             l_step = flush em_s;
             l_body = flush em_b;
           })
  | Ast.Sswitch (e, groups) ->
      let scrut = lower_operand env em e in
      let groups =
        List.map
          (fun (g : Ast.stmt Ast.switch_group) ->
            let em_g = new_emitter () in
            lower_block env em_g g.Ast.sg_body;
            { Ir.g_cases = g.Ast.sg_cases; g_default = g.Ast.sg_default; g_body = flush em_g })
          groups
      in
      emit env em (Ir.Sswitch (scrut, groups))
  | Ast.Sbreak -> emit env em Ir.Sbreak
  | Ast.Scontinue -> emit env em Ir.Scontinue
  | Ast.Sreturn None -> emit env em (Ir.Sreturn None)
  | Ast.Sreturn (Some e) ->
      let op = lower_operand ~expected:env.ret_ty env em e in
      emit env em (Ir.Sreturn (Some op))
  | Ast.Sblock b -> lower_block_into env em b

and lower_block env em (stmts : Ast.stmt list) : unit =
  push_scope env;
  List.iter (lower_stmt env em) stmts;
  pop_scope env

(** Lower a nested block, flattening its statements into the enclosing
    emitter (SIMPLE has no block statement). *)
and lower_block_into env em (stmts : Ast.stmt list) : unit =
  push_scope env;
  List.iter (lower_stmt env em) stmts;
  pop_scope env

(* ------------------------------------------------------------------ *)
(* Program assembly                                                   *)
(* ------------------------------------------------------------------ *)

let reset_function_state env ret_ty =
  Hashtbl.reset env.locals;
  env.local_order <- [];
  env.scopes <- [];
  env.temp_counter <- 0;
  env.ret_ty <- ret_ty

let lower_func env (globals_init : Ast.decl list) (f : Ast.func_def) : Ir.func =
  reset_function_state env f.Ast.f_ret;
  env.cur_loc <- f.Ast.f_loc;
  List.iter (fun (n, t) -> Hashtbl.replace env.locals n t) f.Ast.f_params;
  let em = new_emitter () in
  (* paper §2: variable initializations move from declarations into the
     body of the appropriate procedure; global initializers run at the
     start of main *)
  if String.equal f.Ast.f_name "main" then
    List.iter
      (fun (d : Ast.decl) ->
        match d.Ast.d_init with
        | None -> ()
        | Some init ->
            env.cur_loc <- d.Ast.d_loc;
            lower_init env em (Ir.var_ref d.Ast.d_name) d.Ast.d_ty init)
      globals_init;
  env.cur_loc <- f.Ast.f_loc;
  lower_block env em f.Ast.f_body;
  {
    Ir.fn_name = f.Ast.f_name;
    fn_ret = f.Ast.f_ret;
    fn_params = f.Ast.f_params;
    fn_locals = List.rev env.local_order;
    fn_body = flush em;
    fn_variadic = f.Ast.f_variadic;
  }

(** Lower a full C program to SIMPLE. *)
let program (p : Ast.program) : Ir.program =
  let env = make_env p in
  let funcs = List.map (lower_func env p.Ast.p_globals) p.Ast.p_funcs in
  {
    Ir.globals = List.map (fun (d : Ast.decl) -> (d.Ast.d_name, d.Ast.d_ty)) p.Ast.p_globals;
    funcs;
    layouts = p.Ast.p_layouts;
    protos = p.Ast.p_protos @ env.implicit_protos;
    n_stmts = env.stmt_id;
  }

(** Convenience: parse and simplify in one step. *)
let of_string ?file s = program (Parser.parse_string ?file s)

let of_file path = program (Parser.parse_file path)
