(** Typing environment: maps abstract locations and SIMPLE variable
    references to C types, and classifies names (local / parameter /
    global / function). Shared by the location-set rules, the map/unmap
    machinery and the statistics. *)

open Cfront
module Ir = Simple_ir.Ir

type frame_cells = {
  local_cells : (Loc.t * bool) list;
  ret_cells : (Loc.t * bool) list;
  null_frame : Pts.t;
}

type t = {
  prog : Ir.program;
  opts : Options.t;
  globals : (string, Ctype.t) Hashtbl.t;
  funcs : (string, Ir.func) Hashtbl.t;
  externals : (string, Ctype.func_sig) Hashtbl.t;
  global_cells : (Loc.t * bool) list;
  global_cell_ord : int Loc.Map.t;
  frames : (string, frame_cells) Hashtbl.t;
  scopes : (string, Ir.func * (string, Loc.var_kind * Ctype.t) Hashtbl.t) Hashtbl.t;
}

let layouts t = t.prog.Ir.layouts

let find_func t name = Hashtbl.find_opt t.funcs name

let is_defined_func t name = Hashtbl.mem t.funcs name

let is_func_name t name = Hashtbl.mem t.funcs name || Hashtbl.mem t.externals name

let func_ret_type t name =
  match Hashtbl.find_opt t.funcs name with
  | Some f -> Some f.Ir.fn_ret
  | None -> (
      match Hashtbl.find_opt t.externals name with
      | Some s -> Some s.Ctype.ret
      | None -> None)

(** A function's own names, parameters before locals, the first binding
    of a name winning. *)
let scan_scope (fn : Ir.func) name : (Loc.var_kind * Ctype.t) option =
  match List.assoc_opt name fn.Ir.fn_params with
  | Some ty -> Some (Loc.Kparam, ty)
  | None -> (
      match List.assoc_opt name fn.Ir.fn_locals with
      | Some ty -> Some (Loc.Klocal, ty)
      | None -> None)

(** Kind and type of a name as seen from function [fn]: one lookup in
    the function's scope table when [fn] is the program's own, a scan of
    its parameters and locals otherwise, then the globals. *)
let var_info t (fn : Ir.func) name : (Loc.var_kind * Ctype.t) option =
  let own =
    match Hashtbl.find_opt t.scopes fn.Ir.fn_name with
    | Some (f, scope) when f == fn -> Hashtbl.find_opt scope name
    | Some _ | None -> scan_scope fn name
  in
  match own with
  | Some _ -> own
  | None -> (
      match Hashtbl.find_opt t.globals name with
      | Some ty -> Some (Loc.Kglobal, ty)
      | None -> None)

(** The abstract location for base variable [name] in [fn]; [None] when
    the name denotes a function (the caller should use [Loc.Fun]). *)
let base_loc t fn name : Loc.t option =
  match var_info t fn name with
  | Some (kind, _) -> Some (Loc.var name kind)
  | None -> if is_func_name t name then None else Some (Loc.var name Loc.Klocal)

(** Type of an abstract location, when one is derivable. [Heap], [Null]
    and [Str] are untyped. The function owning local/param locations must
    be supplied because location names are function-scoped. *)
let rec loc_type t (fn : Ir.func) (l : Loc.t) : Ctype.t option =
  match l with
  | Loc.Var (n, _) -> Option.map snd (var_info t fn n)
  | Loc.Fld (b, f) -> (
      match loc_type t fn b with
      | Some bt -> Ctype.field_type (layouts t) bt f
      | None -> None)
  | Loc.Head b | Loc.Tail b -> (
      match loc_type t fn b with
      | Some (Ctype.Array (elt, _)) -> Some elt
      | Some _ | None -> None)
  | Loc.Sym b -> (
      match loc_type t fn b with
      | Some bt -> Ctype.deref (Ctype.decay bt)
      | None -> None)
  | Loc.Heap | Loc.Site _ | Loc.Null | Loc.Str -> None
  | Loc.Fun f -> (
      match Hashtbl.find_opt t.funcs f with
      | Some fd ->
          Some
            (Ctype.Func
               {
                 Ctype.ret = fd.Ir.fn_ret;
                 params = List.map snd fd.Ir.fn_params;
                 variadic = fd.Ir.fn_variadic;
               })
      | None -> Option.map (fun s -> Ctype.Func s) (Hashtbl.find_opt t.externals f))
  | Loc.Ret f -> func_ret_type t f

(** Is the location of union type (collapsed to a single location)? *)
let is_union_loc t fn l =
  match loc_type t fn l with
  | Some (Ctype.Su (Ctype.Union_su, _)) -> true
  | Some _ | None -> false

let is_array_loc t fn l =
  match loc_type t fn l with Some (Ctype.Array _) -> true | Some _ | None -> false

(** Type of a SIMPLE variable reference in [fn] (the type of the cell it
    denotes). *)
let vref_type t fn (r : Ir.vref) : Ctype.t option =
  let base_ty =
    match var_info t fn r.Ir.r_base with
    | Some (_, ty) -> Some ty
    | None ->
        if is_func_name t r.Ir.r_base then
          loc_type t fn (Loc.Fun r.Ir.r_base)
        else None
  in
  let after_deref =
    if r.Ir.r_deref then Option.bind base_ty (fun ty -> Ctype.deref (Ctype.decay ty))
    else base_ty
  in
  List.fold_left
    (fun ty sel ->
      Option.bind ty (fun ty ->
          match sel with
          | Ir.Sfield f -> Ctype.field_type (layouts t) ty f
          | Ir.Sindex _ -> (
              match ty with Ctype.Array (e, _) -> Some e | _ -> Ctype.deref ty)
          | Ir.Sshift _ ->
              (* a shift moves across sibling objects: the type of the
                 denoted cell is unchanged *)
              Some ty))
    after_deref r.Ir.r_path

(** Does assigning through this reference move pointers (so the analysis
    must process it)? True for pointer cells and collapsed unions that
    carry pointers. *)
let is_pointer_assignment t fn (r : Ir.vref) =
  match vref_type t fn r with
  | Some ty -> (
      match Ctype.decay ty with
      | Ctype.Ptr _ -> true
      | Ctype.Su (Ctype.Union_su, _) as u -> Ctype.carries_pointers (layouts t) u
      | _ -> false)
  | None ->
      (* unknown type: be conservative and process it *)
      true

(** Pointer-carrying cells contained in location [l] of type [ty]
    (without following any pointer): the location itself for pointers,
    head/tail pairs for arrays, a cell per pointer-carrying field for
    structs, the collapsed location for unions. *)
let rec pointer_cells t (l : Loc.t) (ty : Ctype.t) : (Loc.t * Ctype.t) list =
  match ty with
  | Ctype.Ptr _ -> [ (l, ty) ]
  | Ctype.Array (elt, _) ->
      if Ctype.carries_pointers (layouts t) elt then
        pointer_cells t (Loc.head l) elt @ pointer_cells t (Loc.tail l) elt
      else []
  | Ctype.Su (Ctype.Union_su, _) ->
      if Ctype.carries_pointers (layouts t) ty then [ (l, ty) ] else []
  | Ctype.Su (Ctype.Struct_su, tag) -> (
      match Hashtbl.find_opt (layouts t) tag with
      | None -> []
      | Some lay ->
          List.concat_map
            (fun (f, ft) -> pointer_cells t (Loc.fld l f) ft)
            lay.Ctype.fields)
  | Ctype.Void | Ctype.Int _ | Ctype.Float _ | Ctype.Func _ -> []

let with_singular cells = List.map (fun (cell, _) -> (cell, Loc.singular cell)) cells

(** The NULL-initialized cells of [f]'s frame: its locals' pointer
    cells, then its return slot's, and the set binding each to NULL. *)
let frame_of t (f : Ir.func) =
  let local_cells =
    List.concat_map
      (fun (n, ty) -> with_singular (pointer_cells t (Loc.var n Loc.Klocal) ty))
      f.Ir.fn_locals
  and ret_cells =
    with_singular (pointer_cells t (Loc.ret f.Ir.fn_name) (Ctype.decay f.Ir.fn_ret))
  in
  let null_row (cell, singular) =
    (cell, Loc.Map.singleton Loc.Null (if singular then Pts.D else Pts.P))
  in
  {
    local_cells;
    ret_cells;
    null_frame = Pts.add_rows (List.map null_row (local_cells @ ret_cells)) Pts.empty;
  }

let frame_cells t (f : Ir.func) = Hashtbl.find t.frames f.Ir.fn_name

(** [f]'s scope table: what {!scan_scope} finds, by name. *)
let scope_of (f : Ir.func) =
  let scope = Hashtbl.create 16 in
  let bind kind (n, ty) = if not (Hashtbl.mem scope n) then Hashtbl.replace scope n (kind, ty) in
  List.iter (bind Loc.Kparam) f.Ir.fn_params;
  List.iter (bind Loc.Klocal) f.Ir.fn_locals;
  scope

let make ?(opts = Options.default) (prog : Ir.program) : t =
  let globals = Hashtbl.create 64 in
  List.iter (fun (n, ty) -> Hashtbl.replace globals n ty) prog.Ir.globals;
  let funcs = Hashtbl.create 64 in
  List.iter (fun f -> Hashtbl.replace funcs f.Ir.fn_name f) prog.Ir.funcs;
  let externals = Hashtbl.create 16 in
  List.iter
    (fun (n, s) -> if not (Hashtbl.mem funcs n) then Hashtbl.replace externals n s)
    prog.Ir.protos;
  let t =
    {
      prog;
      opts;
      globals;
      funcs;
      externals;
      global_cells = [];
      global_cell_ord = Loc.Map.empty;
      frames = Hashtbl.create 64;
      scopes = Hashtbl.create 64;
    }
  in
  (* a global declared twice is one location, typed by its last
     declaration (as [var_info] types it) *)
  let seen = Hashtbl.create 64 in
  let global_cells =
    List.concat_map
      (fun (n, _) ->
        if Hashtbl.mem seen n then []
        else begin
          Hashtbl.replace seen n ();
          with_singular (pointer_cells t (Loc.var n Loc.Kglobal) (Hashtbl.find globals n))
        end)
      prog.Ir.globals
  in
  List.iter
    (fun f ->
      Hashtbl.replace t.frames f.Ir.fn_name (frame_of t f);
      Hashtbl.replace t.scopes f.Ir.fn_name (f, scope_of f))
    prog.Ir.funcs;
  {
    t with
    global_cells;
    global_cell_ord =
      List.fold_left
        (fun (ord, i) (cell, _) -> (Loc.Map.add cell i ord, i + 1))
        (Loc.Map.empty, 0) global_cells
      |> fst;
  }
