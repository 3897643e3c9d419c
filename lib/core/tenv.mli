(** Typing environment: types and kinds of abstract locations and SIMPLE
    references. Shared by the location-set rules, the map/unmap machinery
    and the statistics. *)

open Cfront
module Ir = Simple_ir.Ir

(** The pointer cells a function's frame starts with NULL in (paper §6:
    "we initialize all pointers to NULL"), each paired with its
    {!Loc.singular} flag: a singular cell points to NULL definitely, a
    summary cell possibly. *)
type frame_cells = {
  local_cells : (Loc.t * bool) list;  (** the locals' cells, in declaration order *)
  ret_cells : (Loc.t * bool) list;  (** the return slot's cells *)
  null_frame : Pts.t;
      (** every one of those cells pointing to NULL and nothing else:
          the frame part {!Map_unmap.map_call} builds a callee's input
          on *)
}

type t = {
  prog : Ir.program;
  opts : Options.t;
  globals : (string, Ctype.t) Hashtbl.t;
  funcs : (string, Ir.func) Hashtbl.t;
  externals : (string, Ctype.func_sig) Hashtbl.t;
  global_cells : (Loc.t * bool) list;
      (** the pointer cells of every global, in declaration order, typed
          from the declaration (never from a same-named parameter of the
          function at hand), each with its {!Loc.singular} flag: the
          roots of {!Map_unmap.map_call} *)
  global_cell_ord : int Loc.Map.t;
      (** the same cells, each with its position in that order: the
          declared cells {!Pts.global_index} reads, and the order
          {!Map_unmap.map_call} maps a call's indexed roots in *)
  frames : (string, frame_cells) Hashtbl.t;  (** per defined function *)
  scopes : (string, Ir.func * (string, Loc.var_kind * Ctype.t) Hashtbl.t) Hashtbl.t;
      (** per defined function: the function and its parameters' and
          locals' kinds and types by name, a parameter winning over a
          same-named local ({!var_info}'s table) *)
}

(** Computes the per-program cell tables once. *)
val make : ?opts:Options.t -> Ir.program -> t

(** The frame cells of a function of the program (its [frames] entry). *)
val frame_cells : t -> Ir.func -> frame_cells

val layouts : t -> Ctype.layouts
val find_func : t -> string -> Ir.func option
val is_defined_func : t -> string -> bool
val is_func_name : t -> string -> bool
val func_ret_type : t -> string -> Ctype.t option

(** Kind and type of a name as seen from a function (parameter, local or
    global). *)
val var_info : t -> Ir.func -> string -> (Loc.var_kind * Ctype.t) option

(** The abstract location for a base variable; [None] when the name
    denotes a function. *)
val base_loc : t -> Ir.func -> string -> Loc.t option

(** Type of an abstract location, when derivable ([Heap], [Null], [Str]
    are untyped). *)
val loc_type : t -> Ir.func -> Loc.t -> Ctype.t option

(** Of union type (collapsed to one location by the analysis)? *)
val is_union_loc : t -> Ir.func -> Loc.t -> bool

val is_array_loc : t -> Ir.func -> Loc.t -> bool

(** Type of the cell a SIMPLE reference denotes. *)
val vref_type : t -> Ir.func -> Ir.vref -> Ctype.t option

(** Must the analysis process an assignment through this reference
    (pointer cells, pointer-carrying unions)? *)
val is_pointer_assignment : t -> Ir.func -> Ir.vref -> bool

(** Pointer-carrying cells contained in a location of the given type:
    itself for pointers, head/tail for arrays, one per pointer-carrying
    struct field, the collapsed location for unions. *)
val pointer_cells : t -> Loc.t -> Ctype.t -> (Loc.t * Ctype.t) list
