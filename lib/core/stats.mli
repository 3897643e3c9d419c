(** Statistics over analysis results, reproducing the measurements of
    the paper's Tables 2–6 (§6). All statistics exclude NULL-target
    pairs, matching the paper. *)

module Ir = Simple_ir.Ir

val no_null : Pts.t -> Pts.t

(** {2 Table 2: benchmark characteristics} *)

type characteristics = {
  c_stmts : int;  (** statements in SIMPLE *)
  c_min_vars : int;  (** min abstract-stack size over functions *)
  c_max_vars : int;
}

(** Abstract-stack size of one function: visible named variables, their
    points-to-relevant parts, and the symbolic/special locations observed
    while analyzing it. *)
val abstract_stack_size : Analysis.result -> Ir.func -> int

val characteristics : Analysis.result -> characteristics

(** {2 Table 3: indirect-reference resolution} *)

type indirect_ref = {
  ir_stmt : int;
  ir_base : Loc.t;  (** the dereferenced pointer *)
  ir_array_form : bool;  (** x[i][j]-style vs *x-style (Table 3's pairs) *)
  ir_targets : (Loc.t * Pts.cert) list;  (** NULL excluded *)
}

val collect_indirect_refs : Analysis.result -> indirect_ref list

(** Scalar-form / array-form counter pair (the double columns). *)
type pair_count = { scalar : int; array : int }

val pair_total : pair_count -> int

type indirect_stats = {
  one_d : pair_count;  (** definitely one location *)
  one_p : pair_count;  (** possibly one (the other being NULL) *)
  two_p : pair_count;
  three_p : pair_count;
  four_plus_p : pair_count;
  ind_refs : int;
  scalar_rep : int;  (** replaceable by a direct reference *)
  to_stack : int;
  to_heap : int;
  total_pairs : int;
  avg : float;  (** average locations per indirect reference *)
}

(** Is a single definite target replaceable by a direct reference (not
    invisible, heap or string storage — paper footnote 7)? *)
val replaceable : Loc.t -> bool

val indirect_stats : Analysis.result -> indirect_stats

(** {2 Table 4: from/to categorization} *)

type categorization = {
  from_lo : int;
  from_gl : int;
  from_fp : int;
  from_sy : int;
  to_lo : int;
  to_gl : int;
  to_fp : int;
  to_sy : int;
}

val categorize : Analysis.result -> categorization

(** {2 Table 5: general points-to statistics} *)

type general_stats = {
  stack_to_stack : int;
  stack_to_heap : int;
  heap_to_heap : int;
  heap_to_stack : int;  (** 0 across the paper's whole suite *)
  avg_per_stmt : float;
  max_per_stmt : int;
}

val general : Analysis.result -> general_stats

(** {2 Table 6: invocation graph statistics} *)

type ig_stats = {
  ig_nodes : int;
  call_sites : int;
  n_funcs : int;  (** functions actually called *)
  n_recursive : int;
  n_approximate : int;
  avg_per_call_site : float;
  avg_per_func : float;
}

val ig_stats : Analysis.result -> ig_stats
