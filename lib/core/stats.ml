(** Statistics over analysis results, reproducing the measurements of the
    paper's Tables 2–6 (§6).

    All statistics exclude points-to pairs whose target is NULL, matching
    the paper ("we initialize all pointers to NULL ... points-to
    relationships contributed by it are not counted"). *)

module Ir = Simple_ir.Ir
module Ig = Invocation_graph

let no_null (s : Pts.t) = Pts.remove_tgt Loc.Null s

(* ------------------------------------------------------------------ *)
(* Table 2: abstract stack sizes                                      *)
(* ------------------------------------------------------------------ *)

type characteristics = {
  c_stmts : int;  (** statements in SIMPLE *)
  c_min_vars : int;  (** min abstract-stack size over functions *)
  c_max_vars : int;
}

(** Size of a function's abstract stack: its visible named variables
    (globals, parameters, locals), the fields/array locations relevant to
    points-to analysis, and the symbolic and special locations observed
    while analyzing it. *)
let abstract_stack_size (r : Analysis.result) (fn : Ir.func) : int =
  let tenv = r.Analysis.tenv in
  let locs = ref Loc.Set.empty in
  let add_var l ty =
    locs := Loc.Set.add l !locs;
    List.iter (fun (cell, _) -> locs := Loc.Set.add cell !locs) (Tenv.pointer_cells tenv l ty)
  in
  List.iter (fun (g, ty) -> add_var (Loc.var g Loc.Kglobal) ty) r.Analysis.prog.Ir.globals;
  List.iter (fun (n, ty) -> add_var (Loc.var n Loc.Kparam) ty) fn.Ir.fn_params;
  List.iter (fun (n, ty) -> add_var (Loc.var n Loc.Klocal) ty) fn.Ir.fn_locals;
  (* locations observed in the recorded sets of this function's statements
     (symbolic names, heap, array locations reached through pointers) *)
  Ir.fold_func
    (fun () s ->
      match Hashtbl.find_opt r.Analysis.stmt_pts s.Ir.s_id with
      | None -> ()
      | Some pts ->
          locs := Loc.Set.union !locs (Pts.all_locs (no_null pts)))
    () fn;
  Loc.Set.cardinal !locs

let characteristics (r : Analysis.result) : characteristics =
  let sizes = List.map (abstract_stack_size r) r.Analysis.prog.Ir.funcs in
  match sizes with
  | [] -> { c_stmts = r.Analysis.prog.Ir.n_stmts; c_min_vars = 0; c_max_vars = 0 }
  | s :: rest ->
      {
        c_stmts = r.Analysis.prog.Ir.n_stmts;
        c_min_vars = List.fold_left min s rest;
        c_max_vars = List.fold_left max s rest;
      }

(* ------------------------------------------------------------------ *)
(* Table 3: indirect-reference resolution                             *)
(* ------------------------------------------------------------------ *)

(** One indirect reference occurrence: the statement, whether it is of
    array form (x[i][j]-style, i.e. the dereference feeds an index), and
    the points-to pairs of the dereferenced pointer at that point. *)
type indirect_ref = {
  ir_stmt : int;
  ir_base : Loc.t;  (** the dereferenced pointer *)
  ir_array_form : bool;
  ir_targets : (Loc.t * Pts.cert) list;  (** NULL excluded *)
}

(** The indirect references of a statement: every vref with a
    dereference, on either side. *)
let stmt_indirect_vrefs (s : Ir.stmt) : Ir.vref list =
  let of_rhs = function
    | Ir.Rref r | Ir.Raddr r | Ir.Rarith (r, _) -> [ r ]
    | Ir.Rconst _ | Ir.Rnull | Ir.Rstr | Ir.Rmalloc | Ir.Rbinop _ | Ir.Runop _ -> []
  in
  let of_operand = function Ir.Oref r -> [ r ] | Ir.Oconst _ | Ir.Onull | Ir.Ostr -> [] in
  let refs =
    match s.Ir.s_desc with
    | Ir.Sassign (l, rhs) -> (l :: of_rhs rhs)
    | Ir.Scall (lhs, callee, args) ->
        (match lhs with Some l -> [ l ] | None -> [])
        @ (match callee with Ir.Cindirect r -> [ r ] | Ir.Cdirect _ -> [])
        @ List.concat_map of_operand args
    | Ir.Sreturn (Some op) -> of_operand op
    | Ir.Sif _ | Ir.Sloop _ | Ir.Sswitch _ | Ir.Sbreak | Ir.Scontinue | Ir.Sreturn None -> []
  in
  List.filter (fun r -> r.Ir.r_deref) refs

let collect_indirect_refs (r : Analysis.result) : indirect_ref list =
  let tenv = r.Analysis.tenv in
  List.concat_map
    (fun fn ->
      List.rev
        (Ir.fold_func
           (fun acc s ->
             let refs = stmt_indirect_vrefs s in
             if refs = [] then acc
             else
               let pts = Analysis.pts_at r s.Ir.s_id in
               List.fold_left
                 (fun acc (vref : Ir.vref) ->
                   match Tenv.base_loc tenv fn vref.Ir.r_base with
                   | None -> acc
                   | Some base ->
                       let targets =
                         List.filter
                           (fun (t, _) -> not (Loc.is_null t))
                           (Pts.targets base pts)
                       in
                       let array_form =
                         List.exists
                           (function Ir.Sindex _ | Ir.Sshift _ -> true | Ir.Sfield _ -> false)
                           vref.Ir.r_path
                       in
                       {
                         ir_stmt = s.Ir.s_id;
                         ir_base = base;
                         ir_array_form = array_form;
                         ir_targets = targets;
                       }
                       :: acc)
                 acc refs)
           [] fn))
    r.Analysis.prog.Ir.funcs

(** A (scalar-form, array-form) pair of counters, as in the double
    columns of Table 3. *)
type pair_count = { scalar : int; array : int }

let zero_pair = { scalar = 0; array = 0 }

let bump pc array_form =
  if array_form then { pc with array = pc.array + 1 } else { pc with scalar = pc.scalar + 1 }

let pair_total pc = pc.scalar + pc.array

type indirect_stats = {
  one_d : pair_count;  (** definitely one stack location *)
  one_p : pair_count;  (** possibly one (the other being NULL) *)
  two_p : pair_count;
  three_p : pair_count;
  four_plus_p : pair_count;
  ind_refs : int;
  scalar_rep : int;  (** replaceable by a direct reference *)
  to_stack : int;  (** pairs used, target on the stack *)
  to_heap : int;
  total_pairs : int;
  avg : float;
}

(** Can an indirect reference with this single definite target be
    replaced by a direct reference? Not when the target is an invisible
    variable (symbolic), heap or string storage. *)
let replaceable (l : Loc.t) =
  Loc.sym_depth l = 0
  &&
  match Loc.root l with
  | Loc.Var _ -> true
  | Loc.Heap | Loc.Site _ | Loc.Null | Loc.Str | Loc.Fun _ | Loc.Ret _ -> false
  | Loc.Fld _ | Loc.Head _ | Loc.Tail _ | Loc.Sym _ -> false

let indirect_stats (r : Analysis.result) : indirect_stats =
  let refs = collect_indirect_refs r in
  let acc =
    List.fold_left
      (fun acc ir ->
        let n = List.length ir.ir_targets in
        let all_d = List.for_all (fun (_, c) -> c = Pts.D) ir.ir_targets in
        let acc =
          match (n, all_d) with
          | 1, true -> { acc with one_d = bump acc.one_d ir.ir_array_form }
          | 1, false -> { acc with one_p = bump acc.one_p ir.ir_array_form }
          | 2, _ -> { acc with two_p = bump acc.two_p ir.ir_array_form }
          | 3, _ -> { acc with three_p = bump acc.three_p ir.ir_array_form }
          | 0, _ -> acc
          | _ -> { acc with four_plus_p = bump acc.four_plus_p ir.ir_array_form }
        in
        let rep =
          match ir.ir_targets with
          | [ (t, Pts.D) ] when replaceable t -> 1
          | _ -> 0
        in
        let stack, heap =
          List.fold_left
            (fun (s, h) (t, _) -> if Loc.is_stack t then (s + 1, h) else (s, h + 1))
            (0, 0) ir.ir_targets
        in
        {
          acc with
          ind_refs = acc.ind_refs + 1;
          scalar_rep = acc.scalar_rep + rep;
          to_stack = acc.to_stack + stack;
          to_heap = acc.to_heap + heap;
        })
      {
        one_d = zero_pair;
        one_p = zero_pair;
        two_p = zero_pair;
        three_p = zero_pair;
        four_plus_p = zero_pair;
        ind_refs = 0;
        scalar_rep = 0;
        to_stack = 0;
        to_heap = 0;
        total_pairs = 0;
        avg = 0.;
      }
      refs
  in
  let total = acc.to_stack + acc.to_heap in
  {
    acc with
    total_pairs = total;
    avg = (if acc.ind_refs = 0 then 0. else float_of_int total /. float_of_int acc.ind_refs);
  }

(* ------------------------------------------------------------------ *)
(* Table 4: from/to categorization of pairs used by indirect refs     *)
(* ------------------------------------------------------------------ *)

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

let categorize (r : Analysis.result) : categorization =
  let refs = collect_indirect_refs r in
  let zero =
    {
      from_lo = 0;
      from_gl = 0;
      from_fp = 0;
      from_sy = 0;
      to_lo = 0;
      to_gl = 0;
      to_fp = 0;
      to_sy = 0;
    }
  in
  List.fold_left
    (fun acc ir ->
      List.fold_left
        (fun acc (t, _) ->
          if not (Loc.is_stack t) then acc
          else
            let acc =
              match Loc.category ir.ir_base with
              | Some `Lo -> { acc with from_lo = acc.from_lo + 1 }
              | Some `Gl -> { acc with from_gl = acc.from_gl + 1 }
              | Some `Fp -> { acc with from_fp = acc.from_fp + 1 }
              | Some `Sy -> { acc with from_sy = acc.from_sy + 1 }
              | None -> acc
            in
            match Loc.category t with
            | Some `Lo -> { acc with to_lo = acc.to_lo + 1 }
            | Some `Gl -> { acc with to_gl = acc.to_gl + 1 }
            | Some `Fp -> { acc with to_fp = acc.to_fp + 1 }
            | Some `Sy -> { acc with to_sy = acc.to_sy + 1 }
            | None -> acc)
        acc ir.ir_targets)
    zero refs

(* ------------------------------------------------------------------ *)
(* Table 5: general points-to statistics                              *)
(* ------------------------------------------------------------------ *)

type general_stats = {
  stack_to_stack : int;
  stack_to_heap : int;
  heap_to_heap : int;
  heap_to_stack : int;
  avg_per_stmt : float;
  max_per_stmt : int;
}

let general (r : Analysis.result) : general_stats =
  let n_stmts = ref 0 in
  let ss = ref 0 and sh = ref 0 and hh = ref 0 and hs = ref 0 in
  let maxp = ref 0 in
  let total = ref 0 in
  List.iter
    (fun fn ->
      Ir.fold_func
        (fun () s ->
          incr n_stmts;
          match Hashtbl.find_opt r.Analysis.stmt_pts s.Ir.s_id with
          | None -> ()
          | Some pts ->
              let pts = no_null pts in
              let n = Pts.cardinal pts in
              total := !total + n;
              if n > !maxp then maxp := n;
              Pts.iter
                (fun src tgt _ ->
                  match (Loc.is_stack src, Loc.is_stack tgt) with
                  | true, true -> incr ss
                  | true, false -> incr sh
                  | false, false -> incr hh
                  | false, true -> incr hs)
                pts)
        () fn)
    r.Analysis.prog.Ir.funcs;
  {
    stack_to_stack = !ss;
    stack_to_heap = !sh;
    heap_to_heap = !hh;
    heap_to_stack = !hs;
    avg_per_stmt =
      (if !n_stmts = 0 then 0. else float_of_int !total /. float_of_int !n_stmts);
    max_per_stmt = !maxp;
  }

(* ------------------------------------------------------------------ *)
(* Table 6: invocation graph statistics                               *)
(* ------------------------------------------------------------------ *)

type ig_stats = {
  ig_nodes : int;
  call_sites : int;
  n_funcs : int;  (** functions actually called *)
  n_recursive : int;
  n_approximate : int;
  avg_per_call_site : float;
  avg_per_func : float;
}

let ig_stats (r : Analysis.result) : ig_stats =
  let g = r.Analysis.graph in
  let tenv = r.Analysis.tenv in
  (* call sites: call statements that can invoke a defined function *)
  let call_sites =
    List.length
      (List.filter
         (fun ((_ : Ir.func), (s : Ir.stmt)) ->
           match s.Ir.s_desc with
           | Ir.Scall (_, Ir.Cdirect f, _) -> Tenv.is_defined_func tenv f
           | Ir.Scall (_, Ir.Cindirect _, _) -> true
           | _ -> false)
         (Ir.call_sites r.Analysis.prog))
  in
  let nodes = Ig.n_nodes g in
  let funcs = List.filter (fun f -> f <> g.Ig.root.Ig.func) (Ig.called_funcs g) in
  let n_funcs = List.length funcs in
  {
    ig_nodes = nodes;
    call_sites;
    n_funcs;
    n_recursive = Ig.n_recursive g;
    n_approximate = Ig.n_approximate g;
    avg_per_call_site =
      (if call_sites = 0 then 0. else float_of_int nodes /. float_of_int call_sites);
    avg_per_func = (if n_funcs = 0 then 0. else float_of_int nodes /. float_of_int n_funcs);
  }
