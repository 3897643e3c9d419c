(** The analysis engine: compositional intraprocedural rules (paper
    Figure 1) and the context-sensitive interprocedural strategy over the
    invocation graph (Figures 4 and 5).

    Control flow is handled with a four-way flow state — the normal
    continuation plus the pending break / continue / return states — so
    the structured rules for [if], the unified loop form, [switch] with
    fall-through, [break], [continue] and [return] are all compositional
    (the "complete set of compositional rules" of [Emami 93]).

    Strong updates follow the refinement discussed in DESIGN.md: a
    definite L-location whose abstract location is {e singular}
    (represents exactly one real location) kills its old relationships;
    non-singular locations (array tails, the heap, summarized symbolic
    names) receive weak updates, and relationships generated from them
    are demoted to possible. *)

module Ir = Simple_ir.Ir
module Ig = Invocation_graph
open Cfront

(** Where a {!summary_entry} came from. Live entries answer a lookup
    only under §6 sub-tree sharing; seeded ones answer either way, by
    replaying their frame. *)
type origin =
  | Seeded  (** loaded from a previous run's persisted summaries, not yet replayed *)
  | Replayed
      (** seeded and replayed this run with sharing off: still answers as
          a seed, and is written back like a live entry *)
  | Live  (** evaluated this run, or seeded and replayed with sharing on *)

(** One memoized (input, output) pair of a function. The frame, present
    when the run records summaries (and on every seed), holds the
    per-statement points-to contributions its (transitively nested)
    evaluation made — everything a later run needs to {e replay} the
    invocation without re-processing the body. Frames are keyed by
    statement id and hold the merged contribution of the evaluation to
    that statement's row: the statements its body visited, plus the
    frame of every callee evaluation, memo hit and replay it contained,
    each folded in once when it finished. *)
type summary_entry = {
  se_in : Pts.t;
  se_out : Pts.t;
  se_frame : (int, Pts.t) Hashtbl.t option;
  mutable se_origin : origin;
}

(** The one (function, input) summary store: function name, then
    {!Pts.hash} of the input, so a lookup costs one digest plus O(1)
    expected instead of a [Pts.equal] scan over every stored context.
    It serves §6 sub-tree sharing, incremental record and replay, and
    demand-mode skip replay. *)
type store = (string, (int, summary_entry list) Hashtbl.t) Hashtbl.t

let store_create () : store = Hashtbl.create 16

let store_find (st : store) fname h (input : Pts.t) : summary_entry option =
  match Hashtbl.find_opt st fname with
  | None -> None
  | Some by_hash -> (
      match Hashtbl.find_opt by_hash h with
      | None -> None
      | Some entries -> List.find_opt (fun e -> Pts.equal e.se_in input) entries)

(** Add [e] under input hash [h] unless an entry with the same input
    is already stored: the first evaluation of an input wins. *)
let store_add (st : store) fname h (e : summary_entry) =
  let by_hash =
    match Hashtbl.find_opt st fname with
    | Some t -> t
    | None ->
        let t = Hashtbl.create 16 in
        Hashtbl.replace st fname t;
        t
  in
  let entries = Option.value ~default:[] (Hashtbl.find_opt by_hash h) in
  if not (List.exists (fun e' -> Pts.equal e'.se_in e.se_in) entries) then
    Hashtbl.replace by_hash h (e :: entries)

type ctx = {
  tenv : Tenv.t;
  opts : Options.t;
  guard : Guard.t;
      (** resource governor, polled at the fixed-point boundaries below;
          an unlimited guard still polls task cancellation *)
  stmt_pts : (int, Pts.t) Hashtbl.t;
      (** merged points-to set valid at each statement, over all
          contexts: the root of the recording chain *)
  mutable warnings : string list;
  warn_seen : (string, unit) Hashtbl.t;
      (** messages already emitted (duplicate suppression in O(1)) *)
  (* context-insensitive ablation: one IN/OUT slot per function *)
  ci_slots : (string, Pts.t option * Pts.state) Hashtbl.t;
  ci_in_flight : (string, unit) Hashtbl.t;
  ci_done : (string, unit) Hashtbl.t;
      (** functions whose body has already been processed during the
          current driver pass with their current slot input; the driver
          resets this at each pass boundary. A repeat call whose merged
          input did not grow reuses the slot output instead of
          re-walking the body — the final (no-change) pass processes
          each reachable function exactly once, so the fixpoint and the
          recorded [stmt_pts] are identical to the unmemoized walk *)
  mutable ci_changed : bool;
  store : store;
      (** completed (input, output) pairs of this run plus the seeds it
          was given (docs/INCREMENTAL.md) *)
  record_summaries : bool;
      (** record a frame with every evaluated (function, input) pair so
          {!Persist} can write the summary section *)
  mutable recording : (int, Pts.t) Hashtbl.t;
      (** the innermost open recording table, the only one a statement
          visit merges into: the frame of the innermost in-flight
          evaluation when the run records summaries, [stmt_pts]
          otherwise. A finished frame is folded into the table that was
          innermost when it opened, so each row reaches [stmt_pts]
          through its chain of enclosing frames *)
  demand : Demand.plan option;
      (** demand mode (docs/DEMAND.md): when set, calls to defined
          functions outside the plan's slice are answered without
          evaluation (seeded-summary replay when available, the widened
          transfer otherwise), only the seed function's statement rows
          are recorded, and every evaluated indirect site re-checks the
          plan's oracle — a target it did not predict raises
          {!Demand.Oracle_miss} *)
}

(** [seeded] enters the store as seeds. The run works on its own copy:
    one set of seeds may serve many runs (a demand session replays it
    per query), while a run turns the entries it replays live. *)
let make_ctx ?guard ?(record_summaries = false) ?seeded ?demand (tenv : Tenv.t) : ctx =
  let store = store_create () in
  let stmt_pts = Hashtbl.create 256 in
  Option.iter
    (Hashtbl.iter (fun fname ->
         Hashtbl.iter (fun h ->
             List.iter (fun e -> store_add store fname h { e with se_origin = Seeded }))))
    seeded;
  {
    tenv;
    opts = tenv.Tenv.opts;
    guard = (match guard with Some g -> g | None -> Guard.unlimited ());
    stmt_pts;
    warnings = [];
    warn_seen = Hashtbl.create 16;
    ci_slots = Hashtbl.create 16;
    ci_in_flight = Hashtbl.create 16;
    ci_done = Hashtbl.create 16;
    ci_changed = false;
    store;
    record_summaries;
    recording = stmt_pts;
    demand;
  }

let warn ctx fmt =
  Fmt.kstr
    (fun m ->
      if not (Hashtbl.mem ctx.warn_seen m) then begin
        Hashtbl.replace ctx.warn_seen m ();
        ctx.warnings <- m :: ctx.warnings
      end)
    fmt

(** Flow state through structured statements. Each component is a
    {!Pts.state} ([None] = Figure 4's Bottom / unreachable). *)
type flow = {
  normal : Pts.state;
  brk : Pts.state;
  cont : Pts.state;
  ret : Pts.state;
}

let flow_of normal = { normal; brk = Pts.bot; cont = Pts.bot; ret = Pts.bot }

let merge_flow a b =
  {
    normal = Pts.merge_state a.normal b.normal;
    brk = Pts.merge_state a.brk b.brk;
    cont = Pts.merge_state a.cont b.cont;
    ret = Pts.merge_state a.ret b.ret;
  }

(** Merge [row] into statement [sid]'s row of the innermost open table,
    unless a demand plan keeps only its seed's rows and [sid] is not one
    of them. Statement visits and folded frames both pass this gate. *)
let record ctx sid (row : Pts.t) =
  if match ctx.demand with Some p -> Demand.records p sid | None -> true then
    match Hashtbl.find_opt ctx.recording sid with
    | None -> Hashtbl.replace ctx.recording sid row
    | Some old -> Hashtbl.replace ctx.recording sid (Pts.merge old row)

(** Fold a frame into the innermost open table: the frame of a finished
    evaluation, of a memo hit or of a replayed summary, exactly as if
    its statement visits had been recorded there. *)
let fold_frame ctx (frame : (int, Pts.t) Hashtbl.t) = Hashtbl.iter (record ctx) frame

(** Does [t] carry pointers inside a struct or union (so values of it
    are copied cell by cell)? *)
let su_ptr ctx t = Ctype.is_su t && Ctype.carries_pointers (Tenv.layouts ctx.tenv) t

(* ------------------------------------------------------------------ *)
(* Basic statement rule (Figure 1, process_basic_stmt)                *)
(* ------------------------------------------------------------------ *)

(** Apply the kill/change/gen rule for an assignment with the given L-
    and R-location sets. *)
let apply_assign (ctx : ctx) (s : Pts.t) (lhs : Lval.locset) (rhs : Lval.locset) : Pts.t =
  let use_definite = ctx.opts.Options.use_definite in
  let m = Metrics.cur () in
  m.Metrics.assigns <- m.Metrics.assigns + 1;
  (* kill: all relationships of definite, singular L-locations *)
  let s =
    Loc.Map.fold
      (fun l c acc ->
        if use_definite && c = Pts.D && Loc.singular l then begin
          m.Metrics.kills <- m.Metrics.kills + 1;
          Pts.kill_src l acc
        end
        else acc)
      lhs s
  in
  (* change: relationships of possible (or non-singular) L-locations
     weaken from definite to possible *)
  let s =
    Loc.Map.fold
      (fun l c acc ->
        if c = Pts.P || (not (Loc.singular l)) || not use_definite then begin
          m.Metrics.weakens <- m.Metrics.weakens + 1;
          Pts.weaken_src l acc
        end
        else acc)
      lhs s
  in
  (* gen: all combinations of L-locations and R-locations; definite only
     when both are definite and the target cell is singular *)
  Loc.Map.fold
    (fun l cl acc ->
      Loc.Map.fold
        (fun r cr acc ->
          let cert =
            if use_definite && Loc.singular l then Pts.cert_and cl cr else Pts.P
          in
          m.Metrics.gens <- m.Metrics.gens + 1;
          Pts.add l r cert acc)
        rhs acc)
    lhs s

(** Model of a call to a function outside the program: no effect on the
    reachable points-to relationships (library functions in the
    benchmark suite do not store pointers), except that a pointer result
    may point to the heap, to string storage, or into any argument's
    target (e.g. strchr). *)
let external_result_targets tenv fn (s : Pts.t) (args : Ir.operand list) : Lval.locset =
  let base = Lval.of_list [ (Loc.Heap, Pts.P); (Loc.Str, Pts.P) ] in
  List.fold_left
    (fun acc arg ->
      let ts = Lval.rvals_operand tenv fn s arg in
      Loc.Map.fold
        (fun l _ acc -> if Loc.is_null l then acc else Lval.add_loc l Pts.P acc)
        ts acc)
    base args

(** Result targets of a call to [fname] outside the program: the
    {!Libmodel} table when it covers the call (malloc family returns a
    fresh object, [strcpy]/[strchr] return (into) their argument, the
    safe no-op list returns nothing), the coarse model above otherwise.
    Both populations are counted ([ext_modeled] / [ext_unmodeled]). *)
let external_call_targets tenv fn (s : Pts.t) (fname : string) (args : Ir.operand list) :
    (Loc.t * Pts.cert) list =
  let m = Metrics.cur () in
  let modeled v =
    m.Metrics.ext_modeled <- m.Metrics.ext_modeled + 1;
    v
  in
  match Libmodel.find fname with
  | Some Libmodel.Pure -> modeled []
  | Some Libmodel.New_object -> modeled [ (Loc.Heap, Pts.P) ]
  | Some (Libmodel.Returns_arg k) when List.length args >= k ->
      let ts = Lval.rvals_operand tenv fn s (List.nth args (k - 1)) in
      modeled (Loc.Map.fold (fun l c acc -> (l, c) :: acc) ts [])
  | Some (Libmodel.Returns_arg _) | None ->
      m.Metrics.ext_unmodeled <- m.Metrics.ext_unmodeled + 1;
      Lval.to_list (external_result_targets tenv fn s args)

(** Is a call to [fname] (a {e defined} function) skipped under the
    demand plan? *)
let demand_skips ctx fname =
  match ctx.demand with
  | Some p -> not (Demand.in_slice p fname)
  | None -> false

(** The global variable a location is a cell of, when it is one: the
    root of its [Fld]/[Head]/[Tail] chain if that root is a global.
    [Sym] cells (caller invisibles) are reachable only through a
    dereference, so a callee cone free of dereferencing writes cannot
    touch them. *)
let rec loc_global_root = function
  | Loc.Var (n, Loc.Kglobal) -> Some n
  | Loc.Fld (l, _) | Loc.Head l | Loc.Tail l -> loc_global_root l
  | Loc.Var _ | Loc.Sym _ | Loc.Heap | Loc.Site _ | Loc.Null | Loc.Str | Loc.Fun _
  | Loc.Ret _ ->
      None

(* The widened transfer for a call skipped in demand mode with no
   seeded summary to replay: every cell the callee cone may modify (per
   the plan's {!Demand.func_mods} summary — everything it can see when
   the cone writes through a dereference, else just its
   directly-assigned globals) may be rewritten to point at anything
   visible, at the heap, or at string storage, and its definite
   relationships are demoted to possible. No new function-pointer
   targets are invented: inventing them could only send later indirect
   sites to targets the plan's oracle never predicted (a spurious
   {!Demand.Oracle_miss}), and by plan construction no skipped effect
   flows into the recorded rows, so the omission is invisible where the
   result is trusted (docs/DEMAND.md states the contract precisely). *)

(** One widened row over [locs] (plus heap and string storage, minus
    NULL and function targets — the widen never invents function-pointer
    targets), physically shared by every rewritten source: n sources
    with n-location rows cost O(n) memory and O(n log n) construction
    instead of O(n^2) repeated inserts. *)
let wide_row_of (locs : Loc.Set.t) : Pts.cert Loc.Map.t =
  Loc.Set.fold
    (fun l acc ->
      if Loc.is_null l then acc
      else match l with Loc.Fun _ -> acc | _ -> Loc.Map.add l Pts.P acc)
    locs
    (Loc.Map.add Loc.Heap Pts.P (Loc.Map.singleton Loc.Str Pts.P))

(** Rebind [src] to the shared wide row, keeping existing targets the
    row misses (NULL, functions) demoted to possible like everything
    else. *)
let widen_src wide_row src s =
  let row =
    Loc.Map.fold
      (fun t _ acc -> if Loc.Map.mem t acc then acc else Loc.Map.add t Pts.P acc)
      (Pts.tgt_map src s) wide_row
  in
  Pts.add_rows [ (src, row) ] s

(** Rebind every source of [s] that [keep] selects to the wide [row]
    (forced on the first rebind only). *)
let widen_where row keep (s : Pts.t) : Pts.t =
  let out = ref s in
  Pts.iter_srcs (fun src _ -> if keep src then out := widen_src (Lazy.force row) src !out) s;
  !out

(** Is [src] a cell of one of the globals [gs]? *)
let modified_global gs src =
  match loc_global_root src with Some g -> Hashtbl.mem gs g | None -> false

let demand_mods ctx fname =
  match ctx.demand with
  | Some plan -> Demand.func_mods plan fname
  | None -> Demand.Mod_all

(** Widened transfer over a {e mapped} callee input, for a skipped call
    that had to go through {!Map_unmap.map_call} anyway (a seeded
    summary may match, or a pointer-carrying struct flows through the
    call): every cell the callee cone may modify (per the plan's
    {!Demand.func_mods} summary) may be rewritten to point at anything
    visible, at the heap, or at string storage, and its definite
    relationships are demoted to possible. *)
let demand_widen ctx (callee_fn : Ir.func) (func_input : Pts.t) : Pts.t =
  let row = lazy (wide_row_of (Pts.all_locs func_input)) in
  let keep =
    match demand_mods ctx callee_fn.Ir.fn_name with
    | Demand.Mod_all -> fun _ -> true
    | Demand.Mod_globals gs -> modified_global gs
  in
  let out = widen_where row keep func_input in
  if Ctype.is_pointer (Ctype.decay callee_fn.Ir.fn_ret) then
    let ret = Loc.ret callee_fn.Ir.fn_name in
    Pts.add_weak ret Loc.Null Pts.P (widen_src (Lazy.force row) ret out)
  else out

(* ------------------------------------------------------------------ *)
(* Calls (Figures 4 and 5)                                            *)
(* ------------------------------------------------------------------ *)

let actual_of_operand ctx fn (s : Pts.t) (pty : Ctype.t option) (op : Ir.operand) :
    Map_unmap.actual =
  match op with
  | Ir.Oref r when Ir.is_plain_var r -> (
      let is_agg =
        match Tenv.var_info ctx.tenv fn r.Ir.r_base with
        | Some (_, ty) -> Ctype.is_su ty
        | None -> false
      in
      if is_agg then
        match Tenv.base_loc ctx.tenv fn r.Ir.r_base with
        | Some l -> Map_unmap.Aagg l
        | None -> Map_unmap.Aother
      else
        match pty with
        | Some pty when Ctype.is_pointer (Ctype.decay pty) ->
            Map_unmap.Aptr (Lval.rvals_operand ctx.tenv fn s op)
        | Some _ -> Map_unmap.Aother
        | None ->
            (* unknown parameter type (variadic or unprototyped): pass
               pointer info if the operand is pointer-typed *)
            let opty = Tenv.vref_type ctx.tenv fn r in
            if (match opty with Some t -> Ctype.is_pointer (Ctype.decay t) | None -> false)
            then Map_unmap.Aptr (Lval.rvals_operand ctx.tenv fn s op)
            else Map_unmap.Aother)
  | Ir.Oref _ -> Map_unmap.Aptr (Lval.rvals_operand ctx.tenv fn s op)
  | Ir.Onull | Ir.Oconst _ -> Map_unmap.Aother
  | Ir.Ostr -> Map_unmap.Aptr (Lval.of_list [ (Loc.Str, Pts.P) ])

(** The call's actuals, each paired with its parameter type when the
    callee declares one. Extra actuals (variadic or unprototyped calls)
    have no type; missing trailing ones are left to
    {!Map_unmap.map_call}, which binds their formals to NULL. *)
let actuals_of ctx caller_fn (s : Pts.t) (callee_fn : Ir.func) (args : Ir.operand list) :
    Map_unmap.actual list =
  let rec go params args =
    match (params, args) with
    | _, [] -> []
    | [], op :: args -> actual_of_operand ctx caller_fn s None op :: go [] args
    | (_, t) :: params, op :: args ->
        actual_of_operand ctx caller_fn s (Some t) op :: go params args
  in
  go callee_fn.Ir.fn_params args

(** What a call hands back to its caller: the caller-side output state,
    the return value's targets, and the targets of each returned
    pointer cell of an aggregate result. *)
type call_result =
  Pts.state * (Loc.t * Pts.cert) list * ((Loc.t -> Loc.t) * (Loc.t * Pts.cert) list) list

(** Figure 4's process_call around a [transfer] of the callee: map the
    caller's state [s] into [callee_fn], apply [transfer] to the mapped
    input, and unmap its output ([merged] when the output stands for
    more than this call's context) with the return-value targets. The
    evaluation of {!invoke} and the replay-or-widen of a demand skip
    are the two transfers. *)
let call_mapped ctx caller_fn (s : Pts.t) (callee_fn : Ir.func) (args : Ir.operand list)
    ~merged (transfer : Pts.t -> Map_unmap.info -> Pts.state) : call_result =
  let callee = callee_fn.Ir.fn_name in
  let actuals = actuals_of ctx caller_fn s callee_fn args in
  let func_input, info =
    Map_unmap.map_call ctx.tenv ~caller_fn ~callee:callee_fn ~input:s ~actuals
  in
  match transfer func_input info with
  | None -> (Pts.bot, [], [])
  | Some out ->
      let result = Map_unmap.unmap_call ~callee ~merged ctx.tenv ~input:s ~output:out ~info in
      let ret_tgts = Map_unmap.return_targets ~output:out ~info ~callee in
      let ret_cells =
        if su_ptr ctx callee_fn.Ir.fn_ret then
          Map_unmap.return_cell_targets ~output:out ~info ~callee
        else []
      in
      (Some result, ret_tgts, ret_cells)

(** Answer a call to a defined function outside the demand slice
    without evaluating it: map the input, replay a seeded summary when
    one matches the mapped input (exact), otherwise apply the widened
    transfer, and unmap — no invocation-graph child is created and no
    body is processed. By plan construction the imprecision cannot flow
    into the recorded (seed) rows. *)
let demand_skip ctx caller_fn (s : Pts.t) (callee_fn : Ir.func) (args : Ir.operand list) :
    call_result =
  let fname = callee_fn.Ir.fn_name in
  let m = Metrics.cur () in
  (* a function outside the slice is never evaluated, so every store
     entry it has is a seed *)
  let fast =
    (not (Hashtbl.mem ctx.store fname))
    && (not (su_ptr ctx callee_fn.Ir.fn_ret))
    && List.for_all (fun (_, t) -> not (su_ptr ctx t)) callee_fn.Ir.fn_params
    && List.length args <= List.length callee_fn.Ir.fn_params
  in
  if fast then begin
    (* no seeded summary can match and no pointer-carrying struct flows
       through the call: widen the caller's state in place over the
       cells the callee can see — the same closure {!Map_unmap.map_call}
       would compute (globals plus everything reachable from the
       actuals) — and spare the map/unmap round trip that otherwise
       dominates the cost of a skip *)
    m.Metrics.demand_skipped <- m.Metrics.demand_skipped + 1;
    let visible () =
      let seen = ref Loc.Set.empty in
      let q = Queue.create () in
      let push l =
        if not (Loc.Set.mem l !seen) then begin
          seen := Loc.Set.add l !seen;
          Queue.push l q
        end
      in
      Pts.iter_srcs (fun src _ -> if loc_global_root src <> None then push src) s;
      List.iter
        (fun op ->
          Loc.Map.iter (fun l _ -> push l) (Lval.rvals_operand ctx.tenv caller_fn s op))
        args;
      while not (Queue.is_empty q) do
        Loc.Map.iter (fun t _ -> push t) (Pts.tgt_map (Queue.pop q) s)
      done;
      !seen
    in
    let row, keep =
      match demand_mods ctx fname with
      | Demand.Mod_globals gs -> (lazy (wide_row_of (Pts.all_locs s)), modified_global gs)
      | Demand.Mod_all ->
          let vis = visible () in
          (lazy (wide_row_of vis), fun src -> Loc.Set.mem src vis)
    in
    let out = widen_where row keep s in
    let ret_tgts =
      if Ctype.is_pointer (Ctype.decay callee_fn.Ir.fn_ret) then
        (Loc.Null, Pts.P)
        :: Loc.Map.fold (fun l c acc -> (l, c) :: acc) (Lazy.force row) []
      else []
    in
    (Some out, ret_tgts, [])
  end
  else
    call_mapped ctx caller_fn s callee_fn args ~merged:true (fun func_input _ ->
        match store_find ctx.store fname (Pts.hash func_input) func_input with
        | Some { se_origin = Seeded | Replayed; se_out; _ } ->
            m.Metrics.demand_replays <- m.Metrics.demand_replays + 1;
            Some se_out
        | Some { se_origin = Live; _ } | None ->
            m.Metrics.demand_skipped <- m.Metrics.demand_skipped + 1;
            Some (demand_widen ctx callee_fn func_input))

(** One target [fname] of a call: a function outside the program goes
    to its library model, a defined one outside the demand slice to
    {!demand_skip}, and any other to [evaluate]. *)
let call_target ctx fn (s : Pts.t) (args : Ir.operand list) fname
    (evaluate : Ir.func -> call_result) : call_result =
  match Tenv.find_func ctx.tenv fname with
  | None -> (Some s, external_call_targets ctx.tenv fn s fname args, [])
  | Some callee_fn when demand_skips ctx fname -> demand_skip ctx fn s callee_fn args
  | Some callee_fn -> evaluate callee_fn

(** Bind the call's result into the caller state. *)
let finish_call ctx fn ((out, ret_tgts, ret_cells) : call_result) lhs : flow =
  match out with
  | None -> flow_of Pts.bot
  | Some s -> (
      match lhs with
      | None -> flow_of (Some s)
      | Some lref ->
          if Tenv.is_pointer_assignment ctx.tenv fn lref then begin
            let lhs_locs = Lval.lvals ctx.tenv fn s lref in
            let rvals =
              match ret_tgts with
              | [] -> Lval.of_list [ (Loc.Null, Pts.D) ]
              | _ -> Lval.of_list ret_tgts
            in
            flow_of (Some (apply_assign ctx s lhs_locs rvals))
          end
          else begin
            (* aggregate result: bind each returned cell onto the matching
               cell of the destination *)
            match Tenv.vref_type ctx.tenv fn lref with
            | Some ty when su_ptr ctx ty ->
                let lhs_locs = Lval.to_list (Lval.lvals ctx.tenv fn s lref) in
                let s =
                  List.fold_left
                    (fun s (graft, tgts) ->
                      List.fold_left
                        (fun s (base, cb) ->
                          let cell = graft base in
                          let lhs = Lval.of_list [ (cell, cb) ] in
                          let rvals = Lval.of_list tgts in
                          apply_assign ctx s lhs rvals)
                        s lhs_locs)
                    s ret_cells
                in
                flow_of (Some s)
            | _ -> flow_of (Some s)
          end)

(* ------------------------------------------------------------------ *)
(* Statement processing                                               *)
(* ------------------------------------------------------------------ *)

let rec process_stmts ctx fn node (input : Pts.state) (stmts : Ir.stmt list) : flow =
  List.fold_left
    (fun fl stmt ->
      let step = process_stmt ctx fn node fl.normal stmt in
      {
        normal = step.normal;
        brk = Pts.merge_state fl.brk step.brk;
        cont = Pts.merge_state fl.cont step.cont;
        ret = Pts.merge_state fl.ret step.ret;
      })
    (flow_of input) stmts

and process_stmt ctx fn node (input : Pts.state) (stmt : Ir.stmt) : flow =
  match input with
  | None -> flow_of Pts.bot
  | Some s -> (
      record ctx stmt.Ir.s_id s;
      match stmt.Ir.s_desc with
      | Ir.Sassign (lref, rhs) ->
          if Tenv.is_pointer_assignment ctx.tenv fn lref then begin
            let lhs = Lval.lvals ctx.tenv fn s lref in
            let rvals =
              match rhs with
              | Ir.Rmalloc when ctx.opts.Options.heap_by_site ->
                  (* name the allocation by its site (DESIGN.md: the
                     refinement behind the companion heap analysis) *)
                  Lval.of_list [ (Loc.site stmt.Ir.s_id, Pts.P) ]
              | _ -> Lval.rvals_rhs ctx.tenv fn s rhs
            in
            flow_of (Some (apply_assign ctx s lhs rvals))
          end
          else flow_of (Some s)
      | Ir.Scall (lhs, callee, args) -> process_call_stmt ctx fn node s stmt lhs callee args
      | Ir.Sif (_, then_s, else_s) ->
          let ft = process_stmts ctx fn node (Some s) then_s in
          let fe = process_stmts ctx fn node (Some s) else_s in
          merge_flow ft fe
      | Ir.Sloop l -> process_loop ctx fn node s l
      | Ir.Sswitch (_, groups) -> process_switch ctx fn node s groups
      | Ir.Sbreak -> { normal = Pts.bot; brk = Some s; cont = Pts.bot; ret = Pts.bot }
      | Ir.Scontinue -> { normal = Pts.bot; brk = Pts.bot; cont = Some s; ret = Pts.bot }
      | Ir.Sreturn op ->
          let s =
            match op with
            | None -> s
            | Some op ->
                let ret_ty = fn.Ir.fn_ret in
                if Ctype.is_pointer (Ctype.decay ret_ty) then begin
                  let lhs = Lval.of_list [ (Loc.ret fn.Ir.fn_name, Pts.D) ] in
                  let rvals = Lval.rvals_operand ctx.tenv fn s op in
                  apply_assign ctx s lhs rvals
                end
                else if su_ptr ctx ret_ty then begin
                  (* aggregate return: copy each pointer cell of the value
                     into the matching cell of the return slot *)
                  match op with
                  | Ir.Oref r when Ir.is_plain_var r -> (
                      match Tenv.base_loc ctx.tenv fn r.Ir.r_base with
                      | Some src_base ->
                          let ret_cells =
                            Tenv.pointer_cells ctx.tenv (Loc.ret fn.Ir.fn_name) ret_ty
                          in
                          let src_cells = Tenv.pointer_cells ctx.tenv src_base ret_ty in
                          List.fold_left2
                            (fun s (rc, _) (sc, _) ->
                              let lhs = Lval.of_list [ (rc, Pts.D) ] in
                              let rvals = Lval.of_list (Pts.targets sc s) in
                              apply_assign ctx s lhs rvals)
                            s ret_cells src_cells
                      | None -> s)
                  | _ -> s
                end
                else s
          in
          { normal = Pts.bot; brk = Pts.bot; cont = Pts.bot; ret = Some s })

(** The unified loop rule: a fixed point on the loop-head state,
    following Figure 1's process_while generalized with
    condition-statements, a for-step, and break/continue (continue re-runs
    step and condition). A while/for head is the state after the
    condition statements, and the loop exits from it; a do head is the
    body entry, and the loop exits after the last condition evaluation. *)
and process_loop ctx fn node (s : Pts.t) (l : Ir.loop) : flow =
  let process_list st stmts = process_stmts ctx fn node st stmts in
  let rec iterate head ~brk ~ret ~n =
    Guard.check ctx.guard;
    Guard.check_fuel ctx.guard n;
    Metrics.((cur ()).loop_iters <- (cur ()).loop_iters + 1);
    let lt0 = Trace.start () in
    let body = process_list head l.Ir.l_body in
    let brk = Pts.merge_state brk body.brk in
    let ret = Pts.merge_state ret body.ret in
    let after_body = Pts.merge_state body.normal body.cont in
    let step = process_list after_body l.Ir.l_step in
    let after_cond = process_list step.normal l.Ir.l_cond_stmts in
    let head' = Pts.merge_state head after_cond.normal in
    if Trace.on () then Trace.emit Trace.Loop ~name:fn.Ir.fn_name ~t0:lt0 ();
    if Pts.state_equal head head' then (head, after_cond.normal, brk, ret)
    else iterate head' ~brk ~ret ~n:(n + 1)
  in
  let start =
    match l.Ir.l_kind with
    | `While | `For -> (process_list (Some s) l.Ir.l_cond_stmts).normal
    | `Do -> Some s
  in
  let head, after_cond, brk, ret = iterate start ~brk:Pts.bot ~ret:Pts.bot ~n:1 in
  let last = match l.Ir.l_kind with `While | `For -> head | `Do -> after_cond in
  { normal = Pts.merge_state last brk; brk = Pts.bot; cont = Pts.bot; ret }

(** Switch rule: every group is reachable from the scrutinee (via its
    labels) and from the previous group (fall-through); breaks join the
    exit; without a default group the input itself also reaches the
    exit. *)
and process_switch ctx fn node (s : Pts.t) (groups : Ir.switch_group list) : flow =
  let has_default = List.exists (fun g -> g.Ir.g_default) groups in
  let fall, acc =
    List.fold_left
      (fun (fall, acc) g ->
        let entry = Pts.merge_state (Some s) fall in
        let fl = process_stmts ctx fn node entry g.Ir.g_body in
        ( fl.normal,
          {
            normal = Pts.bot;
            brk = Pts.merge_state acc.brk fl.brk;
            cont = Pts.merge_state acc.cont fl.cont;
            ret = Pts.merge_state acc.ret fl.ret;
          } ))
      (Pts.bot, flow_of Pts.bot) groups
  in
  let exit = Pts.merge_state fall acc.brk in
  let exit = if has_default then exit else Pts.merge_state exit (Some s) in
  { normal = exit; brk = Pts.bot; cont = acc.cont; ret = acc.ret }

(* ------------------------------------------------------------------ *)
(* Call statements and invocations                                    *)
(* ------------------------------------------------------------------ *)

and process_call_stmt ctx fn node (s : Pts.t) (stmt : Ir.stmt) lhs callee args : flow =
  match callee with
  | Ir.Cdirect fname ->
      finish_call ctx fn
        (call_target ctx fn s args fname (fun callee_fn ->
             let child =
               match Ig.child_at_for node stmt.Ir.s_id fname with
               | Some c -> c
               | None ->
                   (* can happen in the context-insensitive ablation where
                      graph and analysis orders diverge; grow on demand *)
                   let c = Ig.add_indirect_child ctx.tenv node stmt.Ir.s_id fname in
                   Guard.check_nodes ctx.guard (Ig.node_count ());
                   c
             in
             invoke ctx fn child s callee_fn args))
        lhs
  | Ir.Cindirect fref ->
      (* Figure 5: the functions invocable here are exactly the functions
         the pointer can point to *)
      let fn_targets = Lval.rvals_ref ctx.tenv fn s fref in
      let fnames =
        Loc.Map.fold
          (fun l _ acc -> match l with Loc.Fun f -> f :: acc | _ -> acc)
          fn_targets []
        |> List.rev
      in
      (* Demand mode: the plan was built against an oracle's prediction of
         this site's targets. A defined target the oracle missed voids the
         slice — bail out so the caller falls back to exhaustive. *)
      (match ctx.demand with
      | Some plan ->
          List.iter
            (fun f ->
              if
                Tenv.is_defined_func ctx.tenv f
                && not (Demand.site_allows plan ~fn:fn.Ir.fn_name ~sid:stmt.Ir.s_id f)
              then
                raise
                  (Demand.Oracle_miss
                     (Printf.sprintf "s%d of %s resolves to %s" stmt.Ir.s_id
                        fn.Ir.fn_name f)))
            fnames
      | None -> ());
      if fnames = [] then begin
        warn ctx "indirect call at s%d has no function targets" stmt.Ir.s_id;
        finish_call ctx fn (Some s, [], []) lhs
      end
      else begin
        let fptr_lvals = Lval.lvals ctx.tenv fn s fref in
        let results =
          List.map
            (fun fname ->
              call_target ctx fn s args fname (fun callee_fn ->
                  let child = Ig.add_indirect_child ctx.tenv node stmt.Ir.s_id fname in
                  Guard.check_nodes ctx.guard (Ig.node_count ());
                  (* make the function pointer definitely point to fname
                     while analyzing it — a definite-information
                     refinement, so gated like the other uses of
                     definite relationships *)
                  let s' =
                    match Lval.to_list fptr_lvals with
                    | [ (l, Pts.D) ]
                      when ctx.opts.Options.use_definite && Loc.singular l ->
                        Pts.add l (Loc.func fname) Pts.D (Pts.kill_src l s)
                    | _ -> s
                  in
                  invoke ctx fn child s' callee_fn args))
            fnames
        in
        (* merge the outputs of all invocable functions *)
        let out =
          List.fold_left (fun acc (o, _, _) -> Pts.merge_state acc o) Pts.bot results
        in
        let ret_tgts = List.concat_map (fun (_, t, _) -> t) results in
        let ret_cells = List.concat_map (fun (_, _, c) -> c) results in
        finish_call ctx fn (out, ret_tgts, ret_cells) lhs
      end

(** Invoke a defined function in the context of invocation-graph node
    [child] (Figure 4's process_call): {!call_mapped} with the evaluate
    or reuse step as its transfer. *)
and invoke ctx caller_fn (child : Ig.node) (s : Pts.t) (callee_fn : Ir.func)
    (args : Ir.operand list) : call_result =
  let cs = ctx.opts.Options.context_sensitive in
  call_mapped ctx caller_fn s callee_fn args ~merged:(not cs) (fun func_input info ->
      child.Ig.map_info <-
        Loc.Map.fold (fun k v acc -> (k, v) :: acc) info.Map_unmap.i_reps [];
      if cs then eval_node ctx child callee_fn func_input
      else eval_ci ctx child callee_fn func_input)

(** Evaluate (or reuse) the invocation represented by [node] with the
    given mapped input — the Ordinary/Approximate/Recursive rules of
    Figure 4, with one generalization: an Ordinary node that is
    discovered to be recursive {e during} its evaluation (a function
    pointer closed a cycle, §5) switches to the fixed-point loop. *)
and eval_node ctx (node : Ig.node) (callee_fn : Ir.func) (func_input : Pts.t) : Pts.state =
  match node.Ig.kind with
  | Ig.Approximate -> (
      let partner = match node.Ig.partner with Some p -> p | None -> assert false in
      match partner.Ig.stored_input with
      | Some si when Pts.covered_by func_input si -> partner.Ig.stored_output
      | _ ->
          partner.Ig.pending <- func_input :: partner.Ig.pending;
          Pts.bot)
  | Ig.Ordinary | Ig.Recursive -> (
      match (node.Ig.stored_input, node.Ig.in_flight) with
      | Some si, false when Pts.equal si func_input && Option.is_some node.Ig.stored_output
        ->
          node.Ig.stored_output
      | _ -> (
          let fname = callee_fn.Ir.fn_name in
          let sharing = ctx.opts.Options.share_contexts in
          if sharing then Metrics.((cur ()).memo_lookups <- (cur ()).memo_lookups + 1);
          let h = Pts.hash func_input in
          match store_find ctx.store fname h func_input with
          | Some ({ se_origin = Live; _ } as e) when sharing ->
              (* §6 sub-tree sharing: another context of the same function
                 has already been analyzed with an identical input *)
              Metrics.((cur ()).memo_hits <- (cur ()).memo_hits + 1);
              node.Ig.stored_input <- Some func_input;
              node.Ig.stored_output <- Some e.se_out;
              (* the open frames need the transitive effects of this
                 invocation; with none open, the first occurrence's frame
                 has already reached [stmt_pts] *)
              if ctx.recording != ctx.stmt_pts then Option.iter (fold_frame ctx) e.se_frame;
              Some e.se_out
          | Some ({ se_origin = Seeded | Replayed; _ } as e) ->
              (* Replay a persisted summary: fold its recorded frame into
                 the innermost table, adopt its output, and skip the body
                 fixpoint. Only functions whose whole direct-call closure
                 is unchanged — and free of indirect call sites — are ever
                 seeded (docs/INCREMENTAL.md), so the replay creates no
                 invocation-graph nodes, exactly like the skipped
                 evaluation would not have under sub-tree sharing. *)
              let tr0 = Trace.start () in
              Option.iter (fold_frame ctx) e.se_frame;
              e.se_origin <- (if sharing then Live else Replayed);
              node.Ig.stored_input <- Some func_input;
              node.Ig.stored_output <- Some e.se_out;
              Metrics.((cur ()).incr_funcs_reused <- (cur ()).incr_funcs_reused + 1);
              if Trace.on () then
                Trace.emit Trace.Replay ~name:fname ~ctx:h ~pts_in:(Pts.cardinal func_input)
                  ~pts_out:(Pts.cardinal e.se_out) ~t0:tr0 ();
              Some e.se_out
          | Some { se_origin = Live; _ } | None ->
              let tr0 = Trace.start () in
              node.Ig.stored_input <- Some func_input;
              node.Ig.stored_output <- Pts.bot;
              node.Ig.pending <- [];
              node.Ig.in_flight <- true;
              (* an exception abandons the whole run, so [recording] is
                 restored on the normal path only *)
              let parent = ctx.recording in
              let frame =
                if ctx.record_summaries then begin
                  let fr = Hashtbl.create 16 in
                  ctx.recording <- fr;
                  Some fr
                end
                else None
              in
              Guard.at ctx.guard fname;
              let rec fixpoint ~first ~n =
                Guard.check ctx.guard;
                Guard.check_fuel ctx.guard n;
                Fault.maybe_slow_fixpoint ~fn:fname;
                if not first then Metrics.((cur ()).rec_iters <- (cur ()).rec_iters + 1);
                let cur_input =
                  match node.Ig.stored_input with Some s -> s | None -> func_input
                in
                Metrics.((cur ()).bodies <- (cur ()).bodies + 1);
                let tb0 = Trace.start () in
                let fl =
                  process_stmts ctx callee_fn node (Some cur_input) callee_fn.Ir.fn_body
                in
                let func_output = Pts.merge_state fl.normal fl.ret in
                (match func_output with
                | Some o -> Guard.check_size ctx.guard (Pts.cardinal o)
                | None -> ());
                if Trace.on () then
                  Trace.emit Trace.Body ~name:fname ~ctx:(Pts.hash cur_input)
                    ~pts_in:(Pts.cardinal cur_input)
                    ~pts_out:
                      (match func_output with Some o -> Pts.cardinal o | None -> -1)
                    ~t0:tb0 ();
                if node.Ig.pending <> [] then begin
                  let merged =
                    List.fold_left
                      (fun acc p -> Pts.merge_state acc (Some p))
                      node.Ig.stored_input node.Ig.pending
                  in
                  node.Ig.stored_input <- merged;
                  node.Ig.pending <- [];
                  node.Ig.stored_output <- Pts.bot;
                  fixpoint ~first:false ~n:(n + 1)
                end
                else if Pts.state_covered_by func_output node.Ig.stored_output then ()
                else begin
                  node.Ig.stored_output <-
                    Pts.merge_state node.Ig.stored_output func_output;
                  if node.Ig.kind = Ig.Recursive then fixpoint ~first:false ~n:(n + 1)
                end
              in
              fixpoint ~first:true ~n:1;
              node.Ig.in_flight <- false;
              node.Ig.stored_input <- Some func_input;
              (* without sharing, a frameless entry would never answer
                 and never be saved *)
              (match node.Ig.stored_output with
              | Some out when sharing || Option.is_some frame ->
                  store_add ctx.store fname h
                    { se_in = func_input; se_out = out; se_frame = frame; se_origin = Live }
              | Some _ | None -> ());
              ctx.recording <- parent;
              Option.iter (fold_frame ctx) frame;
              if Trace.on () then
                Trace.emit Trace.Node ~name:fname ~ctx:h ~stmts:(Ir.count_stmts callee_fn)
                  ~pts_in:(Pts.cardinal func_input)
                  ~pts_out:
                    (match node.Ig.stored_output with
                    | Some o -> Pts.cardinal o
                    | None -> -1)
                  ~t0:tr0 ();
              node.Ig.stored_output))

(** Context-insensitive ablation: one merged IN/OUT pair per function;
    convergence is reached by the driver re-running the whole program
    until no slot changes. *)
and eval_ci ctx (node : Ig.node) (callee_fn : Ir.func) (func_input : Pts.t) : Pts.state =
  let name = callee_fn.Ir.fn_name in
  let slot_in, slot_out =
    match Hashtbl.find_opt ctx.ci_slots name with
    | Some (i, o) -> (i, o)
    | None -> (None, Pts.bot)
  in
  let new_in =
    match slot_in with None -> func_input | Some si -> Pts.merge si func_input
  in
  let input_grew = match slot_in with None -> true | Some si -> not (Pts.equal si new_in) in
  if input_grew then begin
    ctx.ci_changed <- true;
    Hashtbl.replace ctx.ci_slots name (Some new_in, slot_out)
  end;
  (* recursion guard per function: the driver's outer fixed point
     iterates until no slot changes, so using the stored output here is
     safe *)
  if Hashtbl.mem ctx.ci_in_flight name then slot_out
  else if Hashtbl.mem ctx.ci_done name && not input_grew then
    (* already processed this pass with this (or a larger) input: the
       slot output is what re-walking the body would return; any callee
       growth since then sets [ci_changed] and the next pass re-walks *)
    slot_out
  else begin
    Guard.check ctx.guard;
    Guard.at ctx.guard name;
    Hashtbl.replace ctx.ci_in_flight name ();
    Hashtbl.replace ctx.ci_done name ();
    let tb0 = Trace.start () in
    let fl = process_stmts ctx callee_fn node (Some new_in) callee_fn.Ir.fn_body in
    Hashtbl.remove ctx.ci_in_flight name;
    let out = Pts.merge_state fl.normal fl.ret in
    if Trace.on () then
      Trace.emit Trace.Body ~name ~pts_in:(Pts.cardinal new_in)
        ~pts_out:(match out with Some o -> Pts.cardinal o | None -> -1)
        ~t0:tb0 ();
    let merged_out = Pts.merge_state slot_out out in
    if not (Pts.state_equal merged_out slot_out) then begin
      ctx.ci_changed <- true;
      let cur_in = match Hashtbl.find_opt ctx.ci_slots name with
        | Some (i, _) -> i
        | None -> Some new_in
      in
      Hashtbl.replace ctx.ci_slots name (cur_in, merged_out)
    end;
    merged_out
  end
