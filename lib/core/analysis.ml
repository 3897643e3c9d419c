(** Top-level driver: build the invocation graph, run the
    context-sensitive interprocedural points-to analysis from [main], and
    package the results.

    The result carries everything later phases need (paper §6.1): the
    program-point-specific points-to sets, and the complete invocation
    graph with stored IN/OUT pairs and map information. *)

module Ir = Simple_ir.Ir
module Ig = Invocation_graph
open Cfront

(** Why and how a result was degraded: the budget trip that aborted the
    precise run, and the budget it was running under. *)
type degradation = {
  deg_trip : Guard.trip;
  deg_budget : Guard.budget;
}

type result = {
  prog : Ir.program;
  tenv : Tenv.t;
  graph : Ig.t;
  stmt_pts : (int, Pts.t) Hashtbl.t;
      (** points-to set valid at each statement (input, merged over all
          invocation contexts) *)
  entry_output : Pts.state;  (** output set of the entry function *)
  warnings : string list;
  metrics : Metrics.t;  (** per-phase timing and operation counters *)
  degraded : degradation option;
      (** [Some _] when the budget blew and these tables come from the
          widened (context-insensitive, possible-only) rerun *)
  summaries : Engine.store;
      (** the run's summary store; {!Persist} writes its entries that
          carry a frame and were recorded or replayed this run into the
          summary section for incremental re-analysis *)
}

(** Initial points-to set for the entry function: global and local
    pointers are NULL-initialized; pointer parameters of the entry (e.g.
    [argv]) conservatively point into the heap. *)
let initial_input (tenv : Tenv.t) (entry_fn : Ir.func) : Pts.t =
  let s = ref Pts.empty in
  List.iter
    (fun (cell, singular) -> s := Pts.add cell Loc.Null (if singular then Pts.D else Pts.P) !s)
    (tenv.Tenv.global_cells @ (Tenv.frame_cells tenv entry_fn).Tenv.local_cells);
  List.iter
    (fun (n, ty) ->
      List.iter
        (fun (cell, _) -> s := Pts.add cell Loc.Heap Pts.P !s)
        (Tenv.pointer_cells tenv (Loc.var n Loc.Kparam) ty))
    entry_fn.Ir.fn_params;
  (match Ctype.decay entry_fn.Ir.fn_ret with
  | Ctype.Ptr _ -> s := Pts.add (Loc.ret entry_fn.Ir.fn_name) Loc.Null Pts.D !s
  | _ -> ());
  !s

exception No_entry of string

(** A degradation checkpoint: the aborted precise run's partial
    per-function IN/OUT state, demoted to possible-only relationships,
    in the shape of the widened engine's per-function slots. Seeding the
    widened rerun from it resumes the work the trip unwound instead of
    discarding it: every checkpointed pair is a fact the precise run
    established (completed §6-memo evaluations and the invocation
    graph's stored partial IN/OUT pairs), and widening it can only move
    it toward the context-insensitive superset the rerun converges to,
    so the degraded-superset property is untouched
    (docs/ROBUSTNESS.md). *)
type ci_seed = (string * (Pts.t option * Pts.state)) list

(* widen one set: every relationship becomes possible-only *)
let demote (s : Pts.t) : Pts.t =
  Pts.fold (fun src tgt _cert acc -> Pts.add src tgt Pts.P acc) s Pts.empty

let checkpoint_of (ctx : Engine.ctx) (graph : Ig.t) : ci_seed =
  let slots : (string, Pts.t option * Pts.state) Hashtbl.t = Hashtbl.create 64 in
  let note name (i : Pts.state) (o : Pts.state) =
    let di = Option.map demote i and dm = Option.map demote o in
    let cur_i, cur_o =
      Option.value ~default:(None, None) (Hashtbl.find_opt slots name)
    in
    Hashtbl.replace slots name (Pts.merge_state cur_i di, Pts.merge_state cur_o dm)
  in
  (* the completed §6-sharing pairs: live entries, under sharing only *)
  if ctx.Engine.opts.Options.share_contexts then
    Hashtbl.iter
      (fun name by_hash ->
        Hashtbl.iter
          (fun _h entries ->
            List.iter
              (fun e ->
                if e.Engine.se_origin = Engine.Live then
                  note name (Some e.Engine.se_in) (Some e.Engine.se_out))
              entries)
          by_hash)
      ctx.Engine.store;
  Ig.fold
    (fun () node -> note node.Ig.func node.Ig.stored_input node.Ig.stored_output)
    () graph;
  Hashtbl.fold (fun name slot acc -> (name, slot) :: acc) slots []

(** One full run under [guard]: raises [Guard.Exhausted] when the budget
    blows — [analyze] below handles the degradation. Does not touch the
    Metrics accumulator's lifecycle (the caller resets once, so the
    degraded rerun accumulates on top of the aborted precise run).
    [checkpoint_out] receives the partial-state checkpoint when the
    budget trips; [ci_seed] pre-loads the widened engine's per-function
    slots from a previous trip's checkpoint. [demand] runs over the
    plan's slice (docs/DEMAND.md): the graph is built within it, and
    the result's summary store stays empty. *)
let run ~opts ~entry ~guard ~degraded ?(record_summaries = false) ?seeded
    ?checkpoint_out ?(ci_seed = []) ?demand (prog : Ir.program) : result =
  let tenv = Tenv.make ~opts prog in
  let entry_fn =
    match Tenv.find_func tenv entry with
    | Some f -> f
    | None -> raise (No_entry entry)
  in
  let graph = Ig.build ?within:(Option.map Demand.in_slice demand) tenv ~entry in
  let ctx = Engine.make_ctx ~guard ~record_summaries ?seeded ?demand tenv in
  List.iter
    (fun (name, slot) -> Hashtbl.replace ctx.Engine.ci_slots name slot)
    ci_seed;
  let input0 = initial_input tenv entry_fn in
  let t0 = Metrics.now () in
  let ttr = Trace.start () in
  let eval () =
    if opts.Options.context_sensitive then
      Engine.eval_node ctx graph.Ig.root entry_fn input0
    else begin
      (* context-insensitive ablation: iterate whole-program passes until
         no per-function slot changes *)
      let out = ref Pts.bot in
      let continue_ = ref true in
      while !continue_ do
        ctx.Engine.ci_changed <- false;
        Hashtbl.reset ctx.Engine.stmt_pts;
        Hashtbl.reset ctx.Engine.ci_done;
        out := Engine.eval_ci ctx graph.Ig.root entry_fn input0;
        if not ctx.Engine.ci_changed then continue_ := false
      done;
      !out
    end
  in
  let entry_output =
    try eval ()
    with Guard.Exhausted _ as e ->
      (match checkpoint_out with
      | None -> ()
      | Some slot ->
          let tc0 = Trace.start () in
          let ck = checkpoint_of ctx graph in
          slot := Some ck;
          if Trace.on () then
            Trace.emit Trace.Checkpoint ~name:entry ~stmts:(List.length ck) ~t0:tc0 ());
      raise e
  in
  (Metrics.cur ()).Metrics.t_analysis <- Metrics.now () -. t0;
  if Trace.on () then begin
    let kind, name, stmts =
      match demand with
      | Some plan -> (Trace.Demand, plan.Demand.p_seed, Demand.slice_size plan)
      | None -> (Trace.Analysis, entry, Ir.fold_program (fun n _ -> n + 1) 0 prog)
    in
    Trace.emit kind ~name ~stmts ~pts_in:(Pts.cardinal input0)
      ~pts_out:(match entry_output with Some s -> Pts.cardinal s | None -> -1)
      ~t0:ttr ()
  end;
  {
    prog;
    tenv;
    graph;
    stmt_pts = ctx.Engine.stmt_pts;
    entry_output;
    warnings = ctx.Engine.warnings;
    metrics = Metrics.snapshot ();
    degraded;
    (* only recorded or seeded entries carry the frames {!Persist.save}
       writes; a store of frameless §6 pairs dies with the run, and a
       sliced run's entries must never seed a later one *)
    summaries =
      (if Option.is_none demand && (record_summaries || Option.is_some seeded) then
         ctx.Engine.store
       else Engine.store_create ());
  }

let analyze ?(opts = Options.default) ?(entry = "main") ?budget
    ?(record_summaries = false) ?seeded (prog : Ir.program) : result =
  Metrics.reset ();
  let guard = Guard.of_budget budget in
  (* the guard may carry a heap-ceiling {!Gc.alarm}; never leak it *)
  Fun.protect ~finally:(fun () -> Guard.dispose guard) @@ fun () ->
  let ckpt : ci_seed option ref = ref None in
  try
    run ~opts ~entry ~guard ~degraded:None ~record_summaries ?seeded
      ~checkpoint_out:ckpt prog
  with Guard.Exhausted trip ->
    (* Graceful degradation: rerun under the widened semantics — the
       context-insensitive merged summary with possible-only
       relationships, i.e. exactly the ablation the engine already
       implements. That mode is polynomial where the precise one can
       blow up, so it gets the same wall-clock allowance afresh and no
       fuel, size, or heap ceiling ({!Guard.widened}); a second
       exhaustion is a genuine failure and propagates. The rerun does
       not start cold: it is seeded from the checkpoint [run] took at
       the trip — the aborted run's partial per-function state, widened
       (sound: it only moves facts toward the superset the rerun
       converges to). *)
    Metrics.((cur ()).budget_trips <- (cur ()).budget_trips + 1);
    if trip.Guard.t_reason = Guard.Heap then begin
      Metrics.((cur ()).heap_trips <- (cur ()).heap_trips + 1);
      if Trace.on () then
        Trace.emit Trace.Oom ~name:entry
          ~pts_in:((Gc.quick_stat ()).Gc.heap_words / (1024 * 1024 / (Sys.word_size / 8)))
          ~t0:(Trace.start ()) ();
      (* the aborted run's state is garbage now; return it to the OS
         before the rerun allocates its own *)
      Guard.dispose guard;
      Gc.compact ()
    end;
    let wopts =
      { opts with Options.context_sensitive = false; Options.use_definite = false }
    in
    let wguard = Guard.widened guard in
    let degraded = Some { deg_trip = trip; deg_budget = Guard.budget guard } in
    let ci_seed = Option.value ~default:[] !ckpt in
    Metrics.((cur ()).ckpt_funcs <- (cur ()).ckpt_funcs + List.length ci_seed);
    let tw0 = Trace.start () in
    let r = run ~opts:wopts ~entry ~guard:wguard ~degraded ~ci_seed prog in
    if Trace.on () then Trace.emit Trace.Widen ~name:entry ~t0:tw0 ();
    r

let analyze_demand ?(opts = Options.default) ?(entry = "main") ?seeded ~plan
    (prog : Ir.program) : result =
  if not opts.Options.context_sensitive then
    (* The slice rule is argued against the context-sensitive engine;
       the ablation is cheap enough to just run exhaustively. *)
    analyze ~opts ~entry ?seeded prog
  else begin
    (* No [Metrics.reset] here: the caller resets once before building
       the plan, so the Slice and Demand counters land in one epoch
       ({!Alias.Demand_driver.analyze} does). *)
    try
      run ~opts ~entry ~guard:(Guard.unlimited ()) ~degraded:None ?seeded ~demand:plan
        prog
    with Demand.Oracle_miss _ ->
      (* An evaluated indirect site resolved to a defined target the
         planning oracle missed: the slice is untrustworthy. Rerun
         exhaustively; the result also counts the aborted attempt (plan
         included), as a degraded result counts its precise one. *)
      let aborted = Metrics.snapshot () in
      let r = analyze ~opts ~entry ?seeded prog in
      Metrics.add_into ~into:r.metrics aborted;
      r.metrics.Metrics.demand_fallbacks <- r.metrics.Metrics.demand_fallbacks + 1;
      r
  end

(** Convenience: parse, simplify and analyze C source text. *)
let of_string ?opts ?entry ?budget ?file src =
  analyze ?opts ?entry ?budget (Simple_ir.Simplify.of_string ?file src)

let of_file ?opts ?entry ?budget path =
  analyze ?opts ?entry ?budget (Simple_ir.Simplify.of_file path)

(** The points-to set valid at statement [id] ([Pts.empty] when the
    statement was never reached). *)
let pts_at (r : result) (id : int) : Pts.t =
  Option.value ~default:Pts.empty (Hashtbl.find_opt r.stmt_pts id)

(** Points-to pairs at a statement excluding NULL targets (the paper's
    statistics exclude the pairs contributed by NULL initialization,
    §6). *)
let pts_at_no_null (r : result) (id : int) : Pts.t =
  Pts.remove_tgt Loc.Null (pts_at r id)

let prime (r : result) =
  Hashtbl.iter (fun _ s -> Pts.prime s) r.stmt_pts;
  Option.iter Pts.prime r.entry_output;
  Ig.fold
    (fun () n ->
      Option.iter Pts.prime n.Ig.stored_input;
      Option.iter Pts.prime n.Ig.stored_output)
    () r.graph
