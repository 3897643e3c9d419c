(** Top-level driver: build the invocation graph, run the
    context-sensitive interprocedural points-to analysis from [main], and
    package the results.

    The result carries everything later phases need (paper §6.1): the
    program-point-specific points-to sets, and the complete invocation
    graph with its map information. *)

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
          carry a frame and were recorded or replayed this run, with the
          entries their frames' calls name, into the summary section for
          incremental re-analysis *)
  sources : (string, Engine.sources) Hashtbl.t;
      (** per function, the stored entries whose frames made its rows,
          and whether nothing else did; filled when the run records
          summaries, empty otherwise *)
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

(** One full run under [guard]: raises [Guard.Exhausted] when the budget
    blows — [analyze] below handles the degradation. Does not touch the
    Metrics accumulator's lifecycle (the caller resets once, so the
    degraded rerun accumulates on top of the aborted precise run, its
    analysis time included). [demand] runs over the plan's slice
    (docs/DEMAND.md): the graph is built within it, and the result's
    summary store stays empty. *)
let run ~opts ~entry ~guard ~degraded ?(record_summaries = false) ?seeded ?adopt
    ?demand (prog : Ir.program) : result =
  let tenv = Tenv.make ~opts prog in
  let entry_fn =
    match Tenv.find_func tenv entry with
    | Some f -> f
    | None -> raise (No_entry entry)
  in
  let graph = Ig.build ?within:(Option.map Demand.in_slice demand) tenv ~entry in
  let ctx = Engine.make_ctx ~guard ~record_summaries ?seeded ?adopt ?demand tenv in
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
  let add_time () =
    let m = Metrics.cur () in
    m.Metrics.t_analysis <- m.Metrics.t_analysis +. (Metrics.now () -. t0)
  in
  let entry_output =
    try eval ()
    with e ->
      add_time ();
      raise e
  in
  if Option.is_some seeded then Engine.settle ctx;
  let stmt_pts = Engine.freeze_table ctx.Engine.stmt_pts in
  add_time ();
  (* indirect call sites grew the graph after {!Ig.build} counted it.
     The nodes' IN/OUT pairs are the fixed point's memo (Figure 4):
     nothing reads them once the run is over and no entry saves them
     ({!Persist}), so a finished graph holds none, cold or loaded *)
  graph.Ig.n_nodes <-
    Ig.fold
      (fun n node ->
        node.Ig.stored_input <- Pts.bot;
        node.Ig.stored_output <- Pts.bot;
        n + 1)
      0 graph;
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
    stmt_pts;
    entry_output;
    warnings = ctx.Engine.warnings;
    metrics = Metrics.snapshot ();
    degraded;
    (* only recorded or seeded entries carry the frames a {!Persist}
       save writes; a store of frameless §6 pairs dies with the run, and a
       sliced run's entries must never seed a later one *)
    summaries =
      (if Option.is_none demand && (record_summaries || Option.is_some seeded) then
         ctx.Engine.store
       else Engine.store_create ());
    sources =
      (if Option.is_none demand && record_summaries then ctx.Engine.sources
       else Hashtbl.create 1);
  }

let analyze ?(opts = Options.default) ?(entry = "main") ?budget
    ?(record_summaries = false) ?seeded ?adopt (prog : Ir.program) : result =
  Metrics.reset ();
  let guard = Guard.of_budget budget in
  (* the guard may carry a heap-ceiling {!Gc.alarm}; never leak it *)
  Fun.protect ~finally:(fun () -> Guard.dispose guard) @@ fun () ->
  try
    run ~opts ~entry ~guard ~degraded:None ~record_summaries ?seeded ?adopt prog
  with Guard.Exhausted trip ->
    (* Graceful degradation: rerun under the widened semantics — the
       context-insensitive merged summary with possible-only
       relationships, i.e. exactly the ablation the engine already
       implements, so the degraded tables are the ablation's answer
       whenever and however the trip came. That mode is polynomial where
       the precise one can blow up, so it gets the same wall-clock
       allowance afresh and no fuel, size, or heap ceiling
       ({!Guard.widened}); a second exhaustion is a genuine failure and
       propagates. *)
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
    let tw0 = Trace.start () in
    let r = run ~opts:wopts ~entry ~guard:wguard ~degraded prog in
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

(** Analyze what [lower ()] returns, with its cost as [t_parse]. *)
let timed_lowering ?opts ?entry ?budget lower =
  let t0 = Metrics.now () in
  let prog = lower () in
  let t_parse = Metrics.now () -. t0 in
  let r = analyze ?opts ?entry ?budget prog in
  r.metrics.Metrics.t_parse <- t_parse;
  r

(** Convenience: parse, simplify and analyze C source text. *)
let of_string ?opts ?entry ?budget ?file src =
  timed_lowering ?opts ?entry ?budget (fun () -> Simple_ir.Simplify.of_string ?file src)

let of_file ?opts ?entry ?budget path =
  timed_lowering ?opts ?entry ?budget (fun () -> Simple_ir.Simplify.of_file path)

(** The points-to set valid at statement [id] ([Pts.empty] when the
    statement was never reached). *)
let pts_at (r : result) (id : int) : Pts.t =
  Option.value ~default:Pts.empty (Hashtbl.find_opt r.stmt_pts id)

(** Points-to pairs at a statement excluding NULL targets (the paper's
    statistics exclude the pairs contributed by NULL initialization,
    §6). *)
let pts_at_no_null (r : result) (id : int) : Pts.t =
  Pts.remove_tgt Loc.Null (pts_at r id)
