(** ptan — points-to analysis driver.

    Subcommands:
    - [simple FILE]    dump the SIMPLE lowering of a C file
    - [analyze FILE]   run the analysis and print per-statement points-to
    - [ig FILE]        print the invocation graph
    - [stats FILE]     print the Tables 2-6 statistics for one file
    - [tables FILES]   the same statistics for many files, [-j N] in parallel
    - [alias FILE]     print alias pairs at the end of main
    - [callgraph FILE] compare call-graph strategies
    - [replace FILE]   show pointer-replacement opportunities
    - [query FILE Q]   answer one demand query against the (cached) result
    - [batch FILE [QS]] answer newline-delimited queries from a file or stdin
    - [serve FILES]    resident daemon answering queries over stdio or a socket

    Analyzing subcommands consult a disk cache of persisted results
    (see {!Pointsto.Persist}); [--cache-dir] relocates it and
    [--no-cache] bypasses it.

    The parallel modes ([tables -j], [batch -j]) fan work out over a
    {!Pointsto.Pool} of domains. Analysis state is domain-local, so
    output is bit-identical to a sequential run; results are printed in
    input order regardless of which domain finished first. *)

module Ir = Simple_ir.Ir
module Persist = Pointsto.Persist
module Trace = Pointsto.Trace

let load file = Simple_ir.Simplify.of_file file

(** Run [f] with the trace sink enabled when [--trace-out FILE] was
    given, then write the collected spans as trace-event JSON. The
    confirmation goes to stderr so stdout stays bit-identical with and
    without tracing. *)
let with_trace trace_out f =
  match trace_out with
  | None -> f ()
  | Some path ->
      Trace.enable ();
      Trace.clear ();
      let finally () =
        Trace.disable ();
        let spans = Trace.collect () in
        Trace.save_json path spans;
        Fmt.epr "trace: wrote %d spans to %s@." (List.length spans) path
      in
      Fun.protect ~finally f

let with_errors f =
  try f () with
  | Cfront.Srcloc.Error (loc, m) ->
      Fmt.epr "%a: error: %s@." Cfront.Srcloc.pp loc m;
      exit 1
  | Simple_ir.Simplify.Unsupported (loc, m) ->
      Fmt.epr "%a: unsupported: %s@." Cfront.Srcloc.pp loc m;
      exit 1
  | Pointsto.Analysis.No_entry e ->
      Fmt.epr "error: no entry function '%s'@." e;
      exit 1

let opts_of ~no_context ~no_definite ~sym_depth ~no_share ~heap_by_site =
  {
    Pointsto.Options.default with
    Pointsto.Options.context_sensitive = not no_context;
    use_definite = not no_definite;
    max_sym_depth = sym_depth;
    share_contexts = not no_share;
    heap_by_site;
  }

let cmd_simple file =
  with_errors (fun () ->
      let p = load file in
      Simple_ir.Pp.pp_program Fmt.stdout p)

(** [cache] is [None] when [--no-cache] was given, [Some dir] with
    [dir = None] meaning the default cache directory. [incremental]
    selects the stable summary-carrying cache entry
    ({!Persist.analyze_cached} with [~incremental:true]); it needs the
    cache and is ignored under [--no-cache]. *)
let analyze_file ?(opts = Pointsto.Options.default) ?budget ?(cache = None)
    ?(incremental = false) file =
  match cache with
  | None ->
      let p = load file in
      Pointsto.Analysis.analyze ~opts ?budget p
  | Some cache_dir -> fst (Persist.analyze_cached ?cache_dir ~opts ?budget ~incremental file)

(** One-line degradation report, printed after a degraded result's
    normal output; paired with exit code 3. *)
let pp_degraded ppf (d : Pointsto.Analysis.degradation) =
  Fmt.pf ppf
    "degraded: %a (budget: %a); tables come from the widened context-insensitive, \
     possible-only rerun"
    Pointsto.Guard.pp_trip d.Pointsto.Analysis.deg_trip Pointsto.Guard.pp_budget
    d.Pointsto.Analysis.deg_budget

(** Exit code for runs that completed but under degradation. *)
let exit_degraded = 3

let cmd_analyze file cache incremental budget no_context no_definite sym_depth no_share
    heap_by_site show_null show_stats trace_out =
  with_errors (fun () ->
    with_trace trace_out @@ fun () ->
      let opts = opts_of ~no_context ~no_definite ~sym_depth ~no_share ~heap_by_site in
      let r = analyze_file ~opts ?budget ~cache ~incremental file in
      List.iter (fun w -> Fmt.pr "warning: %s@." w) r.Pointsto.Analysis.warnings;
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) r.Pointsto.Analysis.stmt_pts []
      |> List.sort compare
      |> List.iter (fun (id, s) ->
             let s = if show_null then s else Pointsto.Pts.remove_tgt Pointsto.Loc.Null s in
             Fmt.pr "s%d: %a@." id Pointsto.Pts.pp s);
      let m = r.Pointsto.Analysis.metrics in
      if not no_share then
        Fmt.pr "sub-tree sharing: %d hits, %d body passes@." m.Pointsto.Metrics.memo_hits
          m.bodies;
      if show_stats then Fmt.pr "%a@." Pointsto.Metrics.pp m;
      match r.Pointsto.Analysis.degraded with
      | Some d ->
          Fmt.pr "%a@." pp_degraded d;
          exit exit_degraded
      | None -> ())

let cmd_heap file cache =
  with_errors (fun () ->
      let r = analyze_file ~opts:Heap_analysis.Connection.options ~cache file in
      let module C = Heap_analysis.Connection in
      Fmt.pr "allocation sites: %a@."
        Fmt.(list ~sep:(any ", ") int)
        (C.all_sites r);
      let sum = C.summarize r in
      Fmt.pr "heap-directed pointers: %d; pairs: %d; provably disjoint: %d@."
        sum.C.n_heap_ptrs sum.C.n_pairs sum.C.n_disjoint;
      match r.Pointsto.Analysis.entry_output with
      | None -> ()
      | Some s ->
          let fn =
            Option.get (Simple_ir.Ir.find_func r.Pointsto.Analysis.prog "main")
          in
          let hp = C.heap_pointers r fn s in
          if hp <> [] then Fmt.pr "@.connection matrix at exit of main:@.%a" C.pp_matrix (hp, C.matrix s hp))

let cmd_constants file cache =
  with_errors (fun () ->
      let r = analyze_file ~cache file in
      let cp = Constprop.run r in
      let sites = Constprop.fold_sites cp in
      Fmt.pr "%d constant operand reads@." (List.length sites);
      List.iter
        (fun fs ->
          Fmt.pr "  s%d (%s): %a = %Ld@." fs.Constprop.fs_stmt fs.Constprop.fs_func
            Pointsto.Loc.pp fs.Constprop.fs_loc fs.Constprop.fs_value)
        sites)

let cmd_ig file cache =
  with_errors (fun () ->
      let r = analyze_file ~cache file in
      Fmt.pr "%a" Pointsto.Invocation_graph.pp r.Pointsto.Analysis.graph;
      let st = Pointsto.Stats.ig_stats r in
      Fmt.pr "nodes %d, call sites %d, funcs %d, R %d, A %d, Avgc %.2f, Avgf %.2f@."
        st.Pointsto.Stats.ig_nodes st.Pointsto.Stats.call_sites st.Pointsto.Stats.n_funcs
        st.Pointsto.Stats.n_recursive st.Pointsto.Stats.n_approximate
        st.Pointsto.Stats.avg_per_call_site st.Pointsto.Stats.avg_per_func)

(** The Tables 2-6 report for one analyzed file; shared by [stats] and
    the multi-file [tables] (whose workers render it off the main
    domain, hence a formatter rather than direct printing). *)
let pp_stats_report ppf r =
  let c = Pointsto.Stats.characteristics r in
  Fmt.pf ppf "SIMPLE stmts: %d; abstract stack min %d max %d@." c.Pointsto.Stats.c_stmts
    c.Pointsto.Stats.c_min_vars c.Pointsto.Stats.c_max_vars;
  let i = Pointsto.Stats.indirect_stats r in
  let open Pointsto.Stats in
  Fmt.pf ppf
    "indirect refs: %d (1D %d/%d, 1P %d/%d, 2P %d/%d, 3P %d/%d, 4+P %d/%d); rep %d; \
     to-stack %d; to-heap %d; avg %.2f@."
    i.ind_refs i.one_d.scalar i.one_d.array i.one_p.scalar i.one_p.array i.two_p.scalar
    i.two_p.array i.three_p.scalar i.three_p.array i.four_plus_p.scalar i.four_plus_p.array
    i.scalar_rep i.to_stack i.to_heap i.avg;
  let g = general r in
  Fmt.pf ppf "pairs: SS %d SH %d HH %d HS %d; avg/stmt %.1f; max/stmt %d@." g.stack_to_stack
    g.stack_to_heap g.heap_to_heap g.heap_to_stack g.avg_per_stmt g.max_per_stmt;
  let s = ig_stats r in
  Fmt.pf ppf "IG: nodes %d sites %d funcs %d R %d A %d Avgc %.2f Avgf %.2f@." s.ig_nodes
    s.call_sites s.n_funcs s.n_recursive s.n_approximate s.avg_per_call_site s.avg_per_func;
  Fmt.pf ppf "%a@." Pointsto.Metrics.pp r.Pointsto.Analysis.metrics

let cmd_stats file cache incremental budget trace_out =
  with_errors (fun () ->
    with_trace trace_out @@ fun () ->
      let r = analyze_file ?budget ~cache ~incremental file in
      Fmt.pr "%a" pp_stats_report r;
      match r.Pointsto.Analysis.degraded with
      | Some d ->
          Fmt.pr "%a@." pp_degraded d;
          exit exit_degraded
      | None -> ())

(** Render an analysis failure the way {!with_errors} reports it, for
    the per-file handling in [tables] where one bad file must not kill
    the whole run. *)
let describe_exn = function
  | Cfront.Srcloc.Error (loc, m) -> Fmt.str "%a: error: %s" Cfront.Srcloc.pp loc m
  | Simple_ir.Simplify.Unsupported (loc, m) ->
      Fmt.str "%a: unsupported: %s" Cfront.Srcloc.pp loc m
  | Pointsto.Analysis.No_entry e -> Fmt.str "error: no entry function '%s'" e
  | Pointsto.Guard.Cancelled -> "error: cancelled (task timeout)"
  | Pointsto.Guard.Exhausted t ->
      Fmt.str "error: %a (even the widened rerun blew the budget)" Pointsto.Guard.pp_trip t
  | Pointsto.Fault.Injected p -> Fmt.str "error: injected fault '%s'" p
  | e -> Printexc.to_string e

(** Exit policy for multi-file commands, where some files may have
    failed and others degraded. Failure wins (exit 1), then degradation
    (exit 3), then success — but the signals are never silently merged:
    when both occur, a summary on stderr records the degradation count
    that the exit code cannot carry, and the per-file degradation
    reports have already been printed. *)
let finish_multi ~failed ~degraded =
  if failed > 0 || degraded > 0 then
    Fmt.epr "ptan: %d file(s) failed, %d degraded@." failed degraded;
  if failed > 0 then exit 1;
  if degraded > 0 then exit exit_degraded

let cmd_tables files cache incremental budget timeout_ms jobs show_stats trace_out =
  with_trace trace_out @@ fun () ->
  let task file () =
    let r = analyze_file ?budget ~cache ~incremental file in
    (Fmt.str "%a" pp_stats_report r, r.Pointsto.Analysis.metrics,
     r.Pointsto.Analysis.degraded)
  in
  let results =
    Pointsto.Pool.with_pool ~jobs (fun pool ->
        Pointsto.Pool.run_list ?timeout_ms pool (List.map task files))
  in
  let failed = ref 0 in
  let degraded_n = ref 0 in
  let metrics = ref [] in
  List.iter2
    (fun file res ->
      Fmt.pr "== %s ==@." file;
      match res with
      | Ok (report, m, deg) ->
          metrics := m :: !metrics;
          Fmt.pr "%s" report;
          Option.iter
            (fun d ->
              incr degraded_n;
              Fmt.pr "%a@." pp_degraded d)
            deg
      | Error e ->
          incr failed;
          Fmt.pr "%s@." (describe_exn e))
    files results;
  (* the aggregate sums only the files that analyzed; with no successes
     there is nothing to sum, so print no table at all *)
  if show_stats && !metrics <> [] then begin
    let header =
      if !failed = 0 then Fmt.str "%d files" (List.length !metrics)
      else
        Fmt.str "%d of %d files analyzed; errored files excluded"
          (List.length !metrics) (List.length files)
    in
    Fmt.pr "@.== aggregate (%s) ==@.%a@." header Pointsto.Metrics.pp
      (Pointsto.Metrics.sum (List.rev !metrics))
  end;
  finish_multi ~failed:!failed ~degraded:!degraded_n

(** [profile] always re-analyzes (a result served from the disk cache
    records no engine spans) with the trace sink enabled, prints the
    self-profile report and optionally writes the trace-event JSON. *)
let cmd_profile files budget timeout_ms jobs trace_out top =
  Trace.enable ();
  Trace.clear ();
  let task file () =
    let t0 = Trace.start () in
    let p = load file in
    let r = Pointsto.Analysis.analyze ?budget p in
    Trace.emit Trace.Task ~name:(Filename.basename file) ~t0 ();
    r
  in
  let results =
    Pointsto.Pool.with_pool ~jobs (fun pool ->
        Pointsto.Pool.run_list ?timeout_ms pool (List.map task files))
  in
  Trace.disable ();
  let failed = ref 0 in
  let degraded_n = ref 0 in
  List.iter2
    (fun file res ->
      match res with
      | Ok r ->
          Fmt.pr "== %s ==@.%d IG nodes, %d body passes, %d sharing hits@." file
            r.Pointsto.Analysis.graph.Pointsto.Invocation_graph.n_nodes
            r.Pointsto.Analysis.metrics.Pointsto.Metrics.bodies
            r.Pointsto.Analysis.metrics.Pointsto.Metrics.memo_hits;
          Option.iter
            (fun d ->
              incr degraded_n;
              Fmt.pr "%a@." pp_degraded d)
            r.Pointsto.Analysis.degraded
      | Error e ->
          incr failed;
          Fmt.pr "== %s ==@.%s@." file (describe_exn e))
    files results;
  let spans = Trace.collect () in
  Fmt.pr "@.%a" (Trace.pp_profile ~top) spans;
  Option.iter
    (fun path ->
      Trace.save_json path spans;
      Fmt.epr "trace: wrote %d spans to %s@." (List.length spans) path)
    trace_out;
  finish_multi ~failed:!failed ~degraded:!degraded_n

let cmd_alias file cache =
  with_errors (fun () ->
      let r = analyze_file ~cache file in
      match r.Pointsto.Analysis.entry_output with
      | None -> Fmt.pr "main does not terminate normally@."
      | Some s ->
          let s = Pointsto.Pts.remove_tgt Pointsto.Loc.Null s in
          Fmt.pr "points-to at exit: %a@." Pointsto.Pts.pp s;
          Fmt.pr "alias pairs:      %a@." Alias.Pairs.pp (Alias.Pairs.of_pts s))

let cmd_callgraph file =
  with_errors (fun () ->
      let p = load file in
      List.iter
        (fun s ->
          let nodes = Alias.Callgraph.ig_size p s in
          let fanout = Alias.Callgraph.indirect_fanout p s in
          Fmt.pr "%-24s IG nodes: %4d   indirect fanout: [%a]@."
            (Alias.Callgraph.strategy_name s) nodes
            (Fmt.list ~sep:(Fmt.any "; ") Fmt.int)
            fanout)
        [ Alias.Callgraph.Precise; Alias.Callgraph.Naive; Alias.Callgraph.Address_taken ])

let cmd_replace file cache =
  with_errors (fun () ->
      let r = analyze_file ~cache file in
      let reps = Transforms.Pointer_replace.find r in
      Fmt.pr "%d replacement opportunities@." (List.length reps);
      List.iter (fun rp -> Fmt.pr "  %a@." Transforms.Pointer_replace.pp_replacement rp) reps)

(** Summaries for demand skip-replay, from the incremental cache entry
    when both the cache and [--incremental] are on. Read-only: a demand
    result is never written back (its tables cover one slice, not the
    key's promise of the full answer). *)
let demand_seeded ~cache ~incremental prog file =
  match cache with
  | Some dir when incremental ->
      let cache_dir =
        match dir with Some d -> d | None -> Persist.default_cache_dir ()
      in
      Persist.load_summaries ~cache_dir ~source:file ~opts:Pointsto.Options.default
        prog
  | Some _ | None -> None

(** Demand mode over one file: the parsed program, one
    {!Alias.Demand_driver.prepare} (Andersen pre-pass), optional cache
    summaries for skip-replay, and a mutex-guarded memo of primed
    per-seed results, so queries about the same function share one
    sliced analysis whichever domain asks first. A query whose statement
    id exists nowhere has no seed: [None] keys one (also memoized)
    exhaustive run, so its answer, including the error text, matches
    non-demand mode exactly. *)
type demand_entry = {
  de_prog : Ir.program;
  de_driver : Alias.Demand_driver.t;
  de_seeded : Pointsto.Engine.store option;
  de_memo : (string option, Pointsto.Analysis.result) Hashtbl.t;
  de_mu : Mutex.t;
}

let demand_entry ~cache ~incremental file =
  let prog = load file in
  {
    de_prog = prog;
    de_driver = Alias.Demand_driver.prepare prog;
    de_seeded = demand_seeded ~cache ~incremental prog file;
    de_memo = Hashtbl.create 8;
    de_mu = Mutex.create ();
  }

(** The primed result that answers [q]: a memo hit, else computed
    outside the lock (a racing request may duplicate the work; the
    published value stays unique) and published. *)
let demand_result (de : demand_entry) (q : Alias.Query.t) =
  let seed = Alias.Demand_driver.seed_of de.de_driver q in
  match Mutex.protect de.de_mu (fun () -> Hashtbl.find_opt de.de_memo seed) with
  | Some r -> r
  | None ->
      let r =
        match seed with
        | Some s -> Alias.Demand_driver.analyze ?seeded:de.de_seeded de.de_driver ~seed:s
        | None -> Pointsto.Analysis.analyze de.de_prog
      in
      Pointsto.Analysis.prime r;
      Mutex.protect de.de_mu (fun () ->
          match Hashtbl.find_opt de.de_memo seed with
          | Some winner -> winner
          | None ->
              Hashtbl.replace de.de_memo seed r;
              r)

let cmd_query file cache incremental demand words =
  with_errors (fun () ->
      let line = String.concat " " words in
      let answer =
        if demand then begin
          let de = demand_entry ~cache ~incremental file in
          match Alias.Query.parse line with
          | Error _ as e -> e
          | Ok q -> Alias.Query.answer (demand_result de q) q
        end
        else begin
          let r = analyze_file ~cache ~incremental file in
          Pointsto.Analysis.prime r;
          Alias.Query.run r line
        end
      in
      match answer with
      | Ok ans -> Fmt.pr "%s@." ans
      | Error e ->
          Fmt.epr "error: %s@." e;
          exit 2)

let cmd_batch file cache incremental demand jobs queries =
  with_errors (fun () ->
      let ic, close_ic =
        match queries with
        | None | Some "-" -> (stdin, false)
        | Some f -> (
            try (open_in f, true)
            with Sys_error m ->
              Fmt.epr "error: %s@." m;
              exit 1)
      in
      let lines =
        let rec go n acc =
          match In_channel.input_line ic with
          | None -> List.rev acc
          | Some line -> go (n + 1) ((n, line) :: acc)
        in
        go 1 []
      in
      if close_ic then close_in ic;
      let todo =
        List.filter_map
          (fun (n, line) ->
            let trimmed = String.trim line in
            if trimmed = "" || trimmed.[0] = '#' then None else Some (n, trimmed))
          lines
      in
      let answers =
        if demand then begin
          (* Demand mode: one sliced analysis per distinct seed function
             (memoized by [demand_result]), answered sequentially —
             queries about the same function share a slice, and slicing
             itself is the speedup, not fan-out. *)
          let de = demand_entry ~cache ~incremental file in
          let answer (n, qline) =
            match Alias.Query.parse qline with
            | Error e -> Error (Fmt.str "line %d: error: %s" n e)
            | Ok q -> (
                match Alias.Query.answer (demand_result de q) q with
                | Ok ans -> Ok (Fmt.str "%s => %s" qline ans)
                | Error e -> Error (Fmt.str "line %d: error: %s" n e))
          in
          List.map answer todo
        end
        else begin
          (* Each query is independent, so answering is a pure map over
             the one shared (primed) result; printing in input order
             afterwards keeps the output deterministic whatever the
             schedule. *)
          let r = analyze_file ~cache ~incremental file in
          Pointsto.Analysis.prime r;
          let answer (n, q) =
            match Alias.Query.run r q with
            | Ok ans -> Ok (Fmt.str "%s => %s" q ans)
            | Error e -> Error (Fmt.str "line %d: error: %s" n e)
          in
          if jobs <= 1 then List.map answer todo
          else
            Pointsto.Pool.with_pool ~jobs (fun pool ->
                Pointsto.Pool.map_result pool answer todo)
            |> List.map2
                 (fun (n, _) res ->
                   match res with
                   | Ok a -> a
                   | Error e ->
                       Error (Fmt.str "line %d: error: %s" n (Printexc.to_string e)))
                 todo
        end
      in
      let failed = ref 0 in
      List.iter
        (fun a ->
          match a with
          | Ok s -> Fmt.pr "%s@." s
          | Error s ->
              incr failed;
              Fmt.pr "%s@." s)
        answers;
      if !failed > 0 then exit 2)

(** The resident daemon: analyze (or load from cache) and prime every
    corpus file once, then answer {!Alias.Query} requests over the
    {!Pointsto.Serve} line protocol until end-of-input, [quit], or
    SIGTERM/SIGINT. Everything human-readable (startup progress, the
    ready line, shutdown stats) goes to stderr; stdout carries protocol
    replies only.

    Under [--demand], startup only parses each file and runs the cheap
    Andersen pre-pass; the expensive context-sensitive work happens per
    request, sliced to the query's seed function and memoized per
    (file, seed). *)
let cmd_serve files cache incremental demand budget jobs socket request_deadline_ms
    queue_max show_stats supervise max_restarts =
  with_errors (fun () ->
      (* Corpus load: any file that fails to analyze is a startup
         error — a daemon with a silently missing corpus entry would
         answer [error unknown file] forever. Degraded entries are fine:
         their answers are sound supersets, flagged per-reply. The
         results table is mutable so [reload]/[watch] can swap an entry
         in place (always on the event-loop domain, between batches).
         Everything from corpus load onward lives in [boot]: under
         --supervise it must run in the forked worker, not the
         supervisor, so each restarted worker loads afresh (the result
         cache makes that cheap) and the supervisor never spawns a
         domain before forking. *)
      let boot () =
      let results : (string, Pointsto.Analysis.result) Hashtbl.t = Hashtbl.create 16 in
      let dentries : (string, demand_entry) Hashtbl.t = Hashtbl.create 16 in
      let load_entry file =
        if demand then begin
          Hashtbl.replace dentries file (demand_entry ~cache ~incremental file);
          None
        end
        else begin
          let r = analyze_file ?budget ~cache ~incremental file in
          Pointsto.Analysis.prime r;
          Hashtbl.replace results file r;
          Some r
        end
      in
      List.iter
        (fun file ->
          Fmt.epr "serve: loading %s...@." file;
          match load_entry file with
          | Some r ->
              Option.iter
                (fun d -> Fmt.epr "serve: %s %a@." file pp_degraded d)
                r.Pointsto.Analysis.degraded
          | None -> ())
        files;
      (* Name resolution: the path as given, plus its basename and
         basename-without-extension when unique across the corpus.
         Aliases map to the canonical path so a reload through any
         alias swaps the one shared entry. *)
      let by_name : (string, string option) Hashtbl.t = Hashtbl.create 16 in
      let alias name file =
        match Hashtbl.find_opt by_name name with
        | None -> Hashtbl.replace by_name name (Some file)
        | Some _ -> Hashtbl.replace by_name name None (* ambiguous *)
      in
      List.iter
        (fun file ->
          Hashtbl.replace by_name file (Some file);
          let base = Filename.basename file in
          if base <> file then alias base file;
          let stem = Filename.remove_extension base in
          if stem <> base then alias stem file)
        files;
      let resolve name =
        match Hashtbl.find_opt by_name name with Some (Some f) -> Some f | _ -> None
      in
      let handler =
        {
          Pointsto.Serve.h_files = files;
          h_answer =
            (fun ~file ~query ->
              match resolve file with
              | None ->
                  Pointsto.Serve.Ans_error
                    (Fmt.str "unknown file '%s' (try the 'files' request)" file)
              | Some f when demand -> (
                  let de = Hashtbl.find dentries f in
                  match Alias.Query.parse query with
                  | Error e -> Pointsto.Serve.Ans_error e
                  | Ok q -> (
                      match Alias.Query.answer (demand_result de q) q with
                      | Error e -> Pointsto.Serve.Ans_error e
                      (* demand runs take no budget, so never degraded *)
                      | Ok ans -> Pointsto.Serve.Ans ans))
              | Some f -> (
                  let r = Hashtbl.find results f in
                  match Alias.Query.run r query with
                  | Error e -> Pointsto.Serve.Ans_error e
                  | Ok ans ->
                      if r.Pointsto.Analysis.degraded <> None then
                        Pointsto.Serve.Ans_degraded ans
                      else Pointsto.Serve.Ans ans));
          h_reload =
            Some
              (fun ~file ->
                match resolve file with
                | None -> Error (Fmt.str "unknown file '%s'" file)
                | Some f -> (
                    match load_entry f with
                    | Some r ->
                        let m = r.Pointsto.Analysis.metrics in
                        Ok
                          (Fmt.str "reloaded %s (%d dirty, %d replayed)" f
                             m.Pointsto.Metrics.incr_funcs_dirty m.incr_funcs_reused)
                    | None -> Ok (Fmt.str "reloaded %s (demand: slices reset)" f)
                    | exception e -> Error (describe_exn e)));
          h_paths = List.map (fun f -> (f, f)) files;
        }
      in
      (* the counters of every result resident now: the corpus, or
         under --demand the memoized slice results *)
      let resident () =
        Hashtbl.fold (fun _ r acc -> r.Pointsto.Analysis.metrics :: acc) results []
        @ Hashtbl.fold
            (fun _ de acc ->
              Mutex.protect de.de_mu (fun () ->
                  Hashtbl.fold (fun _ r acc -> r.Pointsto.Analysis.metrics :: acc)
                    de.de_memo acc))
            dentries []
      in
      (handler, resident)
      in
      let stop = Atomic.make false in
      let on_signal _ = Atomic.set stop true in
      List.iter
        (fun s -> try Sys.set_signal s (Sys.Signal_handle on_signal) with Invalid_argument _ -> ())
        [ Sys.sigterm; Sys.sigint ];
      let run_daemon ~restarts ~journal transport =
        let handler, resident = boot () in
        let config =
          { Pointsto.Serve.jobs; queue_max; request_deadline_ms; restarts; journal }
        in
        (match socket with
        | Some path ->
            Fmt.epr "serve: ready, %d file(s) resident, socket %s@." (List.length files)
              path
        | None -> Fmt.epr "serve: ready, %d file(s) resident, stdio@." (List.length files));
        let stats = Pointsto.Serve.run ~stop config handler transport in
        Fmt.epr
          "serve: shutdown after %d request(s): %d ok, %d degraded, %d error, %d shed, \
           %d batch(es), %d reload(s)@."
          stats.Pointsto.Serve.s_requests stats.s_ok stats.s_degraded stats.s_errors
          stats.s_shed stats.s_batches stats.s_reloads;
        if show_stats then Fmt.epr "%a@." Pointsto.Metrics.pp (Pointsto.Metrics.sum (resident ()))
      in
      if supervise then begin
        match socket with
        | None ->
            Fmt.epr "serve: error: --supervise requires --socket@.";
            exit 1
        | Some path ->
            let sv =
              { Pointsto.Serve.default_supervise with sv_max_restarts = max_restarts }
            in
            let journal = Some (path ^ ".journal") in
            (try Sys.remove (path ^ ".journal") with Sys_error _ -> ());
            let code =
              Pointsto.Serve.supervise ~stop sv ~socket:path (fun ~restarts fd ->
                  run_daemon ~restarts ~journal (Pointsto.Serve.Listening fd);
                  0)
            in
            (try Sys.remove (path ^ ".journal") with Sys_error _ -> ());
            if code <> 0 then exit code
      end
      else
        let transport =
          match socket with
          | Some path -> Pointsto.Serve.Socket path
          | None -> Pointsto.Serve.Stdio
        in
        run_daemon ~restarts:0 ~journal:None transport)

(** Exit code for refused generation: bad knobs, or an --out path that
    exists without --force. Shares code 2 with query failures — "the
    request itself was rejected", as opposed to code 1's "the analysis
    or input failed" (docs/CLI.md exit-code table). *)
let exit_gen_refused = 2

let cmd_gen seed size funcs depth fnptr_density recursion structs globals out force =
  let k = { Gen.seed; size; funcs; depth; fnptr_density; recursion; structs; globals } in
  match Gen.validate k with
  | Error m ->
      Fmt.epr "gen: error: %s@." m;
      exit exit_gen_refused
  | Ok () -> (
      let text = Gen.program k in
      match out with
      | None -> print_string text
      | Some path ->
          if Sys.file_exists path && not force then begin
            Fmt.epr "gen: refusing to overwrite existing '%s' (pass --force to replace it)@."
              path;
            exit exit_gen_refused
          end;
          (try
             let oc = open_out_bin path in
             Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)
           with Sys_error m ->
             Fmt.epr "gen: error: %s@." m;
             exit exit_gen_refused);
          Fmt.epr "gen: wrote %d lines to %s@."
            (String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 text)
            path)

open Cmdliner

let file_arg = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE")

let no_context =
  Arg.(value & flag & info [ "no-context" ] ~doc:"Context-insensitive ablation.")

let no_definite = Arg.(value & flag & info [ "no-definite" ] ~doc:"Disable definite pairs.")

let sym_depth =
  Arg.(value & opt int 5 & info [ "sym-depth" ] ~doc:"Max symbolic-name depth.")

let show_null = Arg.(value & flag & info [ "show-null" ] ~doc:"Include NULL pairs.")

let show_stats =
  Arg.(
    value & flag
    & info [ "stats" ] ~doc:"Print per-phase timings and engine operation counters.")

let no_share =
  Arg.(
    value & flag
    & info [ "no-share-contexts" ]
        ~doc:
          "Disable §6 sub-tree sharing (memoized IN/OUT pairs across contexts). Sharing is \
           on by default and does not change results; this exists for ablation.")

let jobs =
  Arg.(
    value & opt int 1
    & info [ "j"; "jobs" ] ~docv:"N"
        ~doc:"Run on $(docv) domains; results and output order are identical for any $(docv).")

let heap_by_site =
  Arg.(value & flag & info [ "heap-by-site" ] ~doc:"Name heap storage by allocation site.")

let cache_dir =
  Arg.(
    value
    & opt (some string) None
    & info [ "cache-dir" ] ~docv:"DIR"
        ~doc:
          "Directory holding persisted analysis results (default: \
           \\$XDG_CACHE_HOME/ptan, falling back to ~/.cache/ptan).")

let no_cache =
  Arg.(
    value & flag
    & info [ "no-cache" ] ~doc:"Always re-run the analysis; neither read nor write the cache.")

let incremental_flag =
  Arg.(
    value & flag
    & info [ "incremental" ]
        ~doc:
          "Incremental re-analysis: keep a stable cache entry carrying per-function \
           content hashes and replayable summaries; after an edit, only the dirty \
           functions (edited ones plus everything that can reach them) re-analyze and \
           the rest replays — with bit-identical tables. Requires the cache (ignored \
           under --no-cache). See docs/INCREMENTAL.md.")

let no_incremental =
  Arg.(
    value & flag
    & info [ "no-incremental" ]
        ~doc:"Force full cache behavior, overriding a preceding --incremental.")

(** Combined incremental selector. *)
let incremental =
  Term.(const (fun on off -> on && not off) $ incremental_flag $ no_incremental)

let demand_flag =
  Arg.(
    value & flag
    & info [ "demand" ]
        ~doc:
          "Demand-driven mode: analyze only the invocation-graph slice the query \
           needs. The query's enclosing function seeds a slice plan — its transitive \
           callers, its own callee cone, and every call whose effect can flow into a \
           call leading to it; indirect sites expand conservatively via a \
           flow-insensitive Andersen pre-pass. Calls outside the slice replay \
           persisted summaries when available (with --incremental and the cache) and \
           apply a widened sound transfer otherwise; answers stay bit-identical to \
           the exhaustive analysis. Demand results are never written to the cache, \
           and resource budgets do not apply (no degradation path). See \
           docs/DEMAND.md.")

let no_demand =
  Arg.(
    value & flag
    & info [ "no-demand" ]
        ~doc:"Force exhaustive analysis, overriding a preceding --demand.")

(** Combined demand selector. *)
let demand = Term.(const (fun on off -> on && not off) $ demand_flag $ no_demand)

let deadline_ms =
  Arg.(
    value
    & opt (some float) None
    & info [ "deadline-ms" ] ~docv:"MS"
        ~doc:
          "Wall-clock budget per analysis, milliseconds. On exhaustion the analysis \
           degrades to the widened (context-insensitive, possible-only) rerun, which gets \
           the same allowance afresh — total wall-clock stays within about twice $(docv). \
           See docs/ROBUSTNESS.md.")

let fuel =
  Arg.(
    value & opt (some int) None
    & info [ "fuel" ] ~docv:"N"
        ~doc:
          "Fixpoint-iteration budget: max iterations of any single loop-head or \
           recursive invocation-graph fixed point before degrading.")

let max_locs =
  Arg.(
    value & opt (some int) None
    & info [ "max-locs" ] ~docv:"N"
        ~doc:
          "Size ceiling before degrading: max points-to pairs in a function output and \
           max invocation-graph nodes.")

let max_heap_mb =
  Arg.(
    value & opt (some int) None
    & info [ "max-heap-mb" ] ~docv:"MB"
        ~doc:
          "Memory ceiling before degrading, megabytes of major-heap size: sampled at \
           the engine's fixpoint boundaries with a GC-alarm backstop. A blown ceiling \
           degrades to the widened rerun (exit 3) instead of an OOM kill. See \
           docs/ROBUSTNESS.md.")

(** Combined resource budget; [None] when no budget flag was given. *)
let budget =
  Term.(
    const (fun d f m h ->
        match (d, f, m, h) with
        | None, None, None, None -> None
        | _ ->
            Some
              {
                Pointsto.Guard.b_deadline_ms = d;
                b_fuel = f;
                b_max_locs = m;
                b_max_heap_mb = h;
              })
    $ deadline_ms $ fuel $ max_locs $ max_heap_mb)

let task_timeout_ms =
  Arg.(
    value
    & opt (some float) None
    & info [ "task-timeout-ms" ] ~docv:"MS"
        ~doc:
          "Per-file timeout for parallel runs, milliseconds, measured from when the \
           file's task starts: an overdue task is cooperatively cancelled and reported \
           as an error without disturbing its siblings.")

let trace_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "trace-out" ] ~docv:"FILE"
        ~doc:
          "Record engine spans and write them to $(docv) as Chrome trace-event JSON \
           (open in Perfetto or about://tracing). See docs/OBSERVABILITY.md.")

let top =
  Arg.(
    value & opt int 15
    & info [ "top" ] ~docv:"N" ~doc:"Rows in each profile table (default 15).")

(** Combined cache selector: [None] = disabled, [Some None] = default
    directory, [Some (Some d)] = explicit directory. *)
let cache = Term.(const (fun dir off -> if off then None else Some dir) $ cache_dir $ no_cache)

let simple_cmd =
  Cmd.v (Cmd.info "simple" ~doc:"Dump the SIMPLE lowering")
    Term.(const cmd_simple $ file_arg)

let analyze_cmd =
  Cmd.v
    (Cmd.info "analyze" ~doc:"Run points-to analysis")
    Term.(
      const cmd_analyze $ file_arg $ cache $ incremental $ budget $ no_context
      $ no_definite $ sym_depth $ no_share $ heap_by_site $ show_null $ show_stats
      $ trace_out)

let heap_cmd =
  Cmd.v
    (Cmd.info "heap" ~doc:"Allocation-site heap naming + connection analysis")
    Term.(const cmd_heap $ file_arg $ cache)

let constants_cmd =
  Cmd.v
    (Cmd.info "constants" ~doc:"Interprocedural constant propagation")
    Term.(const cmd_constants $ file_arg $ cache)

let ig_cmd =
  Cmd.v (Cmd.info "ig" ~doc:"Print the invocation graph")
    Term.(const cmd_ig $ file_arg $ cache)

let stats_cmd =
  Cmd.v
    (Cmd.info "stats" ~doc:"Print Tables 2-6 statistics")
    Term.(const cmd_stats $ file_arg $ cache $ incremental $ budget $ trace_out)

let files_arg =
  Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE" ~doc:"C source files to analyze.")

let tables_cmd =
  Cmd.v
    (Cmd.info "tables"
       ~doc:
         "Print Tables 2-6 statistics for many files, analyzed on -j domains in parallel; \
          with --stats, also an aggregated operation/timing table")
    Term.(
      const cmd_tables $ files_arg $ cache $ incremental $ budget $ task_timeout_ms $ jobs
      $ show_stats $ trace_out)

let profile_cmd =
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Re-analyze files with the trace sink enabled and print where the time went: \
          top-N spans by cumulative/self time and fixpoint iteration histograms; \
          --trace-out additionally writes the Perfetto-loadable timeline")
    Term.(const cmd_profile $ files_arg $ budget $ task_timeout_ms $ jobs $ trace_out $ top)

let alias_cmd =
  Cmd.v
    (Cmd.info "alias" ~doc:"Print alias pairs at exit")
    Term.(const cmd_alias $ file_arg $ cache)

let callgraph_cmd =
  Cmd.v
    (Cmd.info "callgraph" ~doc:"Compare call-graph strategies")
    Term.(const cmd_callgraph $ file_arg)

let replace_cmd =
  Cmd.v
    (Cmd.info "replace" ~doc:"Pointer replacement opportunities")
    Term.(const cmd_replace $ file_arg $ cache)

let query_words =
  Arg.(
    non_empty
    & pos_right 0 string []
    & info [] ~docv:"QUERY"
        ~doc:
          "Query words, e.g. 'pts main s12 p'. See docs/CLI.md for the full query grammar.")

let query_cmd =
  Cmd.v
    (Cmd.info "query" ~doc:"Answer one demand query against the analysis result")
    Term.(const cmd_query $ file_arg $ cache $ incremental $ demand $ query_words)

let queries_file =
  Arg.(
    value
    & pos 1 (some string) None
    & info [] ~docv:"QUERIES"
        ~doc:"File of newline-delimited queries; '-' or absent reads standard input.")

let socket_path =
  Arg.(
    value
    & opt (some string) None
    & info [ "socket" ] ~docv:"PATH"
        ~doc:
          "Listen on a Unix-domain socket at $(docv) instead of stdin/stdout; a stale \
           socket file is replaced at startup and the path unlinked on shutdown.")

let request_deadline_ms =
  Arg.(
    value
    & opt (some float) None
    & info [ "request-deadline-ms" ] ~docv:"MS"
        ~doc:
          "Per-request wall-clock deadline (monotonic), milliseconds: a request that \
           trips it gets an error reply, the daemon and its other requests are \
           undisturbed.")

let queue_max =
  Arg.(
    value & opt int 1024
    & info [ "queue-max" ] ~docv:"N"
        ~doc:
          "Admission bound: at most $(docv) requests dispatched per batch cycle; the \
           excess is answered 'busy' immediately instead of queueing without bound.")

let supervise_flag =
  Arg.(
    value & flag
    & info [ "supervise" ]
        ~doc:
          "Self-healing mode (requires --socket): a supervisor process owns the \
           listening socket and forks the actual daemon as a worker; a crashed or \
           OOM-killed worker is restarted onto the same socket with capped exponential \
           backoff, replaying its predecessor's reloads from a journal. More than \
           --max-restarts worker deaths within 30s make the supervisor give up (exit \
           1). See docs/ROBUSTNESS.md.")

let max_restarts =
  Arg.(
    value & opt int 5
    & info [ "max-restarts" ] ~docv:"N"
        ~doc:
          "Fail-fast bound for --supervise: tolerate at most $(docv) worker deaths \
           within a 30s sliding window before giving up.")

let serve_cmd =
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Analyze (or load) FILES once, keep the primed results resident, and answer \
          alias/pts/calls queries over a line protocol on stdin/stdout or --socket; \
          queries fan out over -j domains, each under --request-deadline-ms. See \
          docs/SERVE.md")
    Term.(
      const cmd_serve $ files_arg $ cache $ incremental $ demand $ budget $ jobs
      $ socket_path $ request_deadline_ms $ queue_max $ show_stats $ supervise_flag
      $ max_restarts)

let batch_cmd =
  Cmd.v
    (Cmd.info "batch"
       ~doc:
         "Answer newline-delimited queries from a file or stdin against one loaded result")
    Term.(const cmd_batch $ file_arg $ cache $ incremental $ demand $ jobs $ queries_file)

let gen_seed =
  Arg.(
    value & opt int Gen.default.Gen.seed
    & info [ "seed" ] ~docv:"N"
        ~doc:
          "PRNG seed. Output is byte-identical for a fixed seed and knob set, on any \
           machine — corpora are reproducible from a seed list. See docs/CORPUS.md.")

let gen_size =
  Arg.(
    value & opt int Gen.default.Gen.size
    & info [ "size" ] ~docv:"LINES"
        ~doc:
          "Target program size in lines (50..1000000): the function count grows until \
           the output reaches at least $(docv) lines. Ignored when --funcs is non-zero.")

let gen_funcs =
  Arg.(
    value & opt int Gen.default.Gen.funcs
    & info [ "funcs" ] ~docv:"N"
        ~doc:
          "Exact function count; 0 (the default) derives it from --size. A non-zero \
           count waives the size floor.")

let gen_depth =
  Arg.(
    value & opt int Gen.default.Gen.depth
    & info [ "depth" ] ~docv:"N"
        ~doc:
          "Call-DAG layers (1..32): the maximum direct-call depth below main. Function \
           pointer tables connect adjacent layers only.")

let gen_fnptr_density =
  Arg.(
    value & opt int Gen.default.Gen.fnptr_density
    & info [ "fnptr-density" ] ~docv:"PCT"
        ~doc:
          "Percent of call sites (0..100) routed through a function-pointer table load, \
           livc-style, instead of a direct call.")

let gen_recursion =
  Arg.(
    value & opt int Gen.default.Gen.recursion
    & info [ "recursion" ] ~docv:"PCT"
        ~doc:
          "Percent of functions (0..100) given a guarded self call; half that rate also \
           forms mutual-recursion pairs within a layer.")

let gen_structs =
  Arg.(
    value & opt int Gen.default.Gen.structs
    & info [ "structs" ] ~docv:"PCT"
        ~doc:
          "Percent of function bodies (0..100) doing struct/heap/array work: malloc'd \
           list nodes, field stores, array walks.")

let gen_globals =
  Arg.(
    value & opt int Gen.default.Gen.globals
    & info [ "globals" ] ~docv:"PCT"
        ~doc:
          "Percent of pointer traffic (0..100) aimed at globals rather than function \
           locals.")

let gen_out =
  Arg.(
    value
    & opt (some string) None
    & info [ "out" ] ~docv:"FILE"
        ~doc:
          "Write the program to $(docv) instead of standard output. Refuses to overwrite \
           an existing file unless --force is given (exit 2).")

let gen_force =
  Arg.(
    value & flag
    & info [ "force" ] ~doc:"Allow --out to replace an existing file.")

let gen_cmd =
  Cmd.v
    (Cmd.info "gen"
       ~doc:
         "Emit a deterministic synthetic C program for scale testing: a layered call \
          DAG with function-pointer tables, optional recursion cycles and \
          struct/heap/array traffic, sized by --size (10k-100k lines is the intended \
          range). Byte-identical output per --seed; see docs/CORPUS.md")
    Term.(
      const cmd_gen $ gen_seed $ gen_size $ gen_funcs $ gen_depth $ gen_fnptr_density
      $ gen_recursion $ gen_structs $ gen_globals $ gen_out $ gen_force)

let () =
  let info = Cmd.info "ptan" ~doc:"Context-sensitive interprocedural points-to analysis" in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            simple_cmd;
            analyze_cmd;
            ig_cmd;
            stats_cmd;
            tables_cmd;
            profile_cmd;
            alias_cmd;
            callgraph_cmd;
            replace_cmd;
            heap_cmd;
            constants_cmd;
            query_cmd;
            batch_cmd;
            serve_cmd;
            gen_cmd;
          ]))
