(** What every workload shares: the per-run record of operations,
    latencies and counters, and the calls into [ptan]'s layers wrapped
    in harness spans. Ops may be recorded from {!Pointsto.Pool}
    workers, so the record is guarded by a mutex.

    Every op has a key naming its inputs: ops with the same key do the
    same work, and each workload repeats its keys several times over a
    run, seconds apart, so that every run does the same work whatever
    the host's speed. Every timing is kept with its interval, for
    {!Speed} to scale. *)

module Analysis = Pointsto.Analysis
module Metrics = Pointsto.Metrics
module Mono = Pointsto.Mono
module Ir = Simple_ir.Ir

(** One workload, set up and ready to run. *)
type instance = {
  run : until:float -> unit;
      (** perform operations until the monotonic clock passes [until],
          and every op key at least once *)
  checks : unit -> (string * bool) list;
      (** output checks run after timing: name and verdict *)
  teardown : unit -> unit;
}

type workload = { name : string; setup : seed:int -> instance }

(** A timing: what was timed, how many ops it holds, and when. *)
type timing = { key : string; n : int; t0 : float; t1 : float }

type record = {
  mutable latencies : timing list;  (** one per op *)
  mutable work : timing list;  (** units of work, for throughput *)
  mutable speed : (float * float) list;  (** {!Speed.sample}s *)
  mutable last_speed : float;
  mutable attempted : int;
  mutable failed : int;
  mutable excluded_s : float;  (** check work done inside the timed phase *)
  mutable timed_root_s : float;  (** time inside root op spans, main domain *)
  engine : Metrics.t;  (** counters of every analysis the ops returned *)
  mutable analyses : int;
  mutable ig_nodes : int;
  counters : (string, float) Hashtbl.t;
  mutable outputs : (string * string) list;
      (** (key, digest) of each checked output, for the golden files *)
}

let fresh () =
  {
    latencies = [];
    work = [];
    speed = [];
    last_speed = 0.;
    attempted = 0;
    failed = 0;
    excluded_s = 0.;
    timed_root_s = 0.;
    engine = Metrics.create ();
    analyses = 0;
    ig_nodes = 0;
    counters = Hashtbl.create 16;
    outputs = [];
  }

let cur = ref (fresh ())
let lock = Mutex.create ()

let locked f =
  Mutex.lock lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

let reset () = cur := fresh ()

(** Forget the ops of a setup (its warm-up pass) but keep its counters:
    the traced run reports layers over set-up and timed phase alike. *)
let reset_ops () =
  locked (fun () ->
      let r = !cur in
      r.latencies <- [];
      r.work <- [];
      r.speed <- [];
      r.attempted <- 0;
      r.failed <- 0;
      r.excluded_s <- 0.;
      r.timed_root_s <- 0.;
      r.outputs <- [])

let output key digest = locked (fun () -> !cur.outputs <- (key, digest) :: !cur.outputs)

let count name v =
  locked (fun () ->
      let c = !cur.counters in
      Hashtbl.replace c name (v +. Option.value ~default:0. (Hashtbl.find_opt c name)))

let counter r name = Option.value ~default:0. (Hashtbl.find_opt r.counters name)

let next_op = Atomic.make 0

(** Set by the first op that raises; a run expects none, so that one is
    reported on stderr. *)
let raised = Atomic.make false

(** Time the {!Speed} kernel. *)
let speed_sample () =
  let s = Span.with_ "speed" Speed.sample in
  locked (fun () ->
      let r = !cur in
      r.speed <- s :: r.speed;
      r.last_speed <- Mono.now_s ())

(** Sample the host's speed for every {!Speed.every_s} since the last
    sample (up to ten at once). Main domain only, between ops; nothing
    before the timed phase's first sample, so that set-up is not slowed. *)
let tick () =
  let last = !cur.last_speed in
  if last > 0. then
    for _ = 1 to min 10 (int_of_float ((Mono.now_s () -. last) /. Speed.every_s)) do
      speed_sample ()
    done

(** Run one operation and keep its interval as a latency of [key]: [f]
    returns whether it succeeded; an exception is a failure. Returns
    the interval. *)
let timed_op ~key f =
  let id = Atomic.fetch_and_add next_op 1 in
  let t0 = Mono.now_s () in
  let ok =
    Span.with_op id (fun () ->
        Span.with_ "op" (fun () ->
            try f ()
            with e ->
              if not (Atomic.exchange raised true) then
                Fmt.epr "op %d raised %s (later failures are only counted)@." id (Printexc.to_string e);
              false))
  in
  let t = { key; n = 1; t0; t1 = Mono.now_s () } in
  locked (fun () ->
      let r = !cur in
      r.attempted <- r.attempted + 1;
      if not ok then r.failed <- r.failed + 1;
      r.latencies <- t :: r.latencies);
  t

(** An op run on its own: its time is also a unit of throughput. Main
    domain only. *)
let op ~key f =
  let t = timed_op ~key f in
  locked (fun () -> !cur.work <- t :: !cur.work);
  tick ()

(** An op run beside others on a pool; the workload times the pass
    ({!work}). *)
let pooled_op ~key f = ignore (timed_op ~key f)

(** Batch accounting for ops timed elsewhere (the daemon's pipelined
    connection): [n] attempted, [failed] of them failed. *)
let ops_done ~n ~failed =
  locked (fun () ->
      let r = !cur in
      r.attempted <- r.attempted + n;
      r.failed <- r.failed + failed)

(** A latency of [key] timed by the workload over [t0, t1]. *)
let latency ~key ~t0 ~t1 =
  locked (fun () -> !cur.latencies <- { key; n = 1; t0; t1 } :: !cur.latencies)

(** A unit of work timed by the workload: [n] ops over [t0, t1]. Main
    domain only. *)
let work ~key ~n ~t0 ~t1 =
  locked (fun () -> !cur.work <- { key; n; t0; t1 } :: !cur.work);
  tick ()

(** Check work done between ops of the timed phase: its time is
    subtracted from the measured wall clock. Main domain only. *)
let untimed f =
  let t0 = Mono.now_s () in
  Fun.protect
    ~finally:(fun () ->
      let dt = Mono.now_s () -. t0 in
      locked (fun () -> !cur.excluded_s <- !cur.excluded_s +. dt))
    (fun () -> Span.with_ "check" f)

(** Root-span time on the main domain, for the coverage check. *)
let root f =
  let t0 = Mono.now_s () in
  Fun.protect
    ~finally:(fun () ->
      let dt = Mono.now_s () -. t0 in
      locked (fun () -> !cur.timed_root_s <- !cur.timed_root_s +. dt))
    f

let note_result (r : Analysis.result) =
  locked (fun () ->
      let c = !cur in
      Metrics.add_into ~into:c.engine r.Analysis.metrics;
      c.analyses <- c.analyses + 1;
      c.ig_nodes <- c.ig_nodes + r.Analysis.graph.Pointsto.Invocation_graph.n_nodes)

(* ------------------------------------------------------------------ *)
(* Calls into the layers                                              *)
(* ------------------------------------------------------------------ *)

let count_lines s =
  let n = ref 0 in
  String.iter (fun c -> if c = '\n' then incr n) s;
  !n

let parse ~file text =
  if Span.on () then count "cfront.lines" (float_of_int (count_lines text));
  Span.with_ "cfront.parse" (fun () -> Cfront.Parser.parse_string ~file text)

let lower ast =
  let p = Span.with_ "simplify.lower" (fun () -> Simple_ir.Simplify.program ast) in
  if Span.on () then begin
    count "simplify.programs" 1.;
    count "simplify.stmts" (float_of_int (Ir.fold_program (fun n _ -> n + 1) 0 p))
  end;
  p

let load ~file text = lower (parse ~file text)

let analyze p =
  let r = Span.with_ "analysis.analyze" (fun () -> Analysis.analyze p) in
  note_result r;
  r

(* ------------------------------------------------------------------ *)
(* Outputs                                                            *)
(* ------------------------------------------------------------------ *)

(** Digest of an analysis result covering every per-statement
    points-to set, the invocation-graph shape and the paper's Table
    3-5 statistics — the fields [bench/main.ml]'s [result_digest]
    covers. Two results with the same digest answer every query
    alike. *)
let result_digest (r : Analysis.result) =
  let module S = Pointsto.Stats in
  let stmts =
    Hashtbl.fold (fun id s acc -> (id, s) :: acc) r.Analysis.stmt_pts []
    |> List.sort compare
    |> List.map (fun (id, s) -> Fmt.str "s%d:%a" id Pointsto.Pts.pp s)
    |> String.concat "\n"
  in
  let i = S.indirect_stats r and c = S.categorize r and g = S.general r and ig = S.ig_stats r in
  Digest.to_hex
    (Digest.string
       (String.concat "|"
          [
            Fmt.str "%d %d %d %d %.2f | %d %d %d %d %d %d %d %d | %d %d %d %d %.1f %d"
              i.S.ind_refs i.S.scalar_rep i.S.to_stack i.S.to_heap i.S.avg c.S.from_lo
              c.S.from_gl c.S.from_fp c.S.from_sy c.S.to_lo c.S.to_gl c.S.to_fp c.S.to_sy
              g.S.stack_to_stack g.S.stack_to_heap g.S.heap_to_heap g.S.heap_to_stack
              g.S.avg_per_stmt g.S.max_per_stmt;
            Fmt.str "%d %d %d %d %d" ig.S.ig_nodes ig.S.call_sites ig.S.n_funcs ig.S.n_recursive
              ig.S.n_approximate;
            stmts;
          ]))

(** Force the lazy indexes of a result that concurrent query dispatch
    would race to build (what [ptan serve] does before serving). *)
let prime (r : Analysis.result) =
  let module Pts = Pointsto.Pts in
  let module Ig = Pointsto.Invocation_graph in
  Hashtbl.iter (fun _ s -> Pts.prime s) r.Analysis.stmt_pts;
  Option.iter Pts.prime r.Analysis.entry_output;
  Ig.fold
    (fun () n ->
      Option.iter Pts.prime n.Ig.stored_input;
      Option.iter Pts.prime n.Ig.stored_output)
    () r.Analysis.graph

(* ------------------------------------------------------------------ *)
(* Seeded choices                                                     *)
(* ------------------------------------------------------------------ *)

let rng seed salt = Random.State.make [| seed; salt |]

let pick st l = List.nth l (Random.State.int st (List.length l))

(** Statement ids of a function in program order. *)
let stmt_ids (fn : Ir.func) = List.rev (Ir.fold_func (fun acc s -> s.Ir.s_id :: acc) [] fn)

(** A scratch directory inside the working directory (the benchmark
    reads and writes only inside its checkout), emptied first. *)
let work_dir name =
  let root = ".perf-work" in
  if not (Sys.file_exists root) then Sys.mkdir root 0o755;
  let dir = Filename.concat root (Printf.sprintf "%s-%d" name (Unix.getpid ())) in
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path
  in
  if Sys.file_exists dir then rm dir;
  Sys.mkdir dir 0o755;
  (dir, fun () -> if Sys.file_exists dir then rm dir)

let write_file path text = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)
