(** [fixpoint]: cold whole-program analysis, what [ptan tables -j 2]
    does — parse, lower and analyze five generated programs, largest
    first, on a two-domain {!Pointsto.Pool}. An op is one program's
    analysis; the run repeats whole passes. The engine and map/unmap do
    nearly all the work. The first pass pays for domain start-up and
    heap growth, so set-up includes one untimed warm-up pass.

    An op's key is its program and a unit of work is a pass: the
    latencies are each program's median analysis time over the passes,
    the throughput that of the median pass (both scaled, see {!Speed}).
    With an even count of programs the median latency would be the mean
    of two programs' times, so the count is odd. *)

module Pool = Pointsto.Pool
module Mono = Pointsto.Mono

let jobs = 2

let programs =
  Corpus.[ (Deep, 3000); (Web, 2000); (Knot, 1500); (Deep, 1500); (Web, 1000) ]

let setup ~seed:_ =
  let progs =
    List.map (fun (shape, size) -> Corpus.generate shape size) programs
    |> List.stable_sort (fun a b ->
           compare (Harness.count_lines b.Corpus.text) (Harness.count_lines a.Corpus.text))
  in
  let n = List.length progs in
  let last = Array.make n None in
  let pool = Pool.create ~jobs in
  let pass () =
    let t_submit = Mono.now_s () in
    let task (i, (p : Corpus.program)) =
      let t_start = Mono.now_s () in
      Harness.pooled_op ~key:p.Corpus.name (fun () ->
          let r = Harness.analyze (Harness.load ~file:p.Corpus.name p.Corpus.text) in
          last.(i) <- Some r;
          r.Pointsto.Analysis.degraded = None);
      if Span.on () then begin
        Harness.count "pool.queue_wait_s" (t_start -. t_submit);
        Harness.count "pool.task_busy_s" (Mono.now_s () -. t_start)
      end
    in
    Harness.root (fun () ->
        Span.with_ "pool.map" (fun () ->
            ignore (Pool.map_result pool task (List.mapi (fun i p -> (i, p)) progs)));
        let t_done = Mono.now_s () in
        Harness.work ~key:"pass" ~n ~t0:t_submit ~t1:t_done;
        if Span.on () then Harness.count "pool.wall_s" (t_done -. t_submit))
  in
  pass ();
  let run ~until =
    pass ();
    while Mono.now_s () < until do
      pass ()
    done
  in
  let checks () =
    let pooled = Array.map (Option.map Harness.result_digest) last in
    List.iteri
      (fun i (p : Corpus.program) ->
        Option.iter (fun d -> Harness.output p.Corpus.name d) pooled.(i))
      progs;
    (* the same programs analyzed again on this domain alone *)
    let sequential =
      List.map
        (fun (p : Corpus.program) ->
          Some
            (Harness.result_digest
               (Pointsto.Analysis.analyze (Simple_ir.Simplify.of_string ~file:p.Corpus.name p.Corpus.text))))
        progs
    in
    [ ("fixpoint: pooled results = sequential re-run", Array.to_list pooled = sequential) ]
  in
  { Harness.run; checks; teardown = (fun () -> Pool.shutdown pool) }

let workload = { Harness.name = "fixpoint"; setup }
