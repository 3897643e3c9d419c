(** [demand]: one query answered cold the way [ptan query --demand]
    does — {!Alias.Demand_driver.analyze} builds the seed function's
    slice and runs the engine over it, then {!Alias.Query.answer} reads
    the row. Two generated programs (web-1000, deep-1500) are parsed,
    lowered and given their Andersen pre-pass
    ({!Alias.Demand_driver.prepare}) in set-up. Every generated
    function is the seed of one query per round, in a fixed order that
    strides through each program and alternates between them. The seed
    draws each query's kind ([pts] or [calls]), statement and variable.
    A query costs from a quarter of a millisecond to about 60 ms. An
    op's key is its place in the round: a run of 20 s asks every query
    of the round three to five times. *)

module Analysis = Pointsto.Analysis
module Mono = Pointsto.Mono
module Ir = Simple_ir.Ir
module Query = Alias.Query
module Driver = Alias.Demand_driver

let programs = Corpus.[ (Web, 1000); (Deep, 1500) ]

type prog = { ir : Ir.program; driver : Driver.t }

(** One query: [(program index, seed function, query text)]. *)
let draw st (pi, (fn : Ir.func)) =
  let calls = Corpus.call_ids fn and vars = Corpus.pointer_vars fn in
  let q =
    if calls <> [] && (vars = [] || Random.State.bool st) then
      Printf.sprintf "calls s%d" (Harness.pick st calls)
    else
      Printf.sprintf "pts %s s%d %s" fn.Ir.fn_name (Harness.pick st (Harness.stmt_ids fn))
        (Harness.pick st vars)
  in
  (pi, fn.Ir.fn_name, q)

(** Digest of a function's per-statement rows. *)
let fn_rows r fn =
  Harness.stmt_ids fn
  |> List.map (fun id -> Fmt.str "s%d:%a" id Pointsto.Pts.pp (Analysis.pts_at r id))
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let setup ~seed =
  let progs =
    Array.of_list
      (List.map
         (fun (shape, size) ->
           let g = Corpus.generate shape size in
           let ir = Harness.load ~file:g.Corpus.name g.Corpus.text in
           { ir; driver = Span.with_ "demand.prepare" (fun () -> Driver.prepare ir) })
         programs)
  in
  (* a fixed stride through each program's functions, alternating
     between the programs: any prefix samples every call-DAG layer *)
  let seeds =
    let per_prog =
      Array.map
        (fun p ->
          let fs = Array.of_list (Corpus.generated_funcs p.ir) in
          Array.map (Array.get fs) (Corpus.stride_order (Array.length fs)))
        progs
    in
    let longest = Array.fold_left (fun acc a -> max acc (Array.length a)) 0 per_prog in
    List.concat
      (List.init longest (fun k ->
           List.concat
             (List.mapi
                (fun pi fs -> if k < Array.length fs then [ (pi, fs.(k)) ] else [])
                (Array.to_list per_prog))))
    |> Array.of_list
  in
  let n = Array.length seeds in
  let round = Array.map (draw (Harness.rng seed 3)) seeds in
  let step = ref 0 in
  let answers = Hashtbl.create 256 in
  let rows = Hashtbl.create 256 in
  let consistent = ref true in
  let query () =
    let i = !step in
    incr step;
    let pi, fn, line = round.(i mod n) in
    let p = progs.(pi) in
    let result = ref None in
    Harness.op ~key:(string_of_int (i mod n)) (fun () ->
        let r = Span.with_ "demand.analyze" (fun () -> Driver.analyze p.driver ~seed:fn) in
        result := Some r;
        Harness.note_result r;
        let m = r.Analysis.metrics in
        Harness.count "demand.queries" 1.;
        Harness.count "demand.slice_funcs" (float_of_int m.Pointsto.Metrics.demand_slice_funcs);
        Harness.count "demand.funcs_total" (float_of_int m.Pointsto.Metrics.demand_funcs_total);
        Harness.count "demand.skipped" (float_of_int m.Pointsto.Metrics.demand_skipped);
        Harness.count "demand.replays" (float_of_int m.Pointsto.Metrics.demand_replays);
        Harness.count "demand.fallbacks" (float_of_int m.Pointsto.Metrics.demand_fallbacks);
        let ans = Span.with_ "query.answer" (fun () -> Query.run r line) in
        let text = match ans with Ok a -> "ok " ^ a | Error e -> "error " ^ e in
        if i < n then Harness.output (Printf.sprintf "q-%d" i) (Digest.to_hex (Digest.string text));
        (match Hashtbl.find_opt answers (pi, line) with
        | Some prev when not (String.equal prev text) -> consistent := false
        | _ -> Hashtbl.replace answers (pi, line) text);
        Result.is_ok ans);
    (pi, fn, !result)
  in
  (* the seed function's rows, compared with an exhaustive run after
     timing — once per seed function *)
  let one () =
    match Harness.root query with
    | pi, fn, Some r when not (Hashtbl.mem rows (pi, fn)) ->
        Harness.untimed (fun () ->
            Hashtbl.replace rows (pi, fn) (fn_rows r (Option.get (Ir.find_func progs.(pi).ir fn))))
    | _ -> ()
  in
  (* at least one whole round, so that every key has a latency *)
  let run ~until =
    for _ = 1 to n do
      one ()
    done;
    while Mono.now_s () < until do
      one ()
    done
  in
  let checks () =
    let exhaustive = Array.map (fun p -> Analysis.analyze p.ir) progs in
    let answers_ok =
      Hashtbl.fold
        (fun (pi, line) text ok ->
          ok
          && String.equal text
               (match Query.run exhaustive.(pi) line with Ok a -> "ok " ^ a | Error e -> "error " ^ e))
        answers true
    in
    let rows_ok =
      Hashtbl.fold
        (fun (pi, fn) digest ok ->
          ok && String.equal digest (fn_rows exhaustive.(pi) (Option.get (Ir.find_func progs.(pi).ir fn))))
        rows true
    in
    [
      ( Printf.sprintf "demand: %d answers = exhaustive, repeats agree" (Hashtbl.length answers),
        answers_ok && !consistent );
      (Printf.sprintf "demand: %d seed-function rows = exhaustive" (Hashtbl.length rows), rows_ok);
    ]
  in
  { Harness.run; checks; teardown = ignore }

let workload = { Harness.name = "demand"; setup }
