(** [serve]: the resident daemon. {!Pointsto.Serve.run} runs in-process
    on a second domain, listening on a Unix socket with [jobs = 1]; its
    corpus is the paper's 18 benchmarks plus web/deep/knot-1000,
    analyzed and primed in set-up. Two connections come from the main
    domain, in closed-loop cycles: [batch] sends a window of
    {!batch_lines} lines, [interactive] then sends one request, and the
    client waits for every reply before the next cycle. The latency
    sample is a cycle's round trip, from the window's first byte sent to
    the last reply read: what a script pumping the daemon waits for a
    window, and an editor for a request queued behind one. Requests are
    a seeded mix of {!mix_size} valid [pts], [calls] and [alias]
    queries; every reply is compared with the answer {!Alias.Query.run}
    gives directly. After set-up the engine is idle: framing, batching
    and the query layer do the work.

    A cycle's requests repeat every {!mix_size} cycles, about every
    half second; an op's key is the cycle's place in that period, and a
    run of 20 s repeats each 30 to 45 times. The interactive round trip
    alone is not the sample: it depends on how the daemon's reads happen
    to split the window (the request is sometimes answered a tenth of a
    millisecond after it is sent, when the window is read in two parts),
    so it measures that split, not the daemon.

    The cycles are lock-step on purpose. An interactive connection on
    its own clock lands on an idle or a busy daemon, and how often it
    does depends on the speed ratio of the two domains; its median
    latency then jumps between the two cases from run to run. Two
    windows in flight instead merge into one batch of either one or two
    windows, whichever the start-up happened to give. *)

module Analysis = Pointsto.Analysis
module Serve = Pointsto.Serve
module Mono = Pointsto.Mono
module Ir = Simple_ir.Ir

(** Requests the batch connection sends per cycle. With the interactive
    request, a cycle must stay within the daemon's admission limit
    ({!Pointsto.Serve.default_config}'s [queue_max], 1024 per batch), or
    the excess is answered [busy]. Windows of 256 lines gave quartile
    spreads of 0.04 to 0.15 over eight to ten runs, against 0.02 for 64:
    the longer the window, the more often the daemon reads it in two
    parts and answers it in two batches, in a share that changes from
    run to run. *)
let batch_lines = 64

(** Distinct requests the connections cycle through. *)
let mix_size = 1024

(** Replies per connection whose digest the golden file records (seed 11). *)
let golden_replies = 1024

(** What the daemon does to an answer to keep it on one line. *)
let sanitize = String.map (function '\n' | '\r' -> ' ' | c -> c)

(** Every valid query about one corpus entry: [pts] of each pointer
    variable at a function's first and last statement, [calls] at each
    call site, [alias] of pointer pairs at the last statement. *)
let candidates name (r : Analysis.result) =
  List.concat_map
    (fun (fn : Ir.func) ->
      match Harness.stmt_ids fn with
      | [] -> []
      | first :: _ as ids ->
          let final = List.nth ids (List.length ids - 1) in
          let ptrs =
            List.filter_map
              (fun (v, ty) -> if Cfront.Ctype.is_pointer ty then Some v else None)
              (fn.Ir.fn_params @ fn.Ir.fn_locals)
          in
          let f = fn.Ir.fn_name in
          List.concat_map
            (fun v -> [ Printf.sprintf "pts %s s%d %s" f first v; Printf.sprintf "pts %s s%d %s" f final v ])
            ptrs
          @ List.map (Printf.sprintf "calls s%d") (Corpus.call_ids fn)
          @
          match ptrs with
          | a :: b :: _ -> [ Printf.sprintf "alias %s s%d %s %s" f final a b ]
          | _ -> [])
    r.Analysis.prog.Ir.funcs
  |> List.filter_map (fun q ->
         match Alias.Query.run r q with
         | Ok a -> Some (Printf.sprintf "q %s %s" name q, "ok " ^ sanitize a)
         | Error _ -> None)

type conn = { fd : Unix.file_descr; pending : Buffer.t; lines : string Queue.t }

let connect path =
  let rec go tries =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) when tries > 0 ->
        Unix.close fd;
        Unix.sleepf 0.01;
        go (tries - 1)
  in
  { fd = go 500; pending = Buffer.create 65536; lines = Queue.create () }

let send c s =
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring c.fd s off (n - off)) in
  go 0

let chunk = Bytes.create 65536

(** Read what is available and queue the complete reply lines. *)
let receive c =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> failwith "daemon closed the connection"
  | n ->
      let start = ref 0 in
      for i = 0 to n - 1 do
        if Bytes.get chunk i = '\n' then begin
          Buffer.add_subbytes c.pending chunk !start (i - !start);
          Queue.push (Buffer.contents c.pending) c.lines;
          Buffer.clear c.pending;
          start := i + 1
        end
      done;
      Buffer.add_subbytes c.pending chunk !start (n - !start)

(** Reply digests of one connection's first {!golden_replies} replies. *)
type stream = { key : string; buf : Buffer.t; mutable seen : int }

let stream key = { key; buf = Buffer.create 65536; seen = 0 }

let note s reply =
  if s.seen < golden_replies then begin
    Buffer.add_string s.buf reply;
    Buffer.add_char s.buf '\n';
    s.seen <- s.seen + 1;
    if s.seen = golden_replies then
      Harness.output s.key (Digest.to_hex (Digest.string (Buffer.contents s.buf)))
  end

let setup ~seed =
  let dir, cleanup = Harness.work_dir "serve" in
  let corpus =
    Corpus.paper_benchmarks ()
    @ List.map (fun s -> Corpus.generate s 1000) Corpus.[ Web; Deep; Knot ]
  in
  let entries =
    List.map
      (fun (p : Corpus.program) ->
        let r = Harness.analyze (Harness.load ~file:p.Corpus.name p.Corpus.text) in
        Harness.prime r;
        (p.Corpus.name, r))
      corpus
  in
  let st = Harness.rng seed 4 in
  let all = Array.of_list (List.concat_map (fun (n, r) -> candidates n r) entries) in
  let mix = Array.init mix_size (fun _ -> all.(Random.State.int st (Array.length all))) in
  let table = Hashtbl.create 32 in
  List.iter (fun (n, r) -> Hashtbl.replace table n r) entries;
  let handler =
    {
      Serve.h_files = List.map fst entries;
      h_answer =
        (fun ~file ~query ->
          match Hashtbl.find_opt table file with
          | None -> Serve.Ans_error ("unknown file '" ^ file ^ "'")
          | Some r -> (
              match Span.with_ "query.answer" (fun () -> Alias.Query.run r query) with
              | Ok a -> if r.Analysis.degraded = None then Serve.Ans a else Serve.Ans_degraded a
              | Error e -> Serve.Ans_error e));
      h_reload = None;
      h_paths = [];
    }
  in
  let path = Filename.concat dir "d.sock" in
  let stop = Atomic.make false in
  let daemon =
    Domain.spawn (fun () ->
        Span.with_ "serve.run" (fun () ->
            Serve.run ~stop { Serve.default_config with Serve.jobs = 1 } handler (Serve.Socket path)))
  in
  let inter = connect path and batch = connect path in
  let inter_log = stream "interactive" and batch_log = stream "batch" in
  let next_i = ref 0 and next_b = ref (mix_size / 2) in
  let mismatches = ref 0 in
  let reply log (_, expect) got =
    note log got;
    if not (String.equal got expect) then incr mismatches;
    Harness.ops_done ~n:1 ~failed:(if String.starts_with ~prefix:"ok " got then 0 else 1)
  in
  (* one cycle: a window on [batch], then one request on [interactive],
     then every reply *)
  let cycle () =
    let window = Queue.create () and b = Buffer.create (batch_lines * 48) in
    for _ = 1 to batch_lines do
      let q = mix.(!next_b mod mix_size) in
      incr next_b;
      Queue.push q window;
      Buffer.add_string b (fst q);
      Buffer.add_char b '\n'
    done;
    let q = mix.(!next_i mod mix_size) in
    incr next_i;
    send batch (Buffer.contents b);
    send inter (fst q ^ "\n");
    let answered = ref false in
    while not (!answered && Queue.is_empty window) do
      let ready, _, _ = Unix.select [ inter.fd; batch.fd ] [] [] 5.0 in
      if ready = [] then failwith "daemon stopped answering";
      if List.memq inter.fd ready then receive inter;
      if List.memq batch.fd ready then receive batch;
      Option.iter
        (fun got ->
          answered := true;
          reply inter_log q got)
        (Queue.take_opt inter.lines);
      while not (Queue.is_empty batch.lines) do
        reply batch_log (Queue.take window) (Queue.take batch.lines)
      done
    done
  in
  let run ~until =
    Harness.root @@ fun () ->
    Span.with_ "serve.client" @@ fun () ->
    while !next_i < mix_size || Mono.now_s () < until do
      let key = string_of_int (!next_i mod mix_size) in
      let t0 = Mono.now_s () in
      cycle ();
      let t1 = Mono.now_s () in
      Harness.latency ~key ~t0 ~t1;
      Harness.work ~key ~n:(batch_lines + 1) ~t0 ~t1
    done
  in
  let checks () =
    [ (Printf.sprintf "serve: %d replies = direct Query.run" (!next_i + !next_b - (mix_size / 2)), !mismatches = 0) ]
  in
  let teardown () =
    Unix.close inter.fd;
    Unix.close batch.fd;
    Atomic.set stop true;
    let stats = Domain.join daemon in
    Harness.count "serve.requests" (float_of_int stats.Serve.s_requests);
    Harness.count "serve.batches" (float_of_int stats.Serve.s_batches);
    cleanup ()
  in
  { Harness.run; checks; teardown }

let workload = { Harness.name = "serve"; setup }
