(** [edit]: the write path of [--incremental]. Two generated programs
    (web-600, deep-800) each start from a primed incremental cache
    entry ([.pti]). An op edits the top of one function, re-analyzes
    with {!Pointsto.Persist.analyze_cached} [~incremental:true] and
    answers five [pts] queries about the edited function. Edits are
    cumulative and alternate between the programs. A third of them are
    comments (the rekey path), a third [gv0 = gv0 + k;] and a third
    [gp0 = &gvK;]; kinds cycle with each program's edit count, so any
    prefix holds each kind equally often.

    What an edit costs depends on how many functions it makes dirty:
    on deep-800 from 16 to 400 ms. A seeded shuffle of the edited
    functions would let the seed decide how many expensive edits a run
    makes. Instead each program's functions, ranked by their number of
    transitive callers, are visited in a fixed stride order, so every
    window of it samples cheap and expensive edits alike. The seed draws
    only the constants.

    The run goes in laps of {!lap_steps} edits. Each lap starts again
    from the generated programs and their primed cache entries, with the
    seed's constants drawn afresh, so every lap makes the same edits on
    the same cache state. An op's key is its place in the lap. Putting
    a lap back is not timed.

    Recursive functions are never edited: a pointer edit at the top of
    [f1_0], the self-recursive function of web-600, makes the
    incremental re-analysis differ from a cold one (it keeps a definite
    [p -> ga0_tail] where the cold run has [p -> {ga0_tail, ga1_tail}]
    as possible). The output checks would fail every run, so the
    workload stays off that path until the engine is fixed. *)

module Analysis = Pointsto.Analysis
module Persist = Pointsto.Persist
module Mono = Pointsto.Mono
module Ir = Simple_ir.Ir

let programs = Corpus.[ (Web, 600); (Deep, 800) ]

(** Edits per lap, alternating between the programs: a run of 20 s
    makes four to five laps. *)
let lap_steps = 36

(** Cross-check every [check_every]th edit of a lap (and the run's
    last) against a cold analysis of the same text. *)
let check_every = 6

(** Edit steps whose outputs the golden file records (seed 11), all in
    the first lap. *)
let golden_steps = 30

type prog = {
  path : string;
  funcs : string array;  (** edit sites, in visiting order *)
  n_gv : int;  (** [gv0 .. gv(n_gv-1)] exist at this size *)
  base : string;  (** the generated text *)
  entry : string;  (** the incremental cache entry's file *)
  primed : string;  (** its bytes once primed *)
  mutable text : string;
}

let count_prefixed text prefix =
  List.length
    (List.filter
       (fun l -> String.starts_with ~prefix l)
       (String.split_on_char '\n' text))

(** Insert [line] at the top of [fn]'s body: before its first
    statement, after any lines earlier edits put there. *)
let insert text ~fn ~line =
  let len = String.length text in
  let find_from sub from =
    let n = String.length sub in
    let rec matches i j = j = n || (text.[i + j] = sub.[j] && matches i (j + 1)) in
    let rec go i = if i + n > len then raise Not_found else if matches i 0 then i else go (i + 1) in
    go from
  in
  let header = find_from (Printf.sprintf "int %s(int n, int *p) {" fn) 0 in
  let at = find_from "    r = n;\n" header in
  String.sub text 0 at ^ line ^ String.sub text at (len - at)

let setup ~seed =
  let dir, cleanup = Harness.work_dir "edit" in
  let progs =
    List.map
      (fun (shape, size) ->
        let g = Corpus.generate shape size in
        let path = Filename.concat dir (g.Corpus.name ^ ".c") in
        Harness.write_file path g.Corpus.text;
        let ir = Harness.load ~file:path g.Corpus.text in
        let recursive = Corpus.recursive_funcs ir and callers = Corpus.caller_counts ir in
        let ranked =
          Corpus.generated_funcs ir
          |> List.filter_map (fun (f : Ir.func) ->
                 if List.mem f.Ir.fn_name recursive then None else Some f.Ir.fn_name)
          |> List.stable_sort (fun a b -> compare (callers a) (callers b))
          |> Array.of_list
        in
        let funcs = Array.map (Array.get ranked) (Corpus.stride_order (Array.length ranked)) in
        let r, _ =
          Span.with_ "persist.analyze_cached" (fun () ->
              Persist.analyze_cached ~cache_dir:dir ~incremental:true path)
        in
        Harness.note_result r;
        let entry =
          Persist.cache_file_incr ~cache_dir:dir ~source:path ~opts:Pointsto.Options.default ~entry:"main"
        in
        {
          path;
          funcs;
          n_gv = count_prefixed g.Corpus.text "int gv";
          base = g.Corpus.text;
          entry;
          primed = In_channel.with_open_bin entry In_channel.input_all;
          text = g.Corpus.text;
        })
      programs
    |> Array.of_list
  in
  let st = ref (Harness.rng seed 2) in
  let step = ref 0 in
  let restart () =
    Array.iter
      (fun p ->
        p.text <- p.base;
        Harness.write_file p.path p.base;
        Harness.write_file p.entry p.primed)
      progs;
    st := Harness.rng seed 2
  in
  (* text -> digests of the incremental results sampled for it *)
  let sampled = Hashtbl.create 16 in
  let last = ref None in
  let edit () =
    let i = !step in
    incr step;
    let j = i mod lap_steps in
    let pi = j mod Array.length progs and k = j / Array.length progs in
    let p = progs.(pi) in
    let fn = p.funcs.(k mod Array.length p.funcs) in
    let line =
      match k mod 3 with
      | 0 -> Printf.sprintf "    /* edit %d */\n" j
      | 1 -> Printf.sprintf "    gv0 = gv0 + %d;\n" (1 + Random.State.int !st 97)
      | _ -> Printf.sprintf "    gp0 = &gv%d;\n" (Random.State.int !st p.n_gv)
    in
    let result = ref None in
    Harness.op ~key:(string_of_int j) (fun () ->
        p.text <- insert p.text ~fn ~line;
        Harness.write_file p.path p.text;
        let r, hit =
          Span.with_ "persist.analyze_cached" (fun () ->
              Persist.analyze_cached ~cache_dir:dir ~incremental:true p.path)
        in
        result := Some r;
        let m = r.Analysis.metrics in
        let n_funcs = List.length r.Analysis.prog.Ir.funcs in
        if hit then Harness.count "persist.rekey" 1. else Harness.note_result r;
        Harness.count "persist.edits" 1.;
        Harness.count "persist.incr_dirty" (float_of_int m.Pointsto.Metrics.incr_funcs_dirty);
        Harness.count "persist.incr_reused" (float_of_int m.Pointsto.Metrics.incr_funcs_reused);
        Harness.count "persist.clean_share"
          (float_of_int (n_funcs - m.Pointsto.Metrics.incr_funcs_dirty) /. float_of_int n_funcs);
        let ids = match Ir.find_func r.Analysis.prog fn with Some f -> Harness.stmt_ids f | None -> [] in
        let first = List.hd ids and final = List.nth ids (List.length ids - 1) in
        let queries =
          [
            (final, "lp");
            (final, "p");
            (final, "gp0");
            (first, "lp");
            (final, Printf.sprintf "gp%d" (j mod 4));
          ]
        in
        let answers =
          List.map
            (fun (sid, var) ->
              Span.with_ "query.answer" (fun () ->
                  Alias.Query.answer r (Alias.Query.Pts_q { func = fn; stmt = sid; var })))
            queries
        in
        if i < golden_steps then
          Harness.output (Printf.sprintf "step-%d" i)
            (Digest.to_hex
               (Digest.string
                  (String.concat "\n"
                     (List.map (function Ok a -> "ok " ^ a | Error e -> "error " ^ e) answers))));
        r.Analysis.degraded = None && List.for_all Result.is_ok answers);
    (pi, !result)
  in
  let sample pi r =
    let text = progs.(pi).text in
    Hashtbl.replace sampled text
      (Harness.result_digest r :: Option.value ~default:[] (Hashtbl.find_opt sampled text))
  in
  let run ~until =
    let more = ref true in
    while !more do
      if !step > 0 && !step mod lap_steps = 0 then Harness.untimed restart;
      (match Harness.root edit with
      | pi, Some r when !step mod check_every = 0 ->
          Harness.untimed (fun () -> sample pi r);
          last := None
      | pi, Some r -> last := Some (pi, r)
      | _, None -> ());
      more := !step < lap_steps || Mono.now_s () < until
    done;
    Option.iter (fun (pi, r) -> Harness.untimed (fun () -> sample pi r)) !last;
    last := None;
    Array.iter
      (fun p ->
        if Sys.file_exists p.entry then begin
          Harness.count "persist.entries" 1.;
          Harness.count "persist.entry_bytes" (float_of_int (Unix.stat p.entry).Unix.st_size)
        end)
      progs
  in
  (* a text the laps reach more than once must give the same result
     every time, and that of a cold analysis *)
  let checks () =
    let ok =
      Hashtbl.fold
        (fun text digests ok ->
          let cold = Harness.result_digest (Analysis.of_string text) in
          ok && List.for_all (String.equal cold) digests)
        sampled true
    in
    let n = Hashtbl.fold (fun _ d n -> n + List.length d) sampled 0 in
    [
      ( Printf.sprintf "edit: incremental = cold analysis (%d sampled edits of %d texts)" n
          (Hashtbl.length sampled),
        ok && n > 0 );
    ]
  in
  { Harness.run; checks; teardown = cleanup }

let workload = { Harness.name = "edit"; setup }
