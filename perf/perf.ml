(** The benchmark's command line. See README.md in this directory.

    {v
    perf.exe run --workload W [--seed S] [--seconds N] [--trace 0|1] [--out F.json]
    perf.exe all [--seed S] [--seconds N] [--trace 0|1] [--out-dir DIR]
    perf.exe compare PARENT_DIR CHANGE_DIR [--bench BENCHMARK.json]
    perf.exe check-names [BENCHMARK.json]
    perf.exe golden
    v} *)

open Cmdliner

let trace_file ~out name =
  let base = "perf-trace-" ^ name ^ ".json" in
  match out with Some f -> Filename.concat (Filename.dirname f) base | None -> base

let run_one name seed seconds trace out =
  match Run.find name with
  | None ->
      Fmt.epr "unknown workload %s (expected one of: %s)@." name (String.concat ", " Spec.workloads);
      2
  | Some w ->
      let seconds = float_of_int seconds in
      let r =
        if trace then Run.traced w ~seed ~seconds ~trace_out:(trace_file ~out name)
        else Run.untraced w ~seed ~seconds
      in
      Run.print r;
      Option.iter
        (fun f ->
          Out_channel.with_open_bin f (fun oc -> Out_channel.output_string oc (Json.to_string (Run.file_json r))))
        out;
      print_endline (Json.to_string (Run.summary_json r));
      if Run.correct r then 0 else 1

(** Each workload in its own process, so peak heap is per workload. *)
let run_all seed seconds trace out_dir =
  if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
  let results =
    List.map
      (fun name ->
        let out = Filename.concat out_dir (Printf.sprintf "%s-seed%d%s.json" name seed (if trace then "-trace" else "")) in
        let args =
          [|
            Sys.executable_name; "run"; "--workload"; name; "--seed"; string_of_int seed; "--seconds";
            string_of_int seconds; "--trace"; (if trace then "1" else "0"); "--out"; out;
          |]
        in
        if Sys.file_exists out then Sys.remove out;
        let pid = Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout Unix.stderr in
        let code = match snd (Unix.waitpid [] pid) with Unix.WEXITED c -> c | _ -> 255 in
        (name, code, if Sys.file_exists out then Some (Json.of_file out) else None))
      Spec.workloads
  in
  Fmt.pr "@.%-9s %-28s %16s  %s@." "workload" "metric" "value" "unit";
  List.iter
    (fun (name, code, j) ->
      match j with
      | None -> Fmt.pr "%-9s (no result, exit %d)@." name code
      | Some j ->
          Fmt.pr "%-9s %-28s %16s  %s@." name "correct"
            (string_of_bool (Json.get "correct" j = Json.Bool true))
            (Printf.sprintf "exit %d" code);
          (match Json.get "metrics" j with
          | Json.Obj kvs ->
              List.iter
                (fun (m, v) ->
                  Fmt.pr "%-9s %-28s %16.6g  %s@." name m
                    (Json.to_num (Json.get "value" v))
                    (Json.to_str (Json.get "unit" v)))
                kvs
          | _ -> ()))
    results;
  if List.for_all (fun (_, code, _) -> code = 0) results then 0 else 1

(** Name-drift check: the tables in {!Spec} against BENCHMARK.json. *)
let check_names file =
  let j = Json.of_file file in
  let errors = ref 0 in
  let diff what ours theirs =
    let show = String.concat ", " in
    let missing = List.filter (fun x -> not (List.mem x theirs)) ours in
    let extra = List.filter (fun x -> not (List.mem x ours)) theirs in
    if missing <> [] then (incr errors; Fmt.pr "%s: in the harness, not in %s: %s@." what file (show missing));
    if extra <> [] then (incr errors; Fmt.pr "%s: in %s, not in the harness: %s@." what file (show extra))
  in
  let names key = List.map (fun x -> Json.to_str (Json.get "name" x)) (Json.to_list (Json.get key j)) in
  diff "workloads" Spec.workloads (names "workloads");
  let triples key =
    List.map
      (fun x ->
        String.concat " "
          [ Json.to_str (Json.get "name" x); Json.to_str (Json.get "unit" x); Json.to_str (Json.get "better" x) ])
      (Json.to_list (Json.get key j))
  in
  let ours l =
    List.map (fun (m : Spec.metric) -> String.concat " " [ m.Spec.name; m.Spec.unit_; Spec.better_name m.Spec.better ]) l
  in
  diff "end_to_end" (ours Spec.end_to_end) (triples "end_to_end");
  diff "per_layer" (ours Spec.per_layer) (triples "per_layer");
  if !errors = 0 then begin
    Fmt.pr "%s: %d workloads, %d end-to-end and %d per-layer metrics match the harness@." file
      (List.length Spec.workloads) (List.length Spec.end_to_end) (List.length Spec.per_layer);
    0
  end
  else 1

(** Re-record the golden outputs: every workload once with the golden
    seed, for {!Run.golden_seconds}. Run after a change that is meant to
    alter [ptan]'s answers. *)
let golden () =
  List.iter
    (fun (w : Harness.workload) ->
      Harness.reset ();
      let inst = w.Harness.setup ~seed:Run.golden_seed in
      let ph = Run.timed_phase inst ~seconds:Run.golden_seconds in
      let checks = Fun.protect ~finally:inst.Harness.teardown inst.Harness.checks in
      List.iter (fun (n, ok) -> if not ok then Fmt.failwith "%s: check failed: %s" w.Harness.name n) checks;
      let file = Run.golden_file w.Harness.name in
      let lines = List.rev_map (fun (k, d) -> k ^ " " ^ d ^ "\n") ph.Run.record.Harness.outputs in
      Out_channel.with_open_bin file (fun oc -> List.iter (Out_channel.output_string oc) lines);
      Fmt.pr "%s: %d outputs -> %s@." w.Harness.name (List.length lines) file)
    Run.workloads;
  0

let seed = Arg.(value & opt int Run.golden_seed & info [ "seed" ] ~docv:"S" ~doc:"Workload seed.")

let seconds =
  Arg.(value & opt int 10 & info [ "seconds" ] ~docv:"N" ~doc:"Length of the timed phase.")

let trace =
  Arg.(
    value
    & opt (enum [ ("0", false); ("1", true) ]) false
    & info [ "trace" ] ~docv:"0|1"
        ~doc:"1: a traced run, reporting the per-layer metrics and writing perf-trace-W.json.")

let run_cmd =
  let workload =
    Arg.(required & opt (some string) None & info [ "workload" ] ~docv:"W" ~doc:"Workload to run.")
  in
  let out = Arg.(value & opt (some string) None & info [ "out" ] ~docv:"F.json" ~doc:"Write the run's result file.") in
  Cmd.v (Cmd.info "run" ~doc:"Run one workload.")
    Term.(const run_one $ workload $ seed $ seconds $ trace $ out)

let all_cmd =
  let out_dir =
    Arg.(value & opt string "perf-runs" & info [ "out-dir" ] ~docv:"DIR" ~doc:"Where the result files go.")
  in
  Cmd.v (Cmd.info "all" ~doc:"Run every workload, each in its own process.")
    Term.(const run_all $ seed $ seconds $ trace $ out_dir)

let compare_cmd =
  let dir n doc = Arg.(required & pos n (some dir) None & info [] ~docv:doc) in
  let bench =
    Arg.(value & opt file "BENCHMARK.json" & info [ "bench" ] ~docv:"FILE" ~doc:"Bounds file.")
  in
  Cmd.v (Cmd.info "compare" ~doc:"Compare two sets of run files.")
    Term.(
      const (fun bench p c -> Compare.run ~bench p c) $ bench $ dir 0 "PARENT_DIR" $ dir 1 "CHANGE_DIR")

let check_names_cmd =
  let file = Arg.(value & pos 0 file "BENCHMARK.json" & info [] ~docv:"FILE") in
  Cmd.v (Cmd.info "check-names" ~doc:"Check the harness tables against BENCHMARK.json.")
    Term.(const check_names $ file)

let golden_cmd =
  Cmd.v (Cmd.info "golden" ~doc:"Re-record perf/golden/ with the golden seed.") Term.(const golden $ const ())

let () =
  exit
    (Cmd.eval'
       (Cmd.group (Cmd.info "perf" ~doc:"Seeded performance benchmark for ptan.")
          [ run_cmd; all_cmd; compare_cmd; check_names_cmd; golden_cmd ]))
