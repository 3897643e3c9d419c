(** Tests for the robustness layer: {!Pointsto.Guard} budgets and
    cooperative cancellation, graceful degradation in
    {!Pointsto.Analysis}, {!Pointsto.Pool} task timeouts,
    {!Pointsto.Fault} injection, and the corrupt-entry quarantine in
    {!Pointsto.Persist} — including the every-97th-byte truncation and
    bit-flip fuzz of a persisted livc result.

    The central contract under test is the soundness of degradation:
    a budget-exhausted analysis falls back to the widened
    (context-insensitive, possible-only) semantics, and the degraded
    tables must contain every points-to pair of the full-precision run
    (certainty erased) — resource exhaustion trades precision, never
    soundness. *)

open Test_util
module Guard = Pointsto.Guard
module Fault = Pointsto.Fault
module Pool = Pointsto.Pool
module Persist = Pointsto.Persist
module Options = Pointsto.Options
module M = Pointsto.Metrics

let bench_dir = if Sys.file_exists "benchmarks" then "benchmarks" else "../benchmarks"
let bench name = Filename.concat bench_dir (name ^ ".c")

let bench_names =
  [
    "genetic"; "dry"; "clinpack"; "config"; "toplev"; "compress"; "mway"; "hash"; "misr";
    "xref"; "stanford"; "fixoutput"; "sim"; "travel"; "csuite"; "msc"; "lws"; "livc";
  ]

let temp_dir () =
  let d = Filename.temp_file "ptan-robust" "" in
  Sys.remove d;
  Sys.mkdir d 0o755;
  d

let in_temp f =
  let dir = temp_dir () in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Guard                                                              *)
(* ------------------------------------------------------------------ *)

let expect_trip f =
  match f () with
  | exception Guard.Exhausted t -> t
  | _ -> Alcotest.fail "expected Guard.Exhausted"

let guard_tests =
  [
    case "an unlimited guard passes every check" (fun () ->
        let g = Guard.unlimited () in
        Alcotest.(check bool) "not limited" false (Guard.limited g);
        Alcotest.(check bool) "no budget" true (Guard.is_no_budget (Guard.budget g));
        Guard.check g;
        Guard.check_fuel g 1_000_000;
        Guard.check_size g 1_000_000;
        Guard.check_nodes g 1_000_000);
    case "fuel trips strictly above the allowance, with diagnostics" (fun () ->
        let g = Guard.make { Guard.no_budget with Guard.b_fuel = Some 3 } in
        Alcotest.(check bool) "limited" true (Guard.limited g);
        Guard.check_fuel g 3;
        Guard.at g "looper";
        let t = expect_trip (fun () -> Guard.check_fuel g 4) in
        Alcotest.(check string) "reason" "fuel" (Guard.reason_name t.Guard.t_reason);
        Alcotest.(check (option string)) "where" (Some "looper") t.Guard.t_where;
        Alcotest.(check bool) "elapsed recorded" true (t.Guard.t_after_ms >= 0.));
    case "deadline trips once the clock passes it" (fun () ->
        let g = Guard.make { Guard.no_budget with Guard.b_deadline_ms = Some 1. } in
        Unix.sleepf 0.005;
        let t = expect_trip (fun () -> Guard.check g) in
        Alcotest.(check string) "reason" "deadline" (Guard.reason_name t.Guard.t_reason);
        Alcotest.(check bool) "after >= 1ms" true (t.Guard.t_after_ms >= 1.));
    case "size and node ceilings trip with distinct reasons" (fun () ->
        let g = Guard.make { Guard.no_budget with Guard.b_max_locs = Some 10 } in
        Guard.check_size g 10;
        Guard.check_nodes g 10;
        let ts = expect_trip (fun () -> Guard.check_size g 11) in
        Alcotest.(check string) "set-size" "set-size" (Guard.reason_name ts.Guard.t_reason);
        let tn = expect_trip (fun () -> Guard.check_nodes g 11) in
        Alcotest.(check string) "ig-nodes" "ig-nodes" (Guard.reason_name tn.Guard.t_reason));
    case "widened keeps the deadline, drops fuel and size ceilings" (fun () ->
        let g =
          Guard.make
            {
              Guard.b_deadline_ms = Some 60_000.;
              Guard.b_fuel = Some 1;
              Guard.b_max_locs = Some 1;
              Guard.b_max_heap_mb = Some 1;
            }
        in
        let w = Guard.widened g in
        Guard.dispose g;
        let b = Guard.budget w in
        Alcotest.(check (option (float 0.1))) "deadline kept" (Some 60_000.) b.Guard.b_deadline_ms;
        Alcotest.(check bool) "no fuel" true (b.Guard.b_fuel = None);
        Alcotest.(check bool) "no size ceiling" true (b.Guard.b_max_locs = None);
        Alcotest.(check bool) "no heap ceiling" true (b.Guard.b_max_heap_mb = None);
        Guard.check w;
        Guard.check_fuel w 1_000_000;
        Guard.check_size w 1_000_000);
    case "check raises Cancelled once the task deadline passes" (fun () ->
        let g = Guard.unlimited () in
        Guard.with_task_deadline ~ms:60_000. (fun () ->
            Guard.check g;
            Guard.with_task_deadline ~ms:20. (fun () ->
                Unix.sleepf 0.04;
                match Guard.check g with
                | exception Guard.Cancelled -> ()
                | () -> Alcotest.fail "expected Guard.Cancelled");
            (* the outer deadline is back, and it is far off *)
            Guard.check g);
        Guard.check g);
    case "budget pretty-printing" (fun () ->
        Alcotest.(check string) "unlimited" "unlimited" (Fmt.str "%a" Guard.pp_budget Guard.no_budget);
        Alcotest.(check string) "combined" "deadline 100ms, fuel 2"
          (Fmt.str "%a" Guard.pp_budget
             {
               Guard.b_deadline_ms = Some 100.;
               Guard.b_fuel = Some 2;
               Guard.b_max_locs = None;
               Guard.b_max_heap_mb = None;
             }));
  ]

(* ------------------------------------------------------------------ *)
(* Graceful degradation                                               *)
(* ------------------------------------------------------------------ *)

let fuel_1 = { Guard.no_budget with Guard.b_fuel = Some 1 }

(** Every (statement, source, target) pair of a result — per-statement
    sets plus the entry output under key [-1] — certainty erased. *)
let result_pairs (r : Analysis.result) =
  let h = Hashtbl.create 256 in
  let add sid s =
    Pts.iter (fun src dst _ -> Hashtbl.replace h (sid, Loc.id src, Loc.id dst) ()) s
  in
  Hashtbl.iter add r.Analysis.stmt_pts;
  (match r.Analysis.entry_output with Some o -> add (-1) o | None -> ());
  h

let is_superset ~full ~degraded =
  Hashtbl.fold (fun k () acc -> acc && Hashtbl.mem degraded k) full true

(** Digest of every per-statement points-to set, rendering included. *)
let stmt_digest (r : Analysis.result) =
  Hashtbl.fold (fun id s acc -> (id, s) :: acc) r.Analysis.stmt_pts []
  |> List.sort compare
  |> List.map (fun (id, s) -> Fmt.str "s%d:%a" id Pts.pp s)
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let degradation_tests =
  [
    case "fuel 1 degrades livc to a sound widened rerun" (fun () ->
        let p = Simple_ir.Simplify.of_file (bench "livc") in
        let full = Analysis.analyze p in
        let deg = Analysis.analyze ~budget:fuel_1 p in
        (match deg.Analysis.degraded with
        | None -> Alcotest.fail "livc did not trip under fuel 1"
        | Some d ->
            Alcotest.(check string) "reason" "fuel"
              (Guard.reason_name d.Analysis.deg_trip.Guard.t_reason);
            Alcotest.(check bool) "budget carried" true
              (d.Analysis.deg_budget.Guard.b_fuel = Some 1));
        Alcotest.(check int) "one budget trip in metrics" 1 deg.Analysis.metrics.M.budget_trips;
        Alcotest.(check int) "full run has none" 0 full.Analysis.metrics.M.budget_trips;
        Alcotest.(check bool) "degraded tables are a pair superset" true
          (is_superset ~full:(result_pairs full) ~degraded:(result_pairs deg)));
    case "property: degraded tables contain the full tables, whole suite" (fun () ->
        List.iter
          (fun name ->
            let p = Simple_ir.Simplify.of_file (bench name) in
            let full = Analysis.analyze p in
            let deg = Analysis.analyze ~budget:fuel_1 p in
            Alcotest.(check bool)
              (name ^ ": superset") true
              (is_superset ~full:(result_pairs full) ~degraded:(result_pairs deg));
            (* an untripped budget must change nothing at all *)
            if deg.Analysis.degraded = None then
              Alcotest.(check string) (name ^ ": untripped identical") (stmt_digest full)
                (stmt_digest deg))
          bench_names);
    case "an ample budget neither trips nor perturbs the result" (fun () ->
        let p = Simple_ir.Simplify.of_file (bench "stanford") in
        let full = Analysis.analyze p in
        let budget =
          {
            Guard.b_deadline_ms = Some 600_000.;
            Guard.b_fuel = Some 1_000_000;
            Guard.b_max_locs = Some 10_000_000;
            Guard.b_max_heap_mb = None;
          }
        in
        let b = Analysis.analyze ~budget p in
        Alcotest.(check bool) "not degraded" true (b.Analysis.degraded = None);
        Alcotest.(check string) "bit-identical" (stmt_digest full) (stmt_digest b);
        Alcotest.(check int) "no trips" 0 b.Analysis.metrics.M.budget_trips);
    case "a tiny location ceiling degrades with a size reason" (fun () ->
        let p = Simple_ir.Simplify.of_file (bench "livc") in
        let deg =
          Analysis.analyze ~budget:{ Guard.no_budget with Guard.b_max_locs = Some 1 } p
        in
        match deg.Analysis.degraded with
        | None -> Alcotest.fail "livc did not trip under max-locs 1"
        | Some d ->
            let r = Guard.reason_name d.Analysis.deg_trip.Guard.t_reason in
            Alcotest.(check bool) "size-flavoured reason" true
              (String.equal r "set-size" || String.equal r "ig-nodes"));
    case "expired-deadline fault: the widened fallback still answers" (fun () ->
        let p = Simple_ir.Simplify.of_file (bench "hash") in
        let full = Analysis.analyze p in
        let deg =
          Fault.with_point Fault.Expired_deadline (fun () ->
              Analysis.analyze
                ~budget:{ Guard.no_budget with Guard.b_deadline_ms = Some 10_000. }
                p)
        in
        (match deg.Analysis.degraded with
        | None -> Alcotest.fail "expired deadline did not degrade"
        | Some d ->
            Alcotest.(check string) "reason" "deadline"
              (Guard.reason_name d.Analysis.deg_trip.Guard.t_reason));
        Alcotest.(check bool) "still sound" true
          (is_superset ~full:(result_pairs full) ~degraded:(result_pairs deg)));
    case "degraded results are returned but never cached" (fun () ->
        in_temp (fun dir ->
            let source = bench "hash" in
            let deg, hit = Persist.analyze_cached ~cache_dir:dir ~budget:fuel_1 source in
            Alcotest.(check bool) "miss" false hit;
            Alcotest.(check bool) "degraded" true (deg.Analysis.degraded <> None);
            Alcotest.(check int) "cache left empty" 0 (Array.length (Sys.readdir dir));
            let full, hit2 = Persist.analyze_cached ~cache_dir:dir source in
            Alcotest.(check bool) "still a miss without the budget" false hit2;
            Alcotest.(check bool) "full-precision this time" true
              (full.Analysis.degraded = None)));
  ]

(* ------------------------------------------------------------------ *)
(* Heap budget, and what a tripped run answers                        *)
(* ------------------------------------------------------------------ *)

let heap_tests =
  [
    case "a zero heap ceiling trips immediately with the heap reason" (fun () ->
        let g = Guard.make { Guard.no_budget with Guard.b_max_heap_mb = Some 0 } in
        Fun.protect
          ~finally:(fun () -> Guard.dispose g)
          (fun () ->
            let t = expect_trip (fun () -> Guard.check g) in
            Alcotest.(check string) "reason" "heap" (Guard.reason_name t.Guard.t_reason)));
    case "alloc-spike makes any heap ceiling trip deterministically" (fun () ->
        Fault.with_point Fault.Alloc_spike (fun () ->
            let g =
              Guard.make { Guard.no_budget with Guard.b_max_heap_mb = Some 1_000_000 }
            in
            Fun.protect
              ~finally:(fun () -> Guard.dispose g)
              (fun () ->
                let t = expect_trip (fun () -> Guard.check g) in
                Alcotest.(check string) "reason" "heap"
                  (Guard.reason_name t.Guard.t_reason))));
    case "an ample heap ceiling neither trips nor perturbs the result" (fun () ->
        let p = Simple_ir.Simplify.of_file (bench "hash") in
        let full = Analysis.analyze p in
        let capped =
          Analysis.analyze
            ~budget:{ Guard.no_budget with Guard.b_max_heap_mb = Some 1_000_000 }
            p
        in
        Alcotest.(check bool) "not degraded" true (capped.Analysis.degraded = None);
        Alcotest.(check string) "bit-identical" (stmt_digest full) (stmt_digest capped);
        Alcotest.(check int) "no heap trips" 0 capped.Analysis.metrics.M.heap_trips);
    case "a blown heap budget degrades soundly instead of dying" (fun () ->
        let p = Simple_ir.Simplify.of_file (bench "hash") in
        let full = Analysis.analyze p in
        let deg =
          Fault.with_point Fault.Alloc_spike (fun () ->
              Analysis.analyze
                ~budget:{ Guard.no_budget with Guard.b_max_heap_mb = Some 4096 }
                p)
        in
        (match deg.Analysis.degraded with
        | None -> Alcotest.fail "alloc spike did not degrade"
        | Some d ->
            Alcotest.(check string) "reason" "heap"
              (Guard.reason_name d.Analysis.deg_trip.Guard.t_reason));
        Alcotest.(check int) "heap trip counted" 1 deg.Analysis.metrics.M.heap_trips;
        Alcotest.(check int) "budget trip counted" 1 deg.Analysis.metrics.M.budget_trips;
        Alcotest.(check bool) "still sound" true
          (is_superset ~full:(result_pairs full) ~degraded:(result_pairs deg)));
    case "a tripped run's tables equal the --no-context --no-definite ablation" (fun () ->
        (* the widened rerun starts from nothing, so neither the budget
           nor how far the precise run got shows in its tables *)
        let ablation =
          { Options.default with Options.context_sensitive = false; use_definite = false }
        in
        List.iter
          (fun (name, p, budget, fault) ->
            let deg =
              match fault with
              | Some f -> Fault.with_point f (fun () -> Analysis.analyze ~budget p)
              | None -> Analysis.analyze ~budget p
            in
            Alcotest.(check bool) (name ^ ": degraded") true (deg.Analysis.degraded <> None);
            Alcotest.(check string) (name ^ ": the ablation's tables")
              (stmt_digest (Analysis.analyze ~opts:ablation p))
              (stmt_digest deg))
          [
            ( "stanford, fuel 2",
              Simple_ir.Simplify.of_file (bench "stanford"),
              { Guard.no_budget with Guard.b_fuel = Some 2 },
              None );
            ( "hash, alloc-spike",
              Simple_ir.Simplify.of_file (bench "hash"),
              { Guard.no_budget with Guard.b_max_heap_mb = Some 4096 },
              Some Fault.Alloc_spike );
            ( "knot-1000, max-locs 100",
              Simple_ir.Simplify.of_string
                (Gen.program
                   {
                     Gen.default with
                     Gen.seed = 37;
                     size = 1000;
                     depth = 4;
                     fnptr_density = 15;
                     recursion = 30;
                   }),
              { Guard.no_budget with Guard.b_max_locs = Some 100 },
              None );
          ]);
    case "a degraded result's analysis time covers the aborted run" (fun () ->
        (* every precise body pass sleeps 50 ms, so the 75 ms deadline
           trips at the check after the second sleep, 100 ms in; the
           widened rerun does not sleep and takes about a millisecond *)
        let p = Simple_ir.Simplify.of_file (bench "hash") in
        let deg =
          Fault.with_point ~sleep_ms:50. Fault.Slow_fixpoint (fun () ->
              Analysis.analyze ~budget:{ Guard.no_budget with Guard.b_deadline_ms = Some 75. } p)
        in
        Alcotest.(check bool) "degraded" true (deg.Analysis.degraded <> None);
        Alcotest.(check bool) "at least the deadline" true
          (deg.Analysis.metrics.M.t_analysis >= 0.075));
  ]

(* ------------------------------------------------------------------ *)
(* Pool timeouts and cooperative cancellation                         *)
(* ------------------------------------------------------------------ *)

(** A task that spins for up to 5 s but polls a guard: the cooperative
    shape every analysis task has. *)
let cancellable_spin () =
  let g = Guard.unlimited () in
  let t0 = Unix.gettimeofday () in
  while Unix.gettimeofday () -. t0 < 5. do
    Guard.check g;
    Unix.sleepf 0.002
  done;
  "finished"

let timeout_tests =
  [
    case "an overdue task is cancelled; its siblings are untouched" (fun () ->
        Pool.with_pool ~jobs:2 (fun pool ->
            match Pool.run_list ~timeout_ms:60. pool [ cancellable_spin; (fun () -> "fast") ] with
            | [ Error Guard.Cancelled; Ok "fast" ] -> ()
            | [ a; b ] ->
                Alcotest.failf "expected [Error Cancelled; Ok fast], got [%s; %s]"
                  (match a with Ok s -> s | Error e -> Printexc.to_string e)
                  (match b with Ok s -> s | Error e -> Printexc.to_string e)
            | _ -> Alcotest.fail "wrong arity"));
    case "a task timeout also covers the jobs = 1 inline path" (fun () ->
        Pool.with_pool ~jobs:1 (fun pool ->
            match Pool.run_list ~timeout_ms:60. pool [ cancellable_spin ] with
            | [ Error Guard.Cancelled ] -> ()
            | _ -> Alcotest.fail "expected Error Cancelled inline"));
    case "tasks under their timeout are unaffected" (fun () ->
        Pool.with_pool ~jobs:4 (fun pool ->
            let rs = Pool.run_list ~timeout_ms:5_000. pool (List.init 8 (fun i () -> i)) in
            List.iteri
              (fun i r ->
                match r with
                | Ok v -> Alcotest.(check int) "value" i v
                | Error e -> Alcotest.failf "unexpected: %s" (Printexc.to_string e))
              rs));
    case "a hanging analysis is cancelled by the task timeout" (fun () ->
        (* slow-fixpoint makes livc's precise fixpoint sleep per body
           pass of helper_sum; without a budget nothing degrades, so the
           pool timeout is the only line of defence *)
        Fault.with_point ~fn:"helper_sum" ~sleep_ms:30. Fault.Slow_fixpoint (fun () ->
            let p = Simple_ir.Simplify.of_file (bench "livc") in
            Pool.with_pool ~jobs:2 (fun pool ->
                match
                  Pool.run_list ~timeout_ms:80. pool [ (fun () -> Analysis.analyze p) ]
                with
                | [ Error Guard.Cancelled ] -> ()
                | [ Ok _ ] -> Alcotest.fail "injected hang ran to completion under timeout"
                | [ Error e ] -> Alcotest.failf "wrong error: %s" (Printexc.to_string e)
                | _ -> Alcotest.fail "wrong arity")));
    case "map_result isolates per-element errors in order" (fun () ->
        Pool.with_pool ~jobs:4 (fun pool ->
            let rs =
              Pool.map_result pool
                (fun i -> if i mod 2 = 0 then i * 10 else failwith (string_of_int i))
                [ 0; 1; 2; 3 ]
            in
            match rs with
            | [ Ok 0; Error (Failure m1); Ok 20; Error (Failure m3) ]
              when String.equal m1 "1" && String.equal m3 "3" ->
                ()
            | _ -> Alcotest.fail "expected alternating Ok/Error in submission order"));
  ]

(* ------------------------------------------------------------------ *)
(* Fault injection                                                    *)
(* ------------------------------------------------------------------ *)

let fault_tests =
  [
    case "point names round-trip" (fun () ->
        List.iter
          (fun p ->
            match Fault.point_of_name (Fault.point_name p) with
            | Some p' when p' = p -> ()
            | _ -> Alcotest.failf "%s does not round-trip" (Fault.point_name p))
          Fault.all_points;
        Alcotest.(check bool) "unknown rejected" true (Fault.point_of_name "nope" = None));
    case "with_point restores the previous configuration, even on raise" (fun () ->
        Alcotest.(check bool) "off before" false (Fault.enabled Fault.Slow_fixpoint);
        Fault.with_point ~fn:"f" ~sleep_ms:1. Fault.Slow_fixpoint (fun () ->
            Alcotest.(check bool) "on inside" true (Fault.enabled Fault.Slow_fixpoint);
            Alcotest.(check (option string)) "fn" (Some "f") (Fault.target_fn ()));
        Alcotest.(check bool) "off after" false (Fault.enabled Fault.Slow_fixpoint);
        Alcotest.(check (option string)) "fn restored" None (Fault.target_fn ());
        (match
           Fault.with_point Fault.Task_exn (fun () -> raise Exit)
         with
        | exception Exit -> ()
        | _ -> Alcotest.fail "expected Exit");
        Alcotest.(check bool) "off after raise" false (Fault.enabled Fault.Task_exn));
    case "task-exn fails every pool task, isolated as Error" (fun () ->
        Fault.with_point Fault.Task_exn (fun () ->
            Pool.with_pool ~jobs:2 (fun pool ->
                let rs = Pool.run_list pool [ (fun () -> 1); (fun () -> 2) ] in
                List.iter
                  (function
                    | Error (Fault.Injected p) ->
                        Alcotest.(check string) "point" "task-exn" p
                    | Ok _ -> Alcotest.fail "task ran despite the injection"
                    | Error e -> Alcotest.failf "wrong exn: %s" (Printexc.to_string e))
                  rs)));
    case "corrupt-cache flips exactly one byte of a saved file" (fun () ->
        in_temp (fun dir ->
            let f = Filename.concat dir "blob" in
            let payload = String.init 64 (fun i -> Char.chr (i * 3 mod 256)) in
            let write () =
              Out_channel.with_open_bin f (fun oc -> Out_channel.output_string oc payload)
            in
            write ();
            Fault.maybe_corrupt_file f;
            Alcotest.(check string) "untouched when off" payload
              (In_channel.with_open_bin f In_channel.input_all);
            Fault.with_point Fault.Corrupt_cache (fun () -> Fault.maybe_corrupt_file f);
            let after = In_channel.with_open_bin f In_channel.input_all in
            let diffs = ref 0 in
            String.iteri (fun i c -> if c <> payload.[i] then incr diffs) after;
            Alcotest.(check int) "same length" (String.length payload) (String.length after);
            Alcotest.(check int) "one byte flipped" 1 !diffs));
    case "slow-fixpoint honours its function filter" (fun () ->
        Fault.with_point ~fn:"target" ~sleep_ms:30. Fault.Slow_fixpoint (fun () ->
            let t0 = Unix.gettimeofday () in
            Fault.maybe_slow_fixpoint ~fn:"other";
            let skipped = Unix.gettimeofday () -. t0 in
            let t1 = Unix.gettimeofday () in
            Fault.maybe_slow_fixpoint ~fn:"target";
            let slept = Unix.gettimeofday () -. t1 in
            Alcotest.(check bool) "filtered fn does not sleep" true (skipped < 0.02);
            Alcotest.(check bool) "target fn sleeps" true (slept >= 0.025)));
  ]

(* ------------------------------------------------------------------ *)
(* Persist: quarantine and fuzz                                       *)
(* ------------------------------------------------------------------ *)

let flip_byte file pos =
  let data = In_channel.with_open_bin file In_channel.input_all in
  let b = Bytes.of_string data in
  Bytes.set b pos (Char.chr (Char.code (Bytes.get b pos) lxor 0xff));
  Out_channel.with_open_bin file (fun oc -> Out_channel.output_bytes oc b)

let quarantine_tests =
  [
    case "quarantine never clobbers an earlier .bad file" (fun () ->
        in_temp (fun dir ->
            let source = bench "hash" in
            let _ = Persist.analyze_cached ~cache_dir:dir source in
            let file =
              Persist.cache_file ~cache_dir:dir ~source ~opts:Options.default ~entry:"main"
            in
            (* a pre-existing post-mortem from an earlier incident *)
            let sentinel = "earlier evidence, do not destroy" in
            Out_channel.with_open_bin (file ^ ".bad") (fun oc ->
                Out_channel.output_string oc sentinel);
            let size = (Unix.stat file).Unix.st_size in
            flip_byte file (size / 2);
            let _, hit = Persist.analyze_cached ~cache_dir:dir source in
            Alcotest.(check bool) "corrupt entry not served" false hit;
            Alcotest.(check string) "first .bad untouched" sentinel
              (In_channel.with_open_bin (file ^ ".bad") In_channel.input_all);
            Alcotest.(check bool) "fresh evidence at .bad.1" true
              (Sys.file_exists (file ^ ".bad.1"));
            (* a second incident picks the next free suffix *)
            flip_byte file (size / 3);
            let _, hit2 = Persist.analyze_cached ~cache_dir:dir source in
            Alcotest.(check bool) "still not served" false hit2;
            Alcotest.(check bool) "and .bad.2 appears" true
              (Sys.file_exists (file ^ ".bad.2"));
            Alcotest.(check string) "first .bad still untouched" sentinel
              (In_channel.with_open_bin (file ^ ".bad") In_channel.input_all)));
    case "a corrupt cache entry is quarantined and re-analyzed cold" (fun () ->
        in_temp (fun dir ->
            let source = bench "stanford" in
            let cold, _ = Persist.analyze_cached ~cache_dir:dir source in
            let file =
              Persist.cache_file ~cache_dir:dir ~source ~opts:Options.default ~entry:"main"
            in
            let size = (Unix.stat file).Unix.st_size in
            flip_byte file (size / 2);
            let re, hit = Persist.analyze_cached ~cache_dir:dir source in
            Alcotest.(check bool) "not served from the corrupt entry" false hit;
            Alcotest.(check int) "quarantine counted" 1 re.Analysis.metrics.M.cache_quarantined;
            Alcotest.(check bool) "entry kept for post-mortem" true
              (Sys.file_exists (file ^ ".bad"));
            Alcotest.(check string) "re-analysis matches the original" (stmt_digest cold)
              (stmt_digest re);
            let warm, hit2 = Persist.analyze_cached ~cache_dir:dir source in
            Alcotest.(check bool) "cache repopulated" true hit2;
            Alcotest.(check int) "no further quarantine"
              0 warm.Analysis.metrics.M.cache_quarantined));
    case "the corrupt-cache fault defeats every warm load" (fun () ->
        in_temp (fun dir ->
            let source = bench "hash" in
            Fault.with_point Fault.Corrupt_cache (fun () ->
                let _, hit0 = Persist.analyze_cached ~cache_dir:dir source in
                Alcotest.(check bool) "cold miss" false hit0;
                (* the save was corrupted in place, so the next call must
                   quarantine and go cold again — never crash, never lie *)
                let re, hit1 = Persist.analyze_cached ~cache_dir:dir source in
                Alcotest.(check bool) "corrupted entry not served" false hit1;
                Alcotest.(check int) "quarantined" 1 re.Analysis.metrics.M.cache_quarantined)));
    case "a lookup classifies missing, stale and corrupt entries" (fun () ->
        (* missing: a miss; stale, a well-formed entry keying other
           options or another entry function: a miss that quarantines
           nothing and leaves the entry; corrupt: quarantined, and the
           source analyzed cold *)
        in_temp (fun dir ->
            let source = bench "dry" in
            let entry_file ?(opts = Options.default) ?(entry = "main") () =
              Persist.cache_file ~cache_dir:dir ~source ~opts ~entry
            in
            let lookup ?opts ?entry () =
              Persist.analyze_cached ~cache_dir:dir ?opts ?entry source
            in
            let outcome what ?opts ?entry () =
              let r, hit = lookup ?opts ?entry () in
              Alcotest.(check bool) (what ^ ": a miss") false hit;
              Alcotest.(check string)
                (what ^ ": the cold answer")
                (stmt_digest (Analysis.of_file ?opts ?entry source))
                (stmt_digest r);
              r.Analysis.metrics.M.cache_quarantined
            in
            Alcotest.(check int) "missing: nothing quarantined" 0 (outcome "missing" ());
            let primed = In_channel.with_open_bin (entry_file ()) In_channel.input_all in
            let stale what ?opts ?entry () =
              let file = entry_file ?opts ?entry () in
              Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc primed);
              Alcotest.(check int)
                (what ^ ": nothing quarantined") 0
                (outcome what ?opts ?entry ());
              Alcotest.(check bool) (what ^ ": nothing set aside") false
                (Sys.file_exists (file ^ ".bad"))
            in
            stale "stale entry" ~entry:"Proc_1" ();
            stale "stale opts" ~opts:{ Options.default with Options.context_sensitive = false } ();
            Out_channel.with_open_bin (entry_file ()) (fun oc ->
                Out_channel.output_string oc (String.sub primed 0 (String.length primed / 3)));
            Alcotest.(check int) "truncated: quarantined" 1 (outcome "truncated" ());
            Alcotest.(check bool) "truncated: set aside" true
              (Sys.file_exists (entry_file () ^ ".bad"))));
  ]

(** The fuzz satellite: livc's plain cache entry, truncated and
    bit-flipped at every 97th byte, each mutant looked up in its place.
    Every mutant must either be served as a hit bit-identical to a cold
    run (a flip in the content key is a rekey) or be quarantined, after
    which the lookup runs cold. No crash, no wrong tables, ever. *)
let fuzz_tests =
  [
    case "fuzz: truncate + bit-flip a persisted livc result at every 97th byte" (fun () ->
        in_temp (fun dir ->
            let source = bench "livc" in
            let full, _ = Persist.analyze_cached ~cache_dir:dir source in
            let file =
              Persist.cache_file ~cache_dir:dir ~source ~opts:Options.default ~entry:"main"
            in
            let data = In_channel.with_open_bin file In_channel.input_all in
            let len = String.length data in
            (* [Pts.equal] per statement: rendering every set of each
               mutant's result would cost more than the lookups *)
            let same (r : Analysis.result) =
              Hashtbl.length r.Analysis.stmt_pts = Hashtbl.length full.Analysis.stmt_pts
              && Hashtbl.fold
                   (fun id s ok ->
                     ok
                     && match Hashtbl.find_opt r.Analysis.stmt_pts id with
                        | Some s' -> Pts.equal s s'
                        | None -> false)
                   full.Analysis.stmt_pts true
            in
            let mutants = ref 0 and quarantined = ref 0 and hits = ref 0 in
            let try_mutant name s =
              incr mutants;
              Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc s);
              let r, hit = Persist.analyze_cached ~cache_dir:dir source in
              Alcotest.(check bool) (name ^ ": the cold answer") true (same r);
              if hit then incr hits;
              if r.Analysis.metrics.M.cache_quarantined = 1 then incr quarantined;
              (* drop the victim the lookup set aside *)
              Array.iter
                (fun f -> if Filename.check_suffix f ".bad" then Sys.remove (Filename.concat dir f))
                (Sys.readdir dir)
            in
            let off = ref 0 in
            while !off < len do
              let i = !off in
              try_mutant (Fmt.str "truncate@%d" i) (String.sub data 0 i);
              let b = Bytes.of_string data in
              Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
              try_mutant (Fmt.str "flip@%d" i) (Bytes.to_string b);
              off := !off + 97
            done;
            Alcotest.(check bool) "a few hundred mutants exercised" true (!mutants >= 200);
            Alcotest.(check int) "every mutant a hit or quarantined" !mutants
              (!hits + !quarantined)));
  ]

(** Kept after the other robust cases so their positions in the suite
    do not move. *)
let primed_fuzz_tests =
  [
    case "fuzz: truncate + bit-flip a primed .pti at every 97th byte, then edit" (fun () ->
        (* the edit adds an uncalled function, so every segment is read
           back, records of indirect calls included in the generated web
           program, whose functions call through tables: a damaged
           header, index or kept segment must quarantine the entry, and
           damage anywhere must never change the answer *)
        List.iter
          (fun (prog, text) ->
            in_temp (fun dir ->
                let source = Filename.concat dir (prog ^ ".c") in
                let write f s =
                  Out_channel.with_open_bin f (fun oc -> Out_channel.output_string oc s)
                in
                write source text;
                let _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
                let pti =
                  Persist.cache_file_incr ~cache_dir:dir ~source ~opts:Options.default ~entry:"main"
                in
                let data = In_channel.with_open_bin pti In_channel.input_all in
                let len = String.length data in
                write source (text ^ "\nvoid ptan_probe_added(void) { }\n");
                let cold = stmt_digest (Analysis.of_file source) in
                let mutants = ref 0 and replayed = ref 0 in
                let try_mutant name s =
                  incr mutants;
                  write pti s;
                  (match Persist.analyze_cached ~cache_dir:dir ~incremental:true source with
                  | r, _ ->
                      if r.Analysis.metrics.M.incr_funcs_reused > 0 then incr replayed;
                      Alcotest.(check string) (name ^ ": the cold answer") cold (stmt_digest r)
                  | exception e -> Alcotest.failf "%s: raised %s" name (Printexc.to_string e));
                  (* drop the entry the run saved and any quarantined victim *)
                  Array.iter
                    (fun f -> if f <> prog ^ ".c" then Sys.remove (Filename.concat dir f))
                    (Sys.readdir dir)
                in
                let off = ref 0 in
                while !off < len do
                  let i = !off in
                  try_mutant (Fmt.str "%s: truncate@%d" prog i) (String.sub data 0 i);
                  let b = Bytes.of_string data in
                  Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
                  try_mutant (Fmt.str "%s: flip@%d" prog i) (Bytes.to_string b);
                  off := !off + 97
                done;
                Alcotest.(check bool)
                  (prog ^ ": a few hundred mutants exercised")
                  true (!mutants >= 200);
                (* a flip in the content key or in a segment no function
                   keeps leaves the summaries usable *)
                Alcotest.(check bool) (prog ^ ": some mutants still replay") true (!replayed > 0)))
          [
            ("stanford", In_channel.with_open_bin (bench "stanford") In_channel.input_all);
            ( "web",
              Gen.program
                { Gen.default with Gen.seed = 11; size = 150; depth = 4; fnptr_density = 30 } );
          ]);
  ]

(* ------------------------------------------------------------------ *)
(* Guard clock: monotonic measurement                                 *)
(* ------------------------------------------------------------------ *)

(** Regressions for the wall-clock -> monotonic switch: deadlines and
    [elapsed_ms] are measured on {!Pointsto.Mono}, which a stepping
    system clock (NTP, manual [date]) cannot disturb. The step itself
    cannot be simulated in a test, so these pin the observable
    contract: elapsed time is non-negative, advances with real time,
    and agrees with an independent monotonic reading. *)
let mono_tests =
  [
    case "elapsed_ms starts at zero and advances with real time" (fun () ->
        let g = Guard.unlimited () in
        let e0 = Guard.elapsed_ms g in
        Alcotest.(check bool) "non-negative at birth" true (e0 >= 0.);
        Alcotest.(check bool) "tiny at birth" true (e0 < 100.);
        Unix.sleepf 0.02;
        let e1 = Guard.elapsed_ms g in
        Alcotest.(check bool) "advanced by the sleep" true (e1 >= e0 +. 15.));
    case "elapsed_ms agrees with an independent monotonic reading" (fun () ->
        let t0 = Pointsto.Mono.now_ms () in
        let g = Guard.unlimited () in
        Unix.sleepf 0.01;
        let e = Guard.elapsed_ms g in
        let dt = Pointsto.Mono.now_ms () -. t0 in
        Alcotest.(check bool) "within the bracketing interval" true (e > 0. && e <= dt +. 1.));
    case "mono clock readings never go backwards" (fun () ->
        let prev = ref (Pointsto.Mono.now_s ()) in
        for _ = 1 to 10_000 do
          let t = Pointsto.Mono.now_s () in
          if t < !prev then Alcotest.fail "monotonic clock went backwards";
          prev := t
        done);
  ]

(* ------------------------------------------------------------------ *)
(* Driver exit precedence (spawns the real binary)                    *)
(* ------------------------------------------------------------------ *)

(** End-to-end checks of the tables/profile exit policy: failure (1)
    beats degradation (3), and the degradation report still prints when
    both occur. Runs the installed ptan binary; the test cwd is
    [_build/default/test]. *)
(* cwd is _build/default/test under [dune runtest], the workspace root
   under [dune exec test/main.exe] (how CI's chaos job runs this
   suite) — resolve the binary for both. *)
let ptan =
  if Sys.file_exists "../bin/ptan.exe" then "../bin/ptan.exe"
  else "_build/default/bin/ptan.exe"

let run_ptan ?(env = "") args =
  in_temp (fun dir ->
      let out = Filename.concat dir "out" and err = Filename.concat dir "err" in
      let code = Sys.command (Printf.sprintf "%s %s %s > %s 2> %s" env ptan args out err) in
      ( code,
        In_channel.with_open_bin out In_channel.input_all,
        In_channel.with_open_bin err In_channel.input_all ))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.equal (String.sub hay i nn) needle || go (i + 1)) in
  go 0

let with_garbage_c f =
  let file = Filename.temp_file "ptan-bad" ".c" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      Out_channel.with_open_bin file (fun oc ->
          Out_channel.output_string oc "int main( { this is not C\n");
      f file)

let exit_code_tests =
  [
    case "tables: degradation alone exits 3 with the report" (fun () ->
        let code, out, err = run_ptan (Fmt.str "tables --no-cache --fuel 1 %s" (bench "livc")) in
        Alcotest.(check int) "exit 3" 3 code;
        Alcotest.(check bool) "report printed" true (contains out "degraded:");
        Alcotest.(check bool) "summary on stderr" true (contains err "1 degraded"));
    case "tables: failure beats degradation, which still reports" (fun () ->
        with_garbage_c (fun bad ->
            let code, out, err =
              run_ptan (Fmt.str "tables --no-cache --fuel 1 %s %s" (bench "livc") bad)
            in
            Alcotest.(check int) "exit 1, not 3" 1 code;
            Alcotest.(check bool) "degradation still reported" true (contains out "degraded:");
            Alcotest.(check bool) "summary counts both" true
              (contains err "1 file(s) failed, 1 degraded")));
    case "profile: failure beats degradation, which still reports" (fun () ->
        with_garbage_c (fun bad ->
            let code, out, _ =
              run_ptan (Fmt.str "profile --fuel 1 %s %s" (bench "livc") bad)
            in
            Alcotest.(check int) "exit 1, not 3" 1 code;
            Alcotest.(check bool) "degradation still reported" true (contains out "degraded:")));
    case "tables: all clean exits 0" (fun () ->
        let code, _, _ = run_ptan (Fmt.str "tables --no-cache %s" (bench "hash")) in
        Alcotest.(check int) "exit 0" 0 code);
    case "tables: pool workers read the fault environment without racing" (fun () ->
        (* every worker consults the fault flags as its first task
           starts; a suspension forced by two domains at once failed
           about one run in five with CamlinternalLazy.Undefined *)
        let files = String.concat " " (List.map bench Test_benchmarks.all_names) in
        for _ = 1 to 10 do
          let code, _, err = run_ptan (Fmt.str "tables -j 4 --no-cache %s" files) in
          Alcotest.(check (pair int string)) "exit 0, no error" (0, "") (code, err)
        done);
    case "tables: a tripped heap ceiling exits 3, not an OOM kill" (fun () ->
        let code, out, _ =
          run_ptan ~env:"PTAN_FAULTS=alloc-spike"
            (Fmt.str "tables --no-cache --max-heap-mb 4096 %s" (bench "hash"))
        in
        Alcotest.(check int) "exit 3" 3 code;
        Alcotest.(check bool) "heap named in the report" true (contains out "heap"));
    case "analyze: a widened rerun that blows the budget too exits 1" (fun () ->
        let code, _, err = run_ptan (Fmt.str "analyze --no-cache --deadline-ms 0 %s" (bench "hash")) in
        Alcotest.(check int) "exit 1" 1 code;
        Alcotest.(check bool) "the reason on stderr" true
          (contains err "(even the widened rerun blew the budget)"));
  ]

(* ------------------------------------------------------------------ *)
(* Supervisor chaos (spawns the real binary)                          *)
(* ------------------------------------------------------------------ *)

(** A Unix-socket client with a receive timeout: a hang — the one thing
    a supervised daemon must never inflict on a client — fails the test
    instead of wedging the suite. *)
let connect_sock path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX path);
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 10.;
  fd

(* One reply line; "" when the worker died under us (EOF or reset). *)
let recv_line fd =
  let buf = Buffer.create 256 in
  let b = Bytes.create 1 in
  let rec go () =
    match Unix.read fd b 0 1 with
    | 0 -> Buffer.contents buf
    | _ ->
        if Bytes.get b 0 = '\n' then Buffer.contents buf
        else begin
          Buffer.add_char buf (Bytes.get b 0);
          go ()
        end
    | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
        Buffer.contents buf
  in
  go ()

let sock_round_trip path line =
  let fd = connect_sock path in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      let msg = line ^ "\n" in
      ignore (Unix.write_substring fd msg 0 (String.length msg));
      recv_line fd)

let rec await ?(tries = 100) msg f =
  if tries = 0 then Alcotest.failf "timed out waiting for %s" msg
  else if not (try f () with Unix.Unix_error _ -> false) then begin
    Unix.sleepf 0.1;
    await ~tries:(tries - 1) msg f
  end

let supervisor_tests =
  [
    case "supervise: five worker kills; clean reconnects, identical answers" (fun () ->
        in_temp (fun dir ->
            let sock = Filename.concat dir "s" in
            let arm = Filename.concat dir "arm" in
            let dev_null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
            let log_fd =
              Unix.openfile (Filename.concat dir "log")
                [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ]
                0o644
            in
            let env =
              Array.append (Unix.environment ())
                [| "PTAN_FAULTS=worker-kill"; "PTAN_FAULT_KILL_FILE=" ^ arm |]
            in
            let pid =
              Unix.create_process_env ptan
                [|
                  ptan; "serve"; bench "hash"; "--no-cache"; "--socket"; sock;
                  "--supervise"; "--max-restarts"; "10";
                |]
                env dev_null log_fd log_fd
            in
            Fun.protect
              ~finally:(fun () ->
                (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
                (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
                List.iter
                  (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
                  [ dev_null; log_fd ])
              (fun () ->
                await "the supervised daemon" (fun () ->
                    Sys.file_exists sock && sock_round_trip sock "ping" = "ok pong");
                (* the reference answer: a cold one-shot query of the
                   same corpus entry *)
                let cold =
                  let code, out, _ =
                    run_ptan
                      (Fmt.str "query --no-cache %s pts insert s50 e" (bench "hash"))
                  in
                  Alcotest.(check int) "cold query exits 0" 0 code;
                  String.trim out
                in
                let q = "q hash pts insert s50 e" in
                Alcotest.(check string) "daemon agrees with the cold query"
                  ("ok " ^ cold) (sock_round_trip sock q);
                for i = 1 to 5 do
                  (* arm the injection: the worker SIGKILLs itself as it
                     picks up the next batch — our query dies with it *)
                  Out_channel.with_open_bin arm (fun _ -> ());
                  let dying = sock_round_trip sock q in
                  Alcotest.(check string)
                    (Fmt.str "kill %d: dropped cleanly, no hang" i)
                    "" dying;
                  await "the restarted worker" (fun () ->
                      sock_round_trip sock "ping" = "ok pong");
                  Alcotest.(check string)
                    (Fmt.str "bit-identical answer after restart %d" i)
                    ("ok " ^ cold) (sock_round_trip sock q);
                  let health = sock_round_trip sock "health" in
                  Alcotest.(check bool)
                    (Fmt.str "health reports restarts=%d" i)
                    true
                    (contains health (Fmt.str "restarts=%d " i))
                done;
                Alcotest.(check string) "clean quit" "ok bye"
                  (sock_round_trip sock "quit");
                let _, st = Unix.waitpid [] pid in
                Alcotest.(check bool) "supervisor exits 0" true (st = Unix.WEXITED 0))));
  ]

(** A nested, untimed [run_list] inherits the deadline of the timed
    task it runs in. *)
let nested_deadline_tests =
  [
    case "an untimed run_list inside a timed task keeps its deadline" (fun () ->
        (* with jobs = 1 the inner call runs its task inline, on the
           domain whose deadline the outer call set *)
        Pool.with_pool ~jobs:1 (fun pool ->
            let inner () = Pool.run_list pool [ cancellable_spin ] in
            match Pool.run_list ~timeout_ms:60. pool [ inner ] with
            | [ Ok [ Error Guard.Cancelled ] ] -> ()
            | _ -> Alcotest.fail "expected the inner task cancelled by the outer deadline"));
  ]

let suite =
  ( "robust",
    guard_tests @ mono_tests @ degradation_tests @ heap_tests @ timeout_tests
    @ fault_tests @ quarantine_tests @ fuzz_tests @ exit_code_tests @ supervisor_tests
    @ primed_fuzz_tests @ nested_deadline_tests )
