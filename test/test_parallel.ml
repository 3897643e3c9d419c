(** Tests for the parallel driver layer: the {!Pointsto.Pool} domain
    pool, bit-identical results across pool widths and across the
    sub-tree-sharing ablation, and the canonical {!Pts.hash} digest the
    hash-indexed sharing memo is keyed by. *)

open Test_util
module Pool = Pointsto.Pool
module Stats = Pointsto.Stats
module Options = Pointsto.Options

(* ------------------------------------------------------------------ *)
(* Pool                                                               *)
(* ------------------------------------------------------------------ *)

let pool_tests =
  [
    case "results come back in submission order" (fun () ->
        let tasks = List.init 50 (fun i () -> i * i) in
        Pool.with_pool ~jobs:8 (fun pool ->
            let rs = Pool.run_list pool tasks in
            List.iteri
              (fun i r ->
                match r with
                | Ok v -> Alcotest.(check int) "ordered" (i * i) v
                | Error _ -> Alcotest.fail "unexpected error")
              rs));
    case "a raising task is isolated as Error" (fun () ->
        let tasks =
          [ (fun () -> 1); (fun () -> failwith "boom"); (fun () -> 3) ]
        in
        Pool.with_pool ~jobs:4 (fun pool ->
            match Pool.run_list pool tasks with
            | [ Ok 1; Error (Failure m); Ok 3 ] when String.equal m "boom" -> ()
            | _ -> Alcotest.fail "expected [Ok 1; Error boom; Ok 3]"));
    case "jobs = 1 runs inline on the calling domain" (fun () ->
        let self = (Domain.self () :> int) in
        Pool.with_pool ~jobs:1 (fun pool ->
            Alcotest.(check int) "clamped" 1 (Pool.jobs pool);
            let rs = Pool.map pool (fun () -> (Domain.self () :> int)) [ (); (); () ] in
            List.iter (Alcotest.(check int) "same domain" self) rs));
    case "map re-raises the first error in submission order" (fun () ->
        Pool.with_pool ~jobs:4 (fun pool ->
            match Pool.map pool (fun i -> if i >= 3 then raise Exit else i) [ 1; 2; 3; 4 ] with
            | exception Exit -> ()
            | _ -> Alcotest.fail "expected Exit"));
    case "many more tasks than domains all complete" (fun () ->
        let n = 500 in
        Pool.with_pool ~jobs:8 (fun pool ->
            let rs = Pool.map pool (fun i -> i) (List.init n Fun.id) in
            Alcotest.(check int) "sum" (n * (n - 1) / 2) (List.fold_left ( + ) 0 rs)));
    case "a pool is reusable across run_list calls" (fun () ->
        Pool.with_pool ~jobs:4 (fun pool ->
            Alcotest.(check (list int)) "first" [ 2; 4 ] (Pool.map pool (fun x -> 2 * x) [ 1; 2 ]);
            Alcotest.(check (list int)) "second" [ 9 ] (Pool.map pool (fun x -> x * x) [ 3 ])));
    case "looped timeouts spawn no domain beyond the workers" (fun () ->
        (* domain ids are allocated monotonically, so the id of a fresh
           probe domain bounds how many domains were ever spawned *)
        let probe () = Domain.join (Domain.spawn (fun () -> (Domain.self () :> int))) in
        let before = probe () in
        Pool.with_pool ~jobs:2 (fun pool ->
            for i = 1 to 50 do
              match Pool.run_list ~timeout_ms:5_000. pool [ (fun () -> i); (fun () -> - i) ] with
              | [ Ok a; Ok b ] when a = i && b = -i -> ()
              | _ -> Alcotest.fail "wrong results under timeout loop"
            done);
        let after = probe () in
        (* the pool's one worker, then the second probe *)
        Alcotest.(check int) "domains spawned" 2 (after - before));
    case "a pool with looped timeouts still cancels overdue tasks" (fun () ->
        (* a task deadline set and restored 50 times must still bound
           the 51st call *)
        Pool.with_pool ~jobs:2 (fun pool ->
            for _ = 1 to 50 do
              match Pool.run_list ~timeout_ms:5_000. pool [ (fun () -> ()) ] with
              | [ Ok () ] -> ()
              | _ -> Alcotest.fail "in-budget task failed"
            done;
            let g = Pointsto.Guard.unlimited () in
            let spin () =
              while true do
                Pointsto.Guard.check g
              done
            in
            match Pool.run_list ~timeout_ms:60. pool [ spin ] with
            | [ Error Pointsto.Guard.Cancelled ] -> ()
            | _ -> Alcotest.fail "expected Cancelled from the 51st call"));
  ]

(* ------------------------------------------------------------------ *)
(* Determinism of parallel analysis                                   *)
(* ------------------------------------------------------------------ *)

(** The Table 3-6 rows of a result, as one comparable string. *)
let rows r =
  let open Stats in
  let i = indirect_stats r in
  let c = categorize r in
  let g = general r in
  let s = ig_stats r in
  Fmt.str
    "%d %d %d %d %.3f | %d %d %d %d %d %d %d %d | %d %d %d %d %.2f %d | %d %d %d %d %d %.3f \
     %.3f"
    i.ind_refs i.scalar_rep i.to_stack i.to_heap i.avg c.from_lo c.from_gl c.from_fp c.from_sy
    c.to_lo c.to_gl c.to_fp c.to_sy g.stack_to_stack g.stack_to_heap g.heap_to_heap
    g.heap_to_stack g.avg_per_stmt g.max_per_stmt s.ig_nodes s.call_sites s.n_funcs
    s.n_recursive s.n_approximate s.avg_per_call_site s.avg_per_func

(** Digest of every per-statement points-to set, rendering included. *)
let stmt_digest r =
  Hashtbl.fold (fun id s acc -> (id, s) :: acc) r.Analysis.stmt_pts []
  |> List.sort compare
  |> List.map (fun (id, s) -> Fmt.str "s%d:%a" id Pts.pp s)
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

(* The function-pointer-heavy members of the suite: livc is the paper's
   function-pointer study; config and sim dispatch through pointer
   tables; genetic passes function arguments around. *)
let fp_heavy = [ "livc"; "config"; "sim"; "genetic" ]

let load_bench name = Simple_ir.Simplify.of_file ("../benchmarks/" ^ name ^ ".c")

let determinism_tests =
  [
    case "-j 8 reproduces -j 1 bit-identically on fp-heavy programs" (fun () ->
        let parsed = List.map (fun n -> (n, load_bench n)) fp_heavy in
        let seq = List.map (fun (n, p) -> (n, Analysis.analyze p)) parsed in
        let par =
          Pool.with_pool ~jobs:8 (fun pool ->
              Pool.map pool (fun (n, p) -> (n, Analysis.analyze p)) parsed)
        in
        List.iter2
          (fun (n, a) (_, b) ->
            Alcotest.(check string) (n ^ ": table rows") (rows a) (rows b);
            Alcotest.(check string) (n ^ ": statement sets") (stmt_digest a) (stmt_digest b))
          seq par);
    case "sharing on and off are bit-identical where the memo is hit" (fun () ->
        List.iter
          (fun n ->
            let p = load_bench n in
            let on =
              Analysis.analyze ~opts:{ Options.default with Options.share_contexts = true } p
            in
            let off =
              Analysis.analyze ~opts:{ Options.default with Options.share_contexts = false } p
            in
            Alcotest.(check bool)
              (n ^ ": memo exercised")
              true
              (on.Analysis.metrics.Pointsto.Metrics.memo_hits > 0);
            Alcotest.(check string) (n ^ ": table rows") (rows off) (rows on);
            Alcotest.(check string) (n ^ ": statement sets") (stmt_digest off) (stmt_digest on))
          fp_heavy);
    case "analyzing one program on many domains agrees with the host" (fun () ->
        let p = load_bench "livc" in
        let here = Analysis.analyze p in
        let there =
          Pool.with_pool ~jobs:4 (fun pool ->
              Pool.map pool (fun () -> Analysis.analyze p) [ (); (); (); () ])
        in
        List.iter
          (fun r ->
            Alcotest.(check string) "rows" (rows here) (rows r);
            Alcotest.(check string) "stmts" (stmt_digest here) (stmt_digest r))
          there);
  ]

(* ------------------------------------------------------------------ *)
(* Canonical hashing                                                  *)
(* ------------------------------------------------------------------ *)

let triples_gen =
  QCheck2.Gen.(
    list_size (int_bound 14) (triple Test_pts.loc_gen Test_pts.loc_gen Test_pts.cert_gen))

let hash_tests =
  [
    qcase "hash is construction-order canonical" triples_gen (fun l ->
        let a = Pts.of_list l in
        let b = Pts.of_list (List.rev l) in
        (not (Pts.equal a b)) || Pts.hash a = Pts.hash b);
    qcase "hash agrees with equal under incremental build"
      QCheck2.Gen.(pair triples_gen triples_gen)
      (fun (l1, l2) ->
        let a = Pts.of_list (l1 @ l2) in
        let b = Pts.merge (Pts.of_list l1) (Pts.of_list l2) in
        (not (Pts.equal a b)) || Pts.hash a = Pts.hash b);
    qcase "unequal hash implies unequal sets"
      QCheck2.Gen.(pair triples_gen triples_gen)
      (fun (l1, l2) ->
        let a = Pts.of_list l1 and b = Pts.of_list l2 in
        Pts.hash a = Pts.hash b || not (Pts.equal a b));
  ]

let suite = ("parallel", pool_tests @ determinism_tests @ hash_tests)
