(** Demand-driven slice planning and the sliced analysis
    ({!Pointsto.Demand}, {!Pointsto.Analysis.analyze_demand},
    {!Alias.Demand_driver}).

    Two angles:

    - slice construction: exact expected function sets on hand-written
      programs exercising the planning rules (callers enter the slice,
      earlier callees enter the slice, later callees do not, the seed's
      cone is analyzed in full, recursion promotes the cycle, indirect
      sites expand via the Andersen oracle, loops make co-resident
      sites mutually flowing);
    - the correctness gate: for {e every} defined function as seed, the
      demand run's recorded rows are bit-identical to the exhaustive
      run's — on the hand-written programs and on random
      function-pointer-heavy programs (QCheck). *)

open Test_util
module Demand = Pointsto.Demand
module Dd = Alias.Demand_driver
module Query = Alias.Query

let prepare src = Dd.prepare (simplify src)

let check_slice msg src ~seed expected =
  let d = prepare src in
  let plan = Dd.plan_for d ~seed in
  Alcotest.(check (list string))
    msg (sorted_strings expected)
    (Demand.slice_funcs plan)

(** Demand rows for [seed] are bit-identical to the exhaustive rows, for
    every statement of [seed]'s body. *)
let check_rows_identical src (exh : Analysis.result) (d : Dd.t) (fn : Ir.func) =
  let dem = Dd.analyze d ~seed:fn.Ir.fn_name in
  Ir.fold_func
    (fun () s ->
      let a = Analysis.pts_at exh s.Ir.s_id in
      let b = Analysis.pts_at dem s.Ir.s_id in
      if not (Pts.equal a b) then
        Alcotest.failf "row s%d of %s differs\nexhaustive: %s\ndemand:     %s\nin:\n%s"
          s.Ir.s_id fn.Ir.fn_name (Pts.to_string a) (Pts.to_string b) src)
    () fn;
  dem

(** Run the correctness gate over every defined function of [src], plus
    the textual query layer ([pts] queries answered from demand results
    match the exhaustive answers verbatim). *)
let check_demand_identical ?(vars = []) src =
  let prog = simplify src in
  let exh = Analysis.analyze prog in
  let d = Dd.prepare prog in
  List.iter
    (fun fn ->
      let dem = check_rows_identical src exh d fn in
      Ir.fold_func
        (fun () s ->
          List.iter
            (fun v ->
              let q = Fmt.str "pts %s s%d %s" fn.Ir.fn_name s.Ir.s_id v in
              let show = function Ok t -> "ok: " ^ t | Error e -> "error: " ^ e in
              Alcotest.(check string)
                (Fmt.str "query '%s'" q)
                (show (Query.run exh q))
                (show (Query.run dem q)))
            vars)
        () fn)
    prog.Ir.funcs

(* ------------------------------------------------------------------ *)
(* Slice construction                                                 *)
(* ------------------------------------------------------------------ *)

let cone_src =
  {|int a1; int *g;
    void leaf1(void) { g = &a1; }
    void leaf2(void) { g = 0; }
    void mid(void) { leaf1(); leaf2(); }
    void post(void) { g = 0; }
    int main() { mid(); post(); return 0; }|}

let order_src =
  {|int a1; int *g;
    void fa(void) { g = &a1; }
    void fb(void) { int *l; l = g; }
    int main() { fa(); fb(); return 0; }|}

let fp_src =
  {|int v1, v2; int *g;
    void f1(void) { g = &v1; }
    void f2(void) { g = &v2; }
    int main(int argc, char **argv) {
      void (*fp)(void);
      if (argc) { fp = f1; } else { fp = f2; }
      fp();
      return 0; }|}

let fp_loop_src =
  {|int v1, v2; int *g;
    void f1(void) { g = &v1; }
    void f2(void) { g = &v2; }
    int main(int argc, char **argv) {
      void (*fp)(void);
      fp = f1;
      while (argc) { fp(); fp = f2; }
      return 0; }|}

let rec_src =
  {|int a1; int cnd; int *g;
    void r2(void);
    void r1(void) { if (cnd) { r2(); } g = &a1; }
    void r2(void) { r1(); }
    void pre(void) { g = 0; }
    void post(void) { g = 0; }
    int main() { pre(); r1(); post(); return 0; }|}

let slice_tests =
  [
    case "seed's callee cone is analyzed in full" (fun () ->
        check_slice "seed mid" cone_src ~seed:"mid"
          [ "leaf1"; "leaf2"; "main"; "mid" ]);
    case "a callee after the last call toward the seed is skipped" (fun () ->
        check_slice "seed fa" order_src ~seed:"fa" [ "fa"; "main" ]);
    case "a callee before a call toward the seed is analyzed" (fun () ->
        (* fa's effect flows into fb's input through main *)
        check_slice "seed fb" order_src ~seed:"fb" [ "fa"; "fb"; "main" ]);
    case "co-targets of a straight-line indirect site are skipped" (fun () ->
        (* fp() invokes f1 and f2 with the same input; f2's output merges
           after the site and cannot reach f1's rows *)
        check_slice "seed f1" fp_src ~seed:"f1" [ "f1"; "main" ]);
    case "an indirect site in a loop promotes its co-targets" (fun () ->
        (* a later iteration's f2 effect feeds an earlier statement's
           state: flows' holds site-to-itself inside the loop *)
        check_slice "seed f1" fp_loop_src ~seed:"f1" [ "f1"; "f2"; "main" ]);
    case "recursion promotes the whole cycle, later calls stay out" (fun () ->
        check_slice "seed r1" rec_src ~seed:"r1" [ "main"; "pre"; "r1"; "r2" ]);
    case "an undefined seed is rejected" (fun () ->
        let d = prepare order_src in
        Alcotest.check_raises "invalid seed"
          (Invalid_argument "Demand.plan: nope is not a defined function")
          (fun () -> ignore (Dd.plan_for d ~seed:"nope")));
  ]

(* ------------------------------------------------------------------ *)
(* Bit-identity on the hand-written programs                          *)
(* ------------------------------------------------------------------ *)

let identity_tests =
  [
    case "demand rows match exhaustive on the slice programs" (fun () ->
        List.iter
          (check_demand_identical ~vars:[ "g"; "fp" ])
          [ cone_src; order_src; fp_src; fp_loop_src; rec_src ]);
    case "skips are counted and out-of-slice rows are not recorded" (fun () ->
        (* seed leaf1: mid's leaf2 call and main's post call are skipped *)
        let d = prepare cone_src in
        let dem = Dd.analyze d ~seed:"leaf1" in
        let m = dem.Analysis.metrics in
        Alcotest.(check int) "one plan" 1 m.Pointsto.Metrics.demand_plans;
        Alcotest.(check bool) "calls were skipped" true
          (m.Pointsto.Metrics.demand_skipped >= 2);
        (* post's body row was never recorded *)
        let post = Option.get (Ir.find_func dem.Analysis.prog "post") in
        Ir.fold_func
          (fun () s ->
            Alcotest.(check bool)
              (Fmt.str "s%d of post absent" s.Ir.s_id)
              true
              (Pts.is_empty (Analysis.pts_at dem s.Ir.s_id)))
          () post);
    case "an oracle miss falls back and keeps the sliced attempt's counters" (fun () ->
        (* an oracle that predicts no target at any indirect site: main's
           fp() resolves to f1 and f2 at run time, so the sliced run
           aborts to the exhaustive engine *)
        let prog = simplify fp_src in
        let exh = Analysis.analyze prog in
        Pointsto.Metrics.reset ();
        let plan = Demand.plan prog ~entry:"main" ~seed:"main" (fun ~fn:_ ~sid:_ -> []) in
        let dem = Analysis.analyze_demand ~plan prog in
        Ir.fold_func
          (fun () s ->
            Alcotest.(check string)
              (Fmt.str "row s%d of main" s.Ir.s_id)
              (Pts.to_string (Analysis.pts_at exh s.Ir.s_id))
              (Pts.to_string (Analysis.pts_at dem s.Ir.s_id)))
          ()
          (Option.get (Ir.find_func prog "main"));
        let m = dem.Analysis.metrics in
        Alcotest.(check int) "one fallback" 1 m.Pointsto.Metrics.demand_fallbacks;
        Alcotest.(check int) "the plan survives the fallback" 1
          m.Pointsto.Metrics.demand_plans);
  ]

(** Seeded demand runs: every function of [name] as seed, with an
    exhaustive run's recorded summaries minus [main]'s as seeds, so the
    skips outside the slice replay them. The seed's rows match the
    exhaustive rows, a replayed frame adds no row outside the seed, and
    the replay path is actually taken. *)
let check_seeded_demand name =
  let prog = Simple_ir.Simplify.of_file (Test_benchmarks.bench_path name) in
  let exh = Analysis.analyze ~record_summaries:true prog in
  let seeded = Hashtbl.copy exh.Analysis.summaries in
  Hashtbl.remove seeded "main";
  let d = Dd.prepare prog in
  let replays =
    List.fold_left
      (fun replays fn ->
        let dem = Dd.analyze ~seeded d ~seed:fn.Ir.fn_name in
        let own = Hashtbl.create 64 in
        Ir.fold_func
          (fun () s ->
            Hashtbl.replace own s.Ir.s_id ();
            Alcotest.(check string)
              (Fmt.str "%s: row s%d of %s" name s.Ir.s_id fn.Ir.fn_name)
              (Pts.to_string (Analysis.pts_at exh s.Ir.s_id))
              (Pts.to_string (Analysis.pts_at dem s.Ir.s_id)))
          () fn;
        Hashtbl.iter
          (fun sid _ ->
            if not (Hashtbl.mem own sid) then
              Alcotest.failf "%s: seed %s keeps a row for s%d outside it" name
                fn.Ir.fn_name sid)
          dem.Analysis.stmt_pts;
        replays + dem.Analysis.metrics.Pointsto.Metrics.demand_replays)
      0 prog.Ir.funcs
  in
  Alcotest.(check bool) (name ^ ": seeded summaries were replayed") true (replays > 0)

let seeded_tests =
  [
    case "seeded demand rows match exhaustive and stay inside the seed" (fun () ->
        List.iter check_seeded_demand [ "livc"; "stanford" ]);
  ]

(** Slicing must actually trim something on the benchmark suite: if the
    cheapest-slice non-entry seed of every benchmark covered its whole
    program, the planner would have degenerated to analyze-everything
    and demand's speed-ups would be measurement noise. Planning only,
    no analysis run. *)
let suite_tests =
  [
    case "the planner trims some benchmark to a proper sub-slice" (fun () ->
        let cheapest name =
          let p = Simple_ir.Simplify.of_file (Test_benchmarks.bench_path name) in
          let d = Dd.prepare p in
          let slices =
            List.filter_map
              (fun fn ->
                let seed = fn.Ir.fn_name in
                if String.equal seed "main" then None
                else Some (Demand.slice_size (Dd.plan_for d ~seed)))
              p.Ir.funcs
          in
          (List.fold_left min max_int slices, List.length p.Ir.funcs)
        in
        let names = Test_benchmarks.all_names @ [ "livc" ] in
        Alcotest.(check int) "benchmarks" 18 (List.length names);
        Alcotest.(check bool) "some benchmark has a proper sub-slice" true
          (List.exists
             (fun name ->
               let slice, funcs = cheapest name in
               slice < funcs)
             names));
  ]

(* ------------------------------------------------------------------ *)
(* Random programs (QCheck)                                           *)
(* ------------------------------------------------------------------ *)

(* A small universe with globals, three helpers and a global function
   pointer: enough to exercise caller chains, cones, recursion and
   oracle-expanded indirect sites. *)

type rstmt =
  | Take of string * string  (** p = &a *)
  | Copy of string * string  (** p = q *)
  | Null of string  (** p = 0 *)
  | Malloc of string
  | If of rstmt list * rstmt list
  | While of rstmt list
  | Call of int  (** helperI(); *)
  | SetFp of int  (** fp = helperI; *)
  | CallFp  (** fp(); *)

let n_helpers = 3

let render (helpers : rstmt list list) (body : rstmt list) : string =
  let buf = Buffer.create 512 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "int a, b;\nint *p, *q, *r;\nint cnd;\nvoid (*fp)(void);\n";
  for i = 0 to n_helpers - 1 do
    pf "void helper%d(void);\n" i
  done;
  let rec stmts ind l = List.iter (stmt ind) l
  and stmt ind s =
    let pad = String.make ind ' ' in
    match s with
    | Take (d, s) -> pf "%s%s = &%s;\n" pad d s
    | Copy (d, s) -> pf "%s%s = %s;\n" pad d s
    | Null d -> pf "%s%s = 0;\n" pad d
    | Malloc d -> pf "%s%s = (int*)malloc(4);\n" pad d
    | If (t, e) ->
        pf "%sif (cnd) {\n" pad;
        stmts (ind + 2) t;
        pf "%s} else {\n" pad;
        stmts (ind + 2) e;
        pf "%s}\n" pad
    | While b ->
        pf "%swhile (cnd) {\n" pad;
        stmts (ind + 2) b;
        pf "%s}\n" pad
    | Call i -> pf "%shelper%d();\n" pad i
    | SetFp i -> pf "%sfp = helper%d;\n" pad i
    | CallFp -> pf "%sif (fp != 0) fp();\n" pad
  in
  List.iteri
    (fun i b ->
      pf "void helper%d(void) {\n" i;
      stmts 2 b;
      pf "}\n")
    helpers;
  pf "int main() {\n";
  stmts 2 body;
  pf "  return 0;\n}\n";
  Buffer.contents buf

let gen_program : (rstmt list list * rstmt list) QCheck2.Gen.t =
  let open QCheck2.Gen in
  let rec gen_stmt ~depth =
    let l1 = oneofl [ "p"; "q"; "r" ] in
    let base =
      [
        (3, map2 (fun d s -> Take (d, s)) l1 (oneofl [ "a"; "b" ]));
        (3, map2 (fun d s -> Copy (d, s)) l1 l1);
        (1, map (fun d -> Null d) l1);
        (2, map (fun d -> Malloc d) l1);
        (3, map (fun i -> Call i) (int_bound (n_helpers - 1)));
        (2, map (fun i -> SetFp i) (int_bound (n_helpers - 1)));
        (2, pure CallFp);
      ]
    in
    if depth = 0 then frequency base
    else
      frequency
        (base
        @ [
            ( 1,
              map2
                (fun t e -> If (t, e))
                (list_size (int_bound 3) (gen_stmt ~depth:(depth - 1)))
                (list_size (int_bound 3) (gen_stmt ~depth:(depth - 1))) );
            (1, map (fun b -> While b) (list_size (int_bound 3) (gen_stmt ~depth:(depth - 1))));
          ])
  in
  let* helpers = list_repeat n_helpers (list_size (int_bound 4) (gen_stmt ~depth:1)) in
  let* body = list_size (int_range 1 6) (gen_stmt ~depth:2) in
  pure (helpers, body)

let property_tests =
  [
    qcase ~count:80 "demand rows are bit-identical to exhaustive for every seed"
      gen_program
      (fun (helpers, body) ->
        check_demand_identical ~vars:[ "p"; "fp" ] (render helpers body);
        true);
  ]

let suite =
  ("demand", slice_tests @ identity_tests @ seeded_tests @ suite_tests @ property_tests)
