(** Tests for the demand query layer: {!Alias.Query}'s parser and the
    three query forms ([alias] / [pts] / [calls]), the {!Alias.Queries}
    verdicts they expose ([refs_alias] / [derefs_alias]) on
    function-pointer-heavy programs, and the analyze-once / query-many
    contract — a result loaded from disk answers every query (including
    the error cases) identically to the freshly analyzed one. *)

open Test_util
module Query = Alias.Query
module Queries = Alias.Queries
module Persist = Pointsto.Persist
module Options = Pointsto.Options

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "unexpected error: %s" e

let err = function
  | Error e -> e
  | Ok _ -> Alcotest.fail "unexpected success"

let check_answer res line expected =
  Alcotest.(check string) line expected (ok (Query.run res line))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(** The error text is part of the CLI surface; assert the substance
    (a keyword of the message) rather than the full phrasing. *)
let check_error res line fragment =
  let e = err (Query.run res line) in
  if not (contains e fragment) then
    Alcotest.failf "%s: error %S does not mention %S" line e fragment

(* ------------------------------------------------------------------ *)
(* Parsing *)

let parse_roundtrip () =
  let checkq line q =
    match Query.parse line with
    | Ok q' -> Alcotest.(check bool) line true (q = q')
    | Error e -> Alcotest.failf "%s: parse error %s" line e
  in
  checkq "alias main s12 p q"
    (Query.Alias_q { func = "main"; stmt = 12; p = "p"; q = "q" });
  checkq "alias main 12 p q"
    (Query.Alias_q { func = "main"; stmt = 12; p = "p"; q = "q" });
  checkq "  pts\tmain  s3  fp "
    (Query.Pts_q { func = "main"; stmt = 3; var = "fp" });
  checkq "calls s7" (Query.Calls_q { stmt = 7 });
  checkq "calls 7" (Query.Calls_q { stmt = 7 })

let parse_errors () =
  let bad line fragment =
    let e = err (Query.parse line) in
    if not (contains e fragment) then
      Alcotest.failf "%s: error %S does not mention %S" line e fragment
  in
  bad "" "empty";
  bad "frobnicate main s1 p" "unknown query";
  bad "alias main s1 p" "alias expects";
  bad "alias main s1 p q r" "alias expects";
  bad "pts main" "pts expects";
  bad "calls" "calls expects";
  bad "pts main sX p" "statement id";
  bad "calls -3" "statement id"

(* ------------------------------------------------------------------ *)
(* Answers on a function-pointer program (paper Figures 6/7 shape): a
   function pointer bound on both arms of a conditional, then called
   indirectly; the callees write distinct globals through pointers. *)

let fp_src =
  {|
    int a; int b; int c;
    int *pa; int *pb; int *pc;
    int (*fp)();
    int foo() { pa = &a; return 0; }
    int bar() { pb = &b; return 0; }
    void probe1() {}
    void probe2() {}
    int main() {
      int cond;
      pc = &c;
      if (cond) fp = foo; else fp = bar;
      probe1();
      fp();
      probe2();
      return 0;
    }
  |}

let indirect_call_stmt (res : Analysis.result) =
  let found =
    Ir.fold_program
      (fun acc s ->
        match s.Ir.s_desc with
        | Ir.Scall (_, Ir.Cindirect _, _) -> Some s.Ir.s_id
        | _ -> acc)
      None res.Analysis.prog
  in
  match found with
  | Some id -> id
  | None -> Alcotest.fail "no indirect call in program"

let non_call_stmt (res : Analysis.result) =
  let found =
    Ir.fold_program
      (fun acc s ->
        match (acc, s.Ir.s_desc) with
        | None, Ir.Sassign _ -> Some s.Ir.s_id
        | _ -> acc)
      None res.Analysis.prog
  in
  match found with
  | Some id -> id
  | None -> Alcotest.fail "no assignment in program"

let fp_pts () =
  let res = analyze fp_src in
  let p1 = probe_stmt res "probe1" in
  check_answer res
    (Fmt.str "pts main s%d fp" p1)
    "fp -> {fn:bar/P, fn:foo/P}";
  check_answer res (Fmt.str "pts main %d pc" p1) "pc -> {c/D}";
  (* pa is only assigned inside foo, which has not run before probe1 *)
  check_answer res (Fmt.str "pts main s%d pa" p1) "pa -> {}"

let fp_calls () =
  let res = analyze fp_src in
  let icall = indirect_call_stmt res in
  check_answer res (Fmt.str "calls s%d" icall)
    (Fmt.str "s%d -> {bar, foo}" icall);
  let p1 = probe_stmt res "probe1" in
  check_answer res (Fmt.str "calls %d" p1) (Fmt.str "s%d -> {probe1}" p1);
  check_error res (Fmt.str "calls s%d" (non_call_stmt res)) "not a call"

let fp_semantic_errors () =
  let res = analyze fp_src in
  let p1 = probe_stmt res "probe1" in
  check_error res (Fmt.str "pts nosuch s%d fp" p1) "unknown function";
  check_error res (Fmt.str "pts main s%d nosuchvar" p1) "unknown variable";
  check_error res (Fmt.str "pts main s%d foo" p1) "is a function";
  check_error res "calls s99999" "no statement";
  check_error res (Fmt.str "alias main s%d fp nosuchvar" p1) "unknown variable"

(* ------------------------------------------------------------------ *)
(* Verdicts: the alias query against scalar and function pointers, and
   the underlying Queries.refs_alias / derefs_alias API directly. *)

let verdict_src =
  {|
    int x; int y;
    int foo() { return 0; }
    int bar() { return 1; }
    void probe1() {}
    int main() {
      int *p; int *q; int *r;
      int (*f1)(); int (*f2)(); int (*f3)();
      int cond;
      p = &x; q = &x; r = &y;
      f1 = foo; f2 = foo; f3 = bar;
      if (cond) r = &x;
      probe1();
      return 0;
    }
  |}

let alias_verdicts () =
  let res = analyze verdict_src in
  let p1 = probe_stmt res "probe1" in
  let q a b = Fmt.str "alias main s%d %s %s" p1 a b in
  (* p and q both point definitely at the singular x *)
  check_answer res (q "p" "q") "must-alias";
  (* r possibly points at x (conditional rebinding), so *p / *r may alias *)
  check_answer res (q "p" "r") "may-alias";
  (* two pointers into provably distinct singular cells *)
  check_answer res (q "f1" "f3") "no-alias";
  (* dereferencing a function pointer denotes code, not storage:
     function locations are never data l-values, so even two pointers
     bound to the same function have no aliasing dereferences *)
  check_answer res (q "f1" "f2") "no-alias"

let queries_api () =
  let res = analyze verdict_src in
  let fn =
    match Ir.find_func res.Analysis.prog "main" with
    | Some f -> f
    | None -> Alcotest.fail "no main"
  in
  let sid = probe_stmt res "probe1" in
  let d = Queries.derefs_alias res fn sid in
  Alcotest.(check string) "derefs p q" "must-alias"
    (Queries.verdict_to_string (d "p" "q"));
  Alcotest.(check string) "derefs p r" "may-alias"
    (Queries.verdict_to_string (d "p" "r"));
  Alcotest.(check string) "derefs f1 f3" "no-alias"
    (Queries.verdict_to_string (d "f1" "f3"));
  (* refs_alias with mixed ref forms: *p is exactly the l-value x *)
  let v =
    Queries.refs_alias res fn sid (Ir.deref_ref "p") (Ir.var_ref "x")
  in
  Alcotest.(check string) "refs *p x" "must-alias"
    (Queries.verdict_to_string v);
  let v =
    Queries.refs_alias res fn sid (Ir.var_ref "x") (Ir.var_ref "y")
  in
  Alcotest.(check string) "refs x y" "no-alias"
    (Queries.verdict_to_string v)

(* ------------------------------------------------------------------ *)
(* Analyze-once / query-many: a result served from the disk cache must
   answer every query line — successes and failures alike — identically
   to the fresh in-memory result. *)

let roundtrip_queries () =
  let dir = Filename.temp_file "ptan-qtest" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let source = Filename.concat dir "fp.c" in
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () ->
      let oc = open_out source in
      output_string oc fp_src;
      close_out oc;
      let opts = Options.default in
      let fresh, _ = Persist.analyze_cached ~cache_dir:dir ~opts source in
      let loaded =
        match Persist.analyze_cached ~cache_dir:dir ~opts source with
        | r, true -> r
        | _, false -> Alcotest.fail "a fresh entry missed"
      in
      let p1 = probe_stmt fresh "probe1" in
      let p2 = probe_stmt fresh "probe2" in
      let icall = indirect_call_stmt fresh in
      let lines =
        [
          Fmt.str "pts main s%d fp" p1;
          Fmt.str "pts main s%d fp" p2;
          Fmt.str "pts main s%d pa" p2;
          Fmt.str "pts main s%d pb" p2;
          Fmt.str "pts main s%d pc" p2;
          Fmt.str "calls s%d" icall;
          Fmt.str "calls s%d" p1;
          Fmt.str "alias main s%d pa pb" p2;
          Fmt.str "alias main s%d pc pc" p2;
          (* error answers must round-trip too *)
          Fmt.str "pts nosuch s%d fp" p1;
          "pts main s1 foo";
          "calls s99999";
          "frobnicate";
        ]
      in
      List.iter
        (fun line ->
          let show = function Ok s -> "ok: " ^ s | Error e -> "error: " ^ e in
          Alcotest.(check string) line
            (show (Query.run fresh line))
            (show (Query.run loaded line)))
        lines;
      (* and the loaded result resolved the indirect call like the fresh one *)
      Alcotest.(check string) "loaded calls"
        (Fmt.str "s%d -> {bar, foo}" icall)
        (ok (Query.run loaded (Fmt.str "calls s%d" icall))))

let suite =
  ( "queries",
    [
      case "parse roundtrip" parse_roundtrip;
      case "parse errors" parse_errors;
      case "fp pts" fp_pts;
      case "fp calls" fp_calls;
      case "fp semantic errors" fp_semantic_errors;
      case "alias verdicts" alias_verdicts;
      case "queries api" queries_api;
      case "persisted round trip" roundtrip_queries;
    ] )
