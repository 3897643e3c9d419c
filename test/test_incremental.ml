(** Tests for incremental re-analysis ({!Pointsto.Persist} with
    [~incremental:true]): function-granularity content hashing, the
    dirty rule, summary replay, and — above all — the bit-identity
    contract: an incremental run after an edit must produce exactly the
    tables a cold run of the edited source produces. Anything less and
    the cache would be a source of wrong answers.

    Layers under test, bottom-up: {!Persist.func_hash} (position
    normalization), {!Persist.eligible_funcs} (the dirty rule),
    [analyze_cached ~incremental] end-to-end (cone re-analysis with
    exact counter assertions, the whole benchmark suite bit-identical
    after edits), and the corruption path (truncated [.pti] files
    quarantine and fall back to a cold run). *)

open Test_util
module Ig = Pointsto.Invocation_graph
module Persist = Pointsto.Persist
module Options = Pointsto.Options
module Metrics = Pointsto.Metrics

let bench_dir = if Sys.file_exists "benchmarks" then "benchmarks" else "../benchmarks"

let bench name = Filename.concat bench_dir (name ^ ".c")

let temp_dir () =
  let d = Filename.temp_file "ptan-incr" "" in
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

let write_file path s = Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let append_to path s = write_file path (read_file path ^ s)

(** First occurrence of [sub] in [s], or [None]. *)
let find_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None else if String.equal (String.sub s i m) sub then Some i else go (i + 1)
  in
  go 0

let replace_once ~sub ~by s =
  match find_sub s sub with
  | None -> Alcotest.failf "edit anchor %S not found" sub
  | Some i ->
      String.sub s 0 i ^ by ^ String.sub s (i + String.length sub) (String.length s - i - String.length sub)

(** The full query surface an incremental run must reproduce
    bit-identically: per-statement sets, entry output, warnings, and the
    invocation graph (shape, kinds, stored pairs). *)
let stmt_pts_strings (res : Analysis.result) =
  Hashtbl.fold (fun id s acc -> (id, Pts.to_string s) :: acc) res.Analysis.stmt_pts []
  |> List.sort compare

let check_identical name (cold : Analysis.result) (incr : Analysis.result) =
  Alcotest.(check (list (pair int string)))
    (name ^ ": per-statement points-to sets")
    (stmt_pts_strings cold) (stmt_pts_strings incr);
  Alcotest.(check string)
    (name ^ ": entry output")
    (Fmt.str "%a" Pts.pp_state cold.Analysis.entry_output)
    (Fmt.str "%a" Pts.pp_state incr.Analysis.entry_output);
  Alcotest.(check (list string))
    (name ^ ": warnings") cold.Analysis.warnings incr.Analysis.warnings;
  Alcotest.(check string)
    (name ^ ": invocation graph")
    (Fmt.str "%a" Ig.pp cold.Analysis.graph)
    (Fmt.str "%a" Ig.pp incr.Analysis.graph)

(* ------------------------------------------------------------------ *)
(* The diff oracle: func_hash and eligible_funcs                       *)
(* ------------------------------------------------------------------ *)

(** A function moved around the file (statement ids and locations all
    shifted) must hash identically; a body edit must not. *)
let hash_tests =
  [
    case "func_hash ignores statement ids and source positions" (fun () ->
        let tail = "void f(int **q) { int *p; p = *q; *q = p; }" in
        let p1 = simplify ("int main(void) { return 0; }\n" ^ tail) in
        let p2 =
          simplify
            ("int g1; int g2;\nint main(void) { int a; int b; a = 0; b = a; return b; }\n\n"
           ^ tail)
        in
        let fn p =
          match Ir.find_func p "f" with Some f -> f | None -> Alcotest.fail "no f"
        in
        Alcotest.(check bool)
          "same body, shifted ids: equal hashes" true
          (String.equal (Persist.func_hash (fn p1)) (Persist.func_hash (fn p2)));
        let p3 = simplify ("int main(void) { return 0; }\nvoid f(int **q) { int *p; p = *q; }") in
        Alcotest.(check bool)
          "edited body: different hash" false
          (String.equal (Persist.func_hash (fn p1)) (Persist.func_hash (fn p3))));
    case "eligible_funcs: dirty cone is the edited function plus its callers" (fun () ->
        let src ~edited =
          "int ga; int gb; int gc;\nint *pa; int *pb; int *pc;\n\
           void leaf1(void) { pa = &ga; }\n\
           void a(void) { leaf1(); }\n"
          ^ (if edited then "void b(void) { int t; t = 0; pb = &gb; }\n"
             else "void b(void) { pb = &gb; }\n")
          ^ "void c(void) { pc = &gc; }\n\
             int main(void) { a(); b(); c(); return 0; }\n"
        in
        let old_prog = simplify (src ~edited:false) in
        let new_prog = simplify (src ~edited:true) in
        let old_hashes = Hashtbl.create 8 in
        List.iter
          (fun f -> Hashtbl.replace old_hashes f.Ir.fn_name (Persist.func_hash f))
          old_prog.Ir.funcs;
        let elig = Persist.eligible_funcs new_prog ~old_hashes in
        let names =
          Hashtbl.fold (fun n () acc -> n :: acc) elig [] |> List.sort compare
        in
        Alcotest.(check (list string))
          "replayable = untouched subtrees" [ "a"; "c"; "leaf1" ] names);
    case "eligible_funcs: indirect call sites poison their whole closure" (fun () ->
        let src =
          "int g; int *p;\n\
           void tgt(void) { p = &g; }\n\
           void hub(void (*fp)(void)) { fp(); }\n\
           void quiet(void) { p = &g; }\n\
           int main(void) { hub(tgt); quiet(); return 0; }\n"
        in
        let prog = simplify src in
        let old_hashes = Hashtbl.create 8 in
        List.iter
          (fun f -> Hashtbl.replace old_hashes f.Ir.fn_name (Persist.func_hash f))
          prog.Ir.funcs;
        (* nothing edited, yet hub (indirect site) and main (calls hub)
           must stay dirty; tgt and quiet replay *)
        let elig = Persist.eligible_funcs prog ~old_hashes in
        let names =
          Hashtbl.fold (fun n () acc -> n :: acc) elig [] |> List.sort compare
        in
        Alcotest.(check (list string)) "fp-free subtrees only" [ "quiet"; "tgt" ] names);
  ]

(* ------------------------------------------------------------------ *)
(* End-to-end: analyze_cached ~incremental                             *)
(* ------------------------------------------------------------------ *)

let cone_src_v1 =
  "int ga; int gb; int gc;\nint *pa; int *pb; int *pc;\n\
   void leaf1(void) { pa = &ga; }\n\
   void a(void) { leaf1(); }\n\
   void b(void) { pb = &gb; }\n\
   void c(void) { pc = &gc; }\n\
   int main(void) { a(); b(); c(); return 0; }\n"

let cone_src_v2 =
  replace_once ~sub:"void b(void) { pb = &gb; }"
    ~by:"void b(void) { int t; t = 0; pb = &gb; }" cone_src_v1

let cone_tests =
  [
    case "a one-function edit re-analyzes exactly its cone" (fun () ->
        in_temp (fun dir ->
            let source = Filename.concat dir "cone.c" in
            write_file source cone_src_v1;
            let r1, hit1 = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
            Alcotest.(check bool) "cold run misses" false hit1;
            Alcotest.(check int)
              "cold run: everything dirty" 5
              r1.Analysis.metrics.Metrics.incr_funcs_dirty;
            write_file source cone_src_v2;
            let r2, hit2 = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
            Alcotest.(check bool) "edited source is not a full hit" false hit2;
            (* dirty = b (edited) + main (calls b); a, leaf1, c replay.
               Replays happen at main's calls to a and c — leaf1 is
               covered by a's frame and never visited at all. *)
            Alcotest.(check int)
              "dirty cone is {main, b}" 2 r2.Analysis.metrics.Metrics.incr_funcs_dirty;
            Alcotest.(check int)
              "a and c replay from summaries" 2
              r2.Analysis.metrics.Metrics.incr_funcs_reused;
            let cold = Analysis.of_file source in
            check_identical "cone" cold r2));
    case "unchanged source is a plain full hit" (fun () ->
        in_temp (fun dir ->
            let source = Filename.concat dir "cone.c" in
            write_file source cone_src_v1;
            let _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
            let r, hit = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
            Alcotest.(check bool) "full hit" true hit;
            Alcotest.(check int) "hit recorded" 1 r.Analysis.metrics.Metrics.cache_hits));
    case "changed options invalidate the incremental entry wholesale" (fun () ->
        in_temp (fun dir ->
            let source = Filename.concat dir "cone.c" in
            write_file source cone_src_v1;
            let _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
            let opts = { Options.default with Options.max_sym_depth = 2 } in
            let r, hit = Persist.analyze_cached ~cache_dir:dir ~opts ~incremental:true source in
            Alcotest.(check bool) "miss" false hit;
            Alcotest.(check int)
              "nothing replays across an options change" 0
              r.Analysis.metrics.Metrics.incr_funcs_reused));
  ]

(** Every benchmark: populate the incremental cache, append a trailing
    comment (content key changes, no function hash does), re-analyze
    incrementally, and demand bit-identity with a cold run of the edited
    copy. This is the suite-wide soundness gate from docs/INCREMENTAL.md. *)
let suite_names =
  [
    "genetic"; "dry"; "clinpack"; "config"; "toplev"; "compress"; "mway"; "hash";
    "misr"; "xref"; "stanford"; "fixoutput"; "sim"; "travel"; "csuite"; "msc"; "lws";
    "livc";
  ]

(** Seeded summaries answer with §6 sharing off too, where no live
    entry does: both modes must replay bit-identically. *)
let share_modes =
  [ ("", Options.default); (" (no sharing)", { Options.default with Options.share_contexts = false }) ]

let suite_tests =
  [
    case "whole suite: comment edit rekeys bit-identically" (fun () ->
        (* a trailing comment leaves the lowered program byte-identical,
           so the saved body is still the answer: the rekey fast path
           serves it as a hit with 0 dirty functions *)
        List.iter
          (fun name ->
            in_temp (fun dir ->
                let source = Filename.concat dir (name ^ ".c") in
                write_file source (read_file (bench name));
                let _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
                append_to source "\n/* trailing edit */\n";
                let r, hit =
                  Persist.analyze_cached ~cache_dir:dir ~incremental:true source
                in
                Alcotest.(check bool) (name ^ ": rekeyed entry is a hit") true hit;
                Alcotest.(check int)
                  (name ^ ": nothing dirty") 0
                  r.Analysis.metrics.Metrics.incr_funcs_dirty;
                check_identical name (Analysis.of_file source) r;
                (* the rekeyed entry must itself read back as a full hit *)
                let r2, hit2 =
                  Persist.analyze_cached ~cache_dir:dir ~incremental:true source
                in
                Alcotest.(check bool) (name ^ ": rekeyed file reloads") true hit2;
                check_identical (name ^ " reloaded") r r2))
          suite_names);
    case "whole suite: adding a function replays bit-identically" (fun () ->
        (* a new (uncalled) function changes the hash table, so the
           rekey path is off and the clean subtrees replay from
           summaries while the fp-touching slice re-runs *)
        List.iter
          (fun (mode, opts) ->
            List.iter
              (fun name ->
                in_temp (fun dir ->
                    let source = Filename.concat dir (name ^ ".c") in
                    write_file source (read_file (bench name));
                    let name = name ^ mode in
                    let _ =
                      Persist.analyze_cached ~cache_dir:dir ~opts ~incremental:true source
                    in
                    append_to source "\nvoid ptan_probe_added(void) { }\n";
                    let r, hit =
                      Persist.analyze_cached ~cache_dir:dir ~opts ~incremental:true source
                    in
                    Alcotest.(check bool) (name ^ ": not a full hit") false hit;
                    let n_funcs = List.length r.Analysis.prog.Ir.funcs in
                    Alcotest.(check bool)
                      (name ^ ": the new function is dirty, the suite is not")
                      true
                      (r.Analysis.metrics.Metrics.incr_funcs_dirty >= 1
                      && r.Analysis.metrics.Metrics.incr_funcs_dirty < n_funcs);
                    check_identical name (Analysis.of_file ~opts source) r))
              suite_names)
          share_modes);
    case "livc: a real one-kernel edit stays bit-identical" (fun () ->
        List.iter
          (fun (mode, opts) ->
            in_temp (fun dir ->
                let source = Filename.concat dir "livc.c" in
                write_file source (read_file (bench "livc"));
                let r1, _ =
                  Persist.analyze_cached ~cache_dir:dir ~opts ~incremental:true source
                in
                let n_funcs = List.length r1.Analysis.prog.Ir.funcs in
                write_file source
                  (replace_once ~sub:"double kern_a_5(void) { int i;"
                     ~by:"double kern_a_5(void) { int i; int edit_probe; edit_probe = 0;"
                     (read_file source));
                let r2, _ =
                  Persist.analyze_cached ~cache_dir:dir ~opts ~incremental:true source
                in
                Alcotest.(check bool)
                  ("most of livc replays" ^ mode)
                  true
                  (r2.Analysis.metrics.Metrics.incr_funcs_reused > n_funcs / 2);
                Alcotest.(check bool)
                  ("only a sliver is dirty" ^ mode)
                  true
                  (r2.Analysis.metrics.Metrics.incr_funcs_dirty * 4 < n_funcs);
                check_identical ("livc edited" ^ mode) (Analysis.of_file ~opts source) r2))
          share_modes);
  ]

(* ------------------------------------------------------------------ *)
(* Corruption: damaged entries quarantine and fall back cold, and only  *)
(* damaged ones                                                       *)
(* ------------------------------------------------------------------ *)

let corruption_tests =
  [
    case "truncated incremental entries quarantine and re-analyze cold" (fun () ->
        in_temp (fun dir ->
            let source = Filename.concat dir "dry.c" in
            write_file source (read_file (bench "dry"));
            let cold = Analysis.of_file source in
            let pti =
              Persist.cache_file_incr ~cache_dir:dir ~source ~opts:Options.default
                ~entry:"main"
            in
            let _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
            let data = read_file pti in
            let n = String.length data in
            List.iter
              (fun cut ->
                write_file pti (String.sub data 0 cut);
                let r, hit =
                  Persist.analyze_cached ~cache_dir:dir ~incremental:true source
                in
                Alcotest.(check bool) (Fmt.str "cut@%d: miss" cut) false hit;
                Alcotest.(check int)
                  (Fmt.str "cut@%d: quarantined" cut)
                  1 r.Analysis.metrics.Metrics.cache_quarantined;
                Alcotest.(check int)
                  (Fmt.str "cut@%d: nothing replayed" cut)
                  0 r.Analysis.metrics.Metrics.incr_funcs_reused;
                check_identical (Fmt.str "cut@%d" cut) cold r)
              [ 3; n / 4; n / 2; (3 * n) / 4; n - 1 ];
            (* the victims were kept for post-mortem, never clobbered *)
            let bad =
              Sys.readdir dir |> Array.to_list
              |> List.filter (fun f -> find_sub f ".bad" <> None)
            in
            Alcotest.(check int) "every victim kept" 5 (List.length bad)));
    case "an unreadable source leaves a valid entry in place" (fun () ->
        (* a watched file vanishing between edits is not damage to the
           entry: the call fails, and the entry is still there for the
           file's return *)
        in_temp (fun dir ->
            let source = Filename.concat dir "cone.c" in
            write_file source cone_src_v1;
            let pti =
              Persist.cache_file_incr ~cache_dir:dir ~source ~opts:Options.default
                ~entry:"main"
            in
            let _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
            Sys.remove source;
            (match Persist.analyze_cached ~cache_dir:dir ~incremental:true source with
            | _ -> Alcotest.fail "a missing source analyzed"
            | exception Sys_error _ -> ());
            Alcotest.(check bool) "entry kept" true (Sys.file_exists pti);
            Alcotest.(check (list string))
              "nothing quarantined" []
              (Sys.readdir dir |> Array.to_list
              |> List.filter (fun f -> find_sub f ".bad" <> None))));
  ]

let suite = ("incremental", hash_tests @ cone_tests @ suite_tests @ corruption_tests)
