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

(** The entry of [source] under [dir], incremental or plain. *)
let entry_file ?(opts = Options.default) ~incremental ~dir source =
  (if incremental then Persist.cache_file_incr else Persist.cache_file)
    ~cache_dir:dir ~source ~opts ~entry:"main"

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
    invocation graph (shape, kinds, call sites). *)
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

(** Each defined function's {!Persist.func_hash}, by name. *)
let digests (p : Ir.program) =
  let t = Hashtbl.create 8 in
  List.iter (fun f -> Hashtbl.replace t f.Ir.fn_name (Persist.func_hash f)) p.Ir.funcs;
  t

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
        let elig =
          Persist.eligible_funcs ~targets:(fun _ -> []) new_prog ~old_hashes:(digests old_prog)
            ~new_hashes:(digests new_prog)
        in
        let names =
          Hashtbl.fold (fun n () acc -> n :: acc) elig [] |> List.sort compare
        in
        Alcotest.(check (list string))
          "replayable = untouched subtrees" [ "a"; "c"; "leaf1" ] names);
    case "eligible_funcs: indirect call sites replay through their listed targets" (fun () ->
        let src ~edited =
          "int g; int *p;\n"
          ^ (if edited then "void tgt(void) { int t; t = 0; p = &g; }\n"
             else "void tgt(void) { p = &g; }\n")
          ^ "void hub(void (*fp)(void)) { fp(); }\n\
             void quiet(void) { p = &g; }\n\
             int main(void) { hub(tgt); quiet(); return 0; }\n"
        in
        let old_prog = simplify (src ~edited:false) in
        let targets = function "hub" -> [ "tgt" ] | _ -> [] in
        let replayable prog =
          let elig =
            Persist.eligible_funcs ~targets prog ~old_hashes:(digests old_prog)
              ~new_hashes:(digests prog)
          in
          Hashtbl.fold (fun n () acc -> n :: acc) elig [] |> List.sort compare
        in
        (* nothing edited: hub's indirect site fixed its targets, so it
           and main replay *)
        Alcotest.(check (list string))
          "unedited: every function" [ "hub"; "main"; "quiet"; "tgt" ]
          (replayable old_prog);
        (* an edited target re-runs the function that called it through
           the pointer, and that function's callers *)
        Alcotest.(check (list string))
          "tgt edited: the fp-free subtree" [ "quiet" ]
          (replayable (simplify (src ~edited:true))));
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
            Alcotest.(check bool)
              "the stale entry's load is timed" true
              (r2.Analysis.metrics.Metrics.t_deserialize > 0.);
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

(** Replay is the §6 memo carried across runs, so with sharing off an
    entry seeds nothing: the edited text re-runs in full, and must still
    equal a cold run. *)
let no_sharing = { Options.default with Options.share_contexts = false }

let share_modes = [ ("", Options.default); (" (no sharing)", no_sharing) ]

let sharing opts = opts.Options.share_contexts

(** The re-analysis [r] replayed nothing. *)
let no_replay name (r : Analysis.result) =
  Alcotest.(check int) (name ^ ": nothing replays without sharing") 0
    r.Analysis.metrics.Metrics.incr_funcs_reused

(** livc with a comment that moves every statement from [kern_a_5] on
    down two lines. *)
let livc_moved text =
  replace_once ~sub:"double kern_a_5" ~by:"/* moved\n   down */\ndouble kern_a_5" text

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
    case "a mid-file comment rekeys in every engine mode" (fun () ->
        (* the comment shifts the source position of every later
           statement but no statement id, so the fingerprint holds and
           the saved body is the answer: with heap objects named by
           site, without context sensitivity, and when the run warned
           (warnings name statements by id); the plain entry carries
           the fingerprint too, so it rekeys alike. The rekey rewrites
           the content key and nothing else. *)
        let warns =
          "int g; int *p;\nvoid (*fp)(void);\n\
           void f(void) { p = &g; }\n\
           int main(void) { fp(); f(); return 0; }\n"
        in
        let site_rows (r : Analysis.result) =
          List.exists (fun (_, s) -> Option.is_some (find_sub s "heap@")) (stmt_pts_strings r)
        in
        let heap_by_site = { Options.default with Options.heap_by_site = true } in
        let rekeys (name, text, anchor, opts, witness) incremental =
          in_temp (fun dir ->
              let name = if incremental then name else name ^ ", plain" in
              let source = Filename.concat dir "prog.c" in
              write_file source text;
              let _ = Persist.analyze_cached ~cache_dir:dir ~opts ~incremental source in
              let entry () = read_file (entry_file ~opts ~incremental ~dir source) in
              let primed = entry () in
              write_file source (replace_once ~sub:anchor ~by:("/* moved */\n" ^ anchor) text);
              let r, hit = Persist.analyze_cached ~cache_dir:dir ~opts ~incremental source in
              Alcotest.(check bool) (name ^ ": a hit") true hit;
              Alcotest.(check bool)
                (name ^ ": the entry past its key as primed") true
                (String.equal (past_key primed) (past_key (entry ())));
              Alcotest.(check int)
                (name ^ ": one hit counted") 1 r.Analysis.metrics.Metrics.cache_hits;
              Alcotest.(check int)
                (name ^ ": nothing dirty") 0
                r.Analysis.metrics.Metrics.incr_funcs_dirty;
              let cold = Analysis.of_file ~opts source in
              check_identical name cold r;
              Alcotest.(check bool) (name ^ ": the run shows what is kept") true (witness cold))
        in
        List.iter
          (fun case -> List.iter (rekeys case) [ true; false ])
          [
            ("livc, heap by site", read_file (bench "livc"), "double kern_a_5", heap_by_site, Fun.const true);
            (* sim allocates after the comment: its heap@N names are the
               statement ids that must not go stale *)
            ("sim, heap by site", read_file (bench "sim"), "int max3", heap_by_site, site_rows);
            ( "livc, context-insensitive",
              read_file (bench "livc"),
              "double kern_a_5",
              { Options.default with Options.context_sensitive = false },
              Fun.const true );
            ( "warnings",
              warns,
              "void f(void)",
              Options.default,
              fun (r : Analysis.result) -> r.Analysis.warnings <> [] );
          ]);
    case "a rekey serves the fresh lowering and its typing environment" (fun () ->
        (* a statement holds no source position, so the comment leaves
           the lowering as it was: the rekey decodes the saved tables
           with the fresh lowering, skipping the saved program, and
           saves the entry under the new key, every later byte as it
           was; the next full hit serves the same program, plain or
           incremental *)
        List.iter
          (fun incremental ->
            in_temp (fun dir ->
                let name = if incremental then "incremental" else "plain" in
                let source = Filename.concat dir "livc.c" in
                let text = read_file (bench "livc") in
                write_file source text;
                let _ = Persist.analyze_cached ~cache_dir:dir ~incremental source in
                let entry_file = entry_file ~incremental ~dir source in
                let primed = read_file entry_file in
                let edited = livc_moved text in
                write_file source edited;
                let r, hit = Persist.analyze_cached ~cache_dir:dir ~incremental source in
                Alcotest.(check bool) (name ^ ": a hit") true hit;
                let fresh = Simple_ir.Simplify.of_string ~file:source edited in
                Alcotest.(check bool)
                  (name ^ ": the served program is the fresh lowering") true
                  (fresh = r.Analysis.prog);
                Alcotest.(check bool)
                  (name ^ ": the typing environment is the served program's")
                  true
                  (r.Analysis.tenv.Pointsto.Tenv.prog == r.Analysis.prog);
                Alcotest.(check bool)
                  (name ^ ": the entry past its key as primed") true
                  (String.equal (past_key primed) (past_key (read_file entry_file)));
                let r, hit = Persist.analyze_cached ~cache_dir:dir ~incremental source in
                Alcotest.(check bool) (name ^ ": then a full hit") true hit;
                Alcotest.(check bool)
                  (name ^ ": the full hit's program is the fresh lowering") true
                  (fresh = r.Analysis.prog)))
          [ true; false ]);
    case "whole suite: adding a function replays bit-identically" (fun () ->
        (* a new (uncalled) function changes the hash table, so the
           rekey path is off: the new function re-runs and the rest
           replays from summaries, growing the graph children at its
           indirect call sites from the recorded sites *)
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
                    if sharing opts then
                      Alcotest.(check bool)
                        (name ^ ": the new function is dirty, the suite is not")
                        true
                        (r.Analysis.metrics.Metrics.incr_funcs_dirty >= 1
                        && r.Analysis.metrics.Metrics.incr_funcs_dirty < n_funcs)
                    else no_replay name r;
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
                (* the drive functions call the kernels through
                   tables: their replays rebuild the kernels' graph
                   nodes, and only the kernel and its two callers re-run *)
                let m = r2.Analysis.metrics in
                if sharing opts then begin
                  Alcotest.(check bool)
                    ("most of livc replays" ^ mode)
                    true
                    (m.Metrics.incr_funcs_reused > 0 && m.Metrics.incr_nodes_rebuilt > 0);
                  Alcotest.(check bool)
                    ("only a sliver is dirty" ^ mode)
                    true
                    (m.Metrics.incr_funcs_dirty * 4 < n_funcs);
                  Alcotest.(check int)
                    ("the kernel, its driver and main are dirty" ^ mode)
                    3 m.Metrics.incr_funcs_dirty
                end
                else no_replay "livc edited" r2;
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

(* ------------------------------------------------------------------ *)
(* Frames by reference                                                *)
(* ------------------------------------------------------------------ *)

module Engine = Pointsto.Engine

let gen_prog shape =
  Simple_ir.Simplify.of_string ~file:("gen:" ^ shape)
    (Gen.program (Test_rows.gen_knobs shape))

let frame_tests =
  [
    case "frames keep their own function's rows and calls whose entries resolve" (fun () ->
        List.iter
          (fun shape ->
            let prog = gen_prog shape in
            let owner = Hashtbl.create 1024 in
            List.iter
              (fun f ->
                Ir.fold_func (fun () s -> Hashtbl.replace owner s.Ir.s_id f.Ir.fn_name) () f)
              prog.Ir.funcs;
            let res = Analysis.analyze ~record_summaries:true prog in
            let store = res.Analysis.summaries in
            let calls = ref 0 and dangling = ref 0 in
            Hashtbl.iter
              (fun fname by_input ->
                Pts.Tbl.iter
                  (fun _ (e : Engine.summary_entry) ->
                    match e.Engine.se_frame with
                    | None -> Alcotest.failf "%s: %s has no frame" shape fname
                    | Some fr ->
                        Array.iter
                          (fun (sid, _) ->
                            if Hashtbl.find_opt owner sid <> Some fname then
                              Alcotest.failf "%s: a frame of %s has a row for s%d" shape fname
                                sid)
                          fr.Engine.f_rows;
                        List.iter
                          (fun (c : Engine.call) ->
                            incr calls;
                            match c.Engine.c_in with
                            | Some i ->
                                if Option.is_none (Engine.resolve store c.Engine.c_fn i) then
                                  incr dangling
                            | None -> ())
                          fr.Engine.f_calls)
                  by_input)
              store;
            Alcotest.(check bool) (shape ^ ": calls are recorded") true (!calls > 0);
            Alcotest.(check int) (shape ^ ": every call's entry resolves") 0 !dangling)
          [ "deep"; "web"; "knot" ]);
    case "a memo hit's reference replays the callee's rows" (fun () ->
        (* [leaf] is evaluated under [x] and memo-hit, with the same
           input, under [y]. After [x] stops calling it, only the replay
           of [y] reaches [leaf]'s rows, through the call of [y]'s frame
           that names the entry the memo hit used *)
        let src ~edited =
          "int ga; int *pa;\n\
           void leaf(void) { int *q; q = &ga; }\n"
          ^ (if edited then "void x(void) { int t; t = 0; }\n" else "void x(void) { leaf(); }\n")
          ^ "void y(void) { leaf(); }\n\
             int main(void) { pa = &ga; x(); y(); return 0; }\n"
        in
        in_temp (fun dir ->
            let source = Filename.concat dir "memo.c" in
            write_file source (src ~edited:false);
            let _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
            write_file source (src ~edited:true);
            let r, _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
            Alcotest.(check int) "y replays" 1 r.Analysis.metrics.Metrics.incr_funcs_reused;
            check_identical "memo hit" (Analysis.of_file source) r));
    case "a replay's reference replays the callee's rows after a second edit" (fun () ->
        (* edit 1 re-runs [p], which replays [c], and [p]'s call names
           [c]'s entry; edit 2 re-runs [main] only, which replays [p]:
           [c]'s rows come through [p]'s call alone *)
        let v0 =
          "int ga; int *pa;\n\
           void c(void) { int *q; q = &ga; }\n\
           void p(void) { c(); }\n\
           int main(void) { pa = &ga; p(); return 0; }\n"
        in
        let v1 = replace_once ~sub:"void p(void) { c(); }" ~by:"void p(void) { int t; t = 0; c(); }" v0 in
        let v2 =
          replace_once ~sub:"int main(void) { pa = &ga;" ~by:"int main(void) { int t; t = 0; pa = &ga;" v1
        in
        List.iter
          (fun (mode, opts) ->
            in_temp (fun dir ->
                let source = Filename.concat dir "replay.c" in
                write_file source v0;
                let _ = Persist.analyze_cached ~cache_dir:dir ~opts ~incremental:true source in
                List.iter
                  (fun (label, text) ->
                    write_file source text;
                    let r, _ = Persist.analyze_cached ~cache_dir:dir ~opts ~incremental:true source in
                    Alcotest.(check int)
                      (label ^ mode ^ ": one replay")
                      (if sharing opts then 1 else 0)
                      r.Analysis.metrics.Metrics.incr_funcs_reused;
                    check_identical (label ^ mode) (Analysis.of_file ~opts source) r)
                  [ ("edit of p", v1); ("edit of main", v2) ]))
          share_modes);
    case "a caller re-evaluated with a grown input references the callee it reuses" (fun () ->
        (* the loop calls [p] twice, the second time with a grown input;
           [c]'s input is unchanged, so [p]'s second evaluation reuses
           [c]'s invocation-graph node. The edit calls [p] with that
           second input only: its replay must still bring [c]'s row *)
        let v1 =
          "int ga; int a; int b;\n\
           void c(void) { int *q; q = &ga; }\n\
           void p(int *x) { c(); }\n\
           void g(int n) { int i; int *x; x = &a; for (i = 0; i < n; i++) { p(x); x = &b; } }\n\
           int main(void) { g(2); return 0; }\n"
        in
        let v2 =
          replace_once
            ~sub:"void g(int n) { int i; int *x; x = &a; for (i = 0; i < n; i++) { p(x); x = &b; } }"
            ~by:"void g(int n) { int *x; if (n) x = &a; else x = &b; p(x); }" v1
        in
        in_temp (fun dir ->
            let source = Filename.concat dir "grown.c" in
            write_file source v1;
            let _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
            write_file source v2;
            let r, _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
            Alcotest.(check int) "p replays" 1 r.Analysis.metrics.Metrics.incr_funcs_reused;
            check_identical "grown input" (Analysis.of_file source) r));
    case "a frame referencing a callee that never returns is not saved" (fun () ->
        (* [spin]'s output stays bottom, so it is never stored and the
           call of [mid]'s frame that names it dangles: neither [mid] nor
           [main], whose call names [mid]'s entry, is saved with a
           frame. The edit of [main] re-runs [mid] and replays both
           [leaf] entries *)
        let v1 =
          "int g; int h; int *p; int *q;\n\
           int spin(int n) { int *r; r = &h; return spin(n); }\n\
           void leaf(void) { q = &h; }\n\
           void mid(void) { leaf(); if (g) spin(1); p = &g; }\n\
           int main(void) { mid(); leaf(); return 0; }\n"
        in
        let v2 =
          replace_once ~sub:"int main(void) { mid();" ~by:"int main(void) { int t; t = 0; mid();" v1
        in
        List.iter
          (fun (mode, opts) ->
            in_temp (fun dir ->
                let source = Filename.concat dir "spin.c" in
                write_file source v1;
                let _ = Persist.analyze_cached ~cache_dir:dir ~opts ~incremental:true source in
                let seeds =
                  Persist.load_summaries ~cache_dir:dir ~source ~opts
                    (Simple_ir.Simplify.of_string ~file:source v1)
                in
                let records fn =
                  match Option.bind seeds (fun st -> Hashtbl.find_opt st fn) with
                  | None -> 0
                  | Some by_input -> Pts.Tbl.length by_input
                in
                if sharing opts then
                  List.iter
                    (fun (fn, n) -> Alcotest.(check int) (fn ^ " records" ^ mode) n (records fn))
                    [ ("spin", 0); ("leaf", 2); ("mid", 0); ("main", 0) ]
                else Alcotest.(check bool) ("no summaries" ^ mode) true (Option.is_none seeds);
                write_file source v2;
                let r, _ = Persist.analyze_cached ~cache_dir:dir ~opts ~incremental:true source in
                let m = r.Analysis.metrics in
                if sharing opts then begin
                  Alcotest.(check int) ("one dirty" ^ mode) 1 m.Metrics.incr_funcs_dirty;
                  Alcotest.(check int) ("leaf replays twice" ^ mode) 2 m.Metrics.incr_funcs_reused
                end
                else no_replay "spin" r;
                check_identical ("spin" ^ mode) (Analysis.of_file ~opts source) r))
          share_modes);
    case "two chained edits equal a cold run: gen:deep, gen:web" (fun () ->
        (* the second re-analysis replays entries the first one saved
           after replaying them itself, and entries it only reached
           through calls *)
        List.iter
          (fun (mode, opts) ->
            List.iter
              (fun (shape, edits) ->
                in_temp (fun dir ->
                    let source = Filename.concat dir (shape ^ ".c") in
                    write_file source (Gen.program (Test_rows.gen_knobs shape));
                    let _ = Persist.analyze_cached ~cache_dir:dir ~opts ~incremental:true source in
                    List.iteri
                      (fun i fn ->
                        write_file source
                          (insert_at_top (read_file source) ~fn
                             ~line:(Printf.sprintf "    gp0 = &gv%d;\n" (i + 1)));
                        let r, hit =
                          Persist.analyze_cached ~cache_dir:dir ~opts ~incremental:true source
                        in
                        let name = Printf.sprintf "%s edit %d (%s)%s" shape (i + 1) fn mode in
                        Alcotest.(check bool) (name ^ ": not a full hit") false hit;
                        if sharing opts then
                          Alcotest.(check bool)
                            (name ^ ": summaries replay") true
                            (r.Analysis.metrics.Metrics.incr_funcs_reused > 0)
                        else no_replay name r;
                        check_identical name (Analysis.of_file ~opts source) r)
                      edits))
              [ ("deep", [ "f3_1"; "f2_1" ]); ("web", [ "f2_1"; "f1_3" ]) ])
          share_modes);
    case "an edit landing mid-analysis is not published under the new text's key" (fun () ->
        (* the source is rewritten while the fixpoint sleeps in [main]:
           the entry must key the text that was analyzed, so a lookup of
           the new text misses instead of serving the old tables *)
        in_temp (fun dir ->
            let source = Filename.concat dir "cone.c" in
            write_file source cone_src_v1;
            let writer =
              Domain.spawn (fun () ->
                  Unix.sleepf 0.25;
                  write_file source cone_src_v2)
            in
            let r1, _ =
              Fun.protect
                ~finally:(fun () -> Domain.join writer)
                (fun () ->
                  Pointsto.Fault.with_point ~fn:"main" ~sleep_ms:1000. Pointsto.Fault.Slow_fixpoint
                    (fun () -> Persist.analyze_cached ~cache_dir:dir ~incremental:true source))
            in
            let b_stmts (r : Analysis.result) =
              match Ir.find_func r.Analysis.prog "b" with
              | Some f -> Ir.count_stmts f
              | None -> Alcotest.fail "no b"
            in
            Alcotest.(check int)
              "the rewrite landed after the read: the old text was analyzed"
              (b_stmts (Analysis.of_string cone_src_v1))
              (b_stmts r1);
            let r2, hit = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
            Alcotest.(check bool) "the new text misses" false hit;
            check_identical "rewritten mid-analysis" (Analysis.of_file source) r2));
  ]

(* ------------------------------------------------------------------ *)
(* Segments: a save copies what the edit left alone                   *)
(* ------------------------------------------------------------------ *)

(** Records per function in a summary store. *)
let record_count (st : Engine.store) fn =
  match Hashtbl.find_opt st fn with Some by_input -> Pts.Tbl.length by_input | None -> 0

let deep_text () = Gen.program (Test_rows.gen_knobs "deep")

(* A one-line edit of [fn] that changes no pointer: the function's
   callers re-run, and the other calls they make see the inputs they saw
   before. *)
let leaf_edit text fn = insert_at_top text ~fn ~line:"    gv0 = gv0 + 1;\n"

let segment_tests =
  [
    case "a leaf edit copies every kept segment that gained no record, byte for byte" (fun () ->
        in_temp (fun dir ->
            let source = Filename.concat dir "deep.c" in
            let text = deep_text () in
            write_file source text;
            let _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
            let pti =
              Persist.cache_file_incr ~cache_dir:dir ~source ~opts:Options.default ~entry:"main"
            in
            let before = read_file pti in
            let old_prog = Simple_ir.Simplify.of_string ~file:source text in
            (* every function is kept against its own text: the records
               of every segment *)
            let old_records =
              match
                Persist.load_summaries ~cache_dir:dir ~source ~opts:Options.default old_prog
              with
              | Some st -> st
              | None -> Alcotest.fail "no summaries"
            in
            write_file source (leaf_edit text "f0_3");
            let r, _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
            check_identical "leaf edit" (Analysis.of_file source) r;
            let after = read_file pti in
            let kept =
              Persist.eligible_funcs ~targets:(fun _ -> []) r.Analysis.prog
                ~old_hashes:(digests old_prog)
                ~new_hashes:(digests r.Analysis.prog)
            in
            let copied = ref 0 and grown = ref 0 in
            List.iter
              (fun s ->
                if Hashtbl.mem kept s.name then
                  if record_count old_records s.name = record_count r.Analysis.summaries s.name
                  then begin
                    incr copied;
                    Alcotest.(check string)
                      (s.name ^ ": copied unchanged")
                      (String.sub before s.off s.len) (entry_section after s.name)
                  end
                  else incr grown)
              (entry_layout before).sections;
            Alcotest.(check bool)
              (Fmt.str "kept segments are copied (%d copied, %d grown)" !copied !grown)
              true (!copied > 0)));
    case "a pointer edit grows kept segments: the save keeps every record, old and new" (fun () ->
        (* the new target of [gp0] reaches the kept functions below the
           edited one as new inputs: their segments are re-encoded with
           the old records first, and the entry holds every framed
           entry of the run, however many of them are new *)
        in_temp (fun dir ->
            let source = Filename.concat dir "deep.c" in
            let text = deep_text () in
            write_file source text;
            let _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
            let old_prog = Simple_ir.Simplify.of_string ~file:source text in
            let summaries prog =
              match Persist.load_summaries ~cache_dir:dir ~source ~opts:Options.default prog with
              | Some st -> st
              | None -> Alcotest.fail "no summaries"
            in
            let old_records = summaries old_prog in
            write_file source (insert_at_top text ~fn:"f2_1" ~line:"    gp0 = &gv1;\n");
            let r, _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
            check_identical "pointer edit" (Analysis.of_file source) r;
            let _, hit = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
            Alcotest.(check bool) "the edited text's entry was saved" true hit;
            let framed fn =
              match Hashtbl.find_opt r.Analysis.summaries fn with
              | None -> 0
              | Some by_input ->
                  Pts.Tbl.fold
                    (fun _ (e : Engine.summary_entry) n ->
                      if Option.is_some e.Engine.se_frame then n + 1 else n)
                    by_input 0
            in
            let saved = summaries r.Analysis.prog in
            let kept =
              Persist.eligible_funcs ~targets:(fun _ -> []) r.Analysis.prog
                ~old_hashes:(digests old_prog)
                ~new_hashes:(digests r.Analysis.prog)
            in
            let grown = ref 0 in
            List.iter
              (fun (f : Ir.func) ->
                let fn = f.Ir.fn_name in
                Alcotest.(check int) (fn ^ ": every framed entry saved") (framed fn)
                  (record_count saved fn);
                if Hashtbl.mem kept fn && record_count saved fn > record_count old_records fn then
                  incr grown)
              r.Analysis.prog.Ir.funcs;
            Alcotest.(check bool) "some kept segment grew" true (!grown > 0)));
    case "a grown segment keeps the ordinals that copied callers reference" (fun () ->
        (* [g] has one record per caller, [f]'s and [k]'s. The second
           text gives [g] a third input, from [h]: [g]'s segment grows
           while [f]'s and [k]'s are copied, each still naming its
           record of [g] by ordinal. The third text drops the call to
           [k], so only [f]'s record of [g] may replay: [t -> gb] would
           be [k]'s *)
        let v1 =
          "int ga; int gb; int gc; int *p;\n\
           void g(int **q) { int *t; t = *q; }\n\
           void f(void) { p = &ga; g(&p); }\n\
           void k(void) { p = &gb; g(&p); }\n\
           void h(void) { p = &ga; }\n\
           int main(void) { f(); k(); h(); return 0; }\n"
        in
        let v2 =
          replace_once ~sub:"void h(void) { p = &ga; }" ~by:"void h(void) { p = &gc; g(&p); }" v1
        in
        let v3 = replace_once ~sub:"{ f(); k(); h();" ~by:"{ f(); h();" v2 in
        List.iter
          (fun (mode, opts) ->
            in_temp (fun dir ->
                let source = Filename.concat dir "ord.c" in
                write_file source v1;
                let _ = Persist.analyze_cached ~cache_dir:dir ~opts ~incremental:true source in
                List.iter
                  (fun (label, text) ->
                    write_file source text;
                    let r, _ =
                      Persist.analyze_cached ~cache_dir:dir ~opts ~incremental:true source
                    in
                    if sharing opts then
                      Alcotest.(check bool)
                        (label ^ mode ^ ": replays") true
                        (r.Analysis.metrics.Metrics.incr_funcs_reused > 0)
                    else no_replay label r;
                    check_identical (label ^ mode) (Analysis.of_file ~opts source) r)
                  [ ("g grows", v2); ("k dropped", v3) ]))
          share_modes);
    case "a damaged copied segment is caught by the next edit that keeps its function" (fun () ->
        in_temp (fun dir ->
            let source = Filename.concat dir "deep.c" in
            let text = deep_text () in
            write_file source text;
            let _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
            let pti =
              Persist.cache_file_incr ~cache_dir:dir ~source ~opts:Options.default ~entry:"main"
            in
            let primed = read_file pti in
            let text1 = leaf_edit text "f0_3" in
            write_file source text1;
            let r1, _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
            let saved = Bytes.of_string (read_file pti) in
            let text2 = leaf_edit text1 "f0_5" in
            let prog2 = Simple_ir.Simplify.of_string ~file:source text2 in
            let kept =
              Persist.eligible_funcs ~targets:(fun _ -> []) prog2
                ~old_hashes:(digests r1.Analysis.prog)
                ~new_hashes:(digests prog2)
            in
            (* a segment the first edit copied, of a function the second
               one keeps *)
            let victim =
              match
                List.find_opt
                  (fun s ->
                    Hashtbl.mem kept s.name
                    && String.equal (entry_section primed s.name)
                         (String.sub (Bytes.to_string saved) s.off s.len))
                  (entry_layout (Bytes.to_string saved)).sections
              with
              | Some s -> s
              | None -> Alcotest.fail "no copied segment of a kept function"
            in
            let i = victim.off + (victim.len / 2) in
            Bytes.set saved i (Char.chr (Char.code (Bytes.get saved i) lxor 0x10));
            write_file pti (Bytes.to_string saved);
            write_file source text2;
            let r2, hit = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
            let m = r2.Analysis.metrics in
            Alcotest.(check bool) "miss" false hit;
            Alcotest.(check int) (victim.name ^ ": quarantined") 1 m.Metrics.cache_quarantined;
            Alcotest.(check int) "nothing replayed" 0 m.Metrics.incr_funcs_reused;
            check_identical "damaged segment" (Analysis.of_file source) r2));
  ]

(* ------------------------------------------------------------------ *)
(* Replay through function pointers                                   *)
(* ------------------------------------------------------------------ *)

module Stats = Pointsto.Stats

(** The functions of [p] that reach themselves through direct calls. *)
let direct_cycle_members (p : Ir.program) =
  let callees = Hashtbl.create 64 in
  List.iter
    (fun f -> Hashtbl.replace callees f.Ir.fn_name (List.map snd (Ig.direct_call_sites f)))
    p.Ir.funcs;
  let reaches_self fn =
    let seen = Hashtbl.create 64 in
    let rec go g =
      List.exists
        (fun h ->
          String.equal h fn
          || ((not (Hashtbl.mem seen h))
             && begin
                  Hashtbl.replace seen h ();
                  go h
                end))
        (Option.value ~default:[] (Hashtbl.find_opt callees g))
    in
    go fn
  in
  List.filter_map
    (fun f -> if reaches_self f.Ir.fn_name then Some f.Ir.fn_name else None)
    p.Ir.funcs

(** The function-pointer targets of indirect call [s] of [f] in [res]:
    what a [calls] query answers. *)
let indirect_targets (res : Analysis.result) (f : Ir.func) (s : Ir.stmt) =
  match s.Ir.s_desc with
  | Ir.Scall (_, Ir.Cindirect fref, _) ->
      Loc.Map.fold
        (fun l _ acc -> match l with Loc.Fun g -> g :: acc | _ -> acc)
        (Pointsto.Lval.rvals_ref res.Analysis.tenv f (Analysis.pts_at res s.Ir.s_id) fref)
        []
  | _ -> []

(** [fn] and every function that reaches it over the direct calls and
    the indirect targets of [res]: the dirty set an edit of [fn] leaves
    when [res] primed the entry. *)
let expected_dirty (res : Analysis.result) fn =
  let callees = Hashtbl.create 64 in
  List.iter
    (fun f ->
      Hashtbl.replace callees f.Ir.fn_name
        (Ir.fold_func
           (fun acc s ->
             match s.Ir.s_desc with
             | Ir.Scall (_, Ir.Cdirect g, _) -> g :: acc
             | _ -> indirect_targets res f s @ acc)
           [] f))
    res.Analysis.prog.Ir.funcs;
  let rec reaches seen g =
    String.equal g fn
    || List.exists
         (fun h -> (not (List.mem h seen)) && reaches (h :: seen) h)
         (Option.value ~default:[] (Hashtbl.find_opt callees g))
  in
  List.length
    (List.filter (fun f -> reaches [ f.Ir.fn_name ] f.Ir.fn_name) res.Analysis.prog.Ir.funcs)

(** Everything a replay through function pointers must reproduce beyond
    {!check_identical}: the Table 5 and Table 6 statistics and the
    [calls] answer at every indirect call site. *)
let check_pointer_surface name (cold : Analysis.result) (incr : Analysis.result) =
  Alcotest.(check bool)
    (name ^ ": Table 6 invocation-graph statistics")
    true
    (Stats.ig_stats cold = Stats.ig_stats incr);
  Alcotest.(check bool)
    (name ^ ": Table 5 indirect-reference statistics")
    true
    (Stats.indirect_stats cold = Stats.indirect_stats incr);
  let calls (res : Analysis.result) =
    List.concat_map
      (fun f ->
        Ir.fold_func
          (fun acc s ->
            match s.Ir.s_desc with
            | Ir.Scall (_, Ir.Cindirect _, _) ->
                (match Alias.Query.answer res (Alias.Query.Calls_q { stmt = s.Ir.s_id }) with
                | Ok a -> a
                | Error e -> "error " ^ e)
                :: acc
            | _ -> acc)
          [] f)
      res.Analysis.prog.Ir.funcs
  in
  Alcotest.(check (list string)) (name ^ ": calls answers") (calls cold) (calls incr)

(** The three one-line edits the [perf] [edit] workload makes, for the
    [i]th edited function. *)
let edit_kinds i =
  [
    ("comment", Printf.sprintf "    /* edit %d */\n" i);
    ("gv0", Printf.sprintf "    gv0 = gv0 + %d;\n" (1 + (i mod 7)));
    ("gp0", Printf.sprintf "    gp0 = &gv%d;\n" (i mod 4));
  ]

let pointer_tests =
  [
    case "web, knot: every edit outside a direct-call cycle equals a cold run" (fun () ->
        List.iter
          (fun (mode, opts) ->
            List.iter
              (fun shape ->
                in_temp (fun dir ->
                    let source = Filename.concat dir (shape ^ ".c") in
                    let text = Gen.program (Test_rows.gen_knobs shape) in
                    write_file source text;
                    let primed_res, _ =
                      Persist.analyze_cached ~cache_dir:dir ~opts ~incremental:true source
                    in
                    let pti = Persist.cache_file_incr ~cache_dir:dir ~source ~opts ~entry:"main" in
                    let primed = read_file pti in
                    let cycles = direct_cycle_members primed_res.Analysis.prog in
                    let edited =
                      List.filter
                        (fun f ->
                          let n = f.Ir.fn_name in
                          n <> "main" && n.[0] = 'f' && not (List.mem n cycles))
                        primed_res.Analysis.prog.Ir.funcs
                    in
                    Alcotest.(check bool) (shape ^ ": functions to edit") true (edited <> []);
                    let rebuilt = ref 0 in
                    List.iteri
                      (fun i f ->
                        let fn = f.Ir.fn_name in
                        List.iter
                          (fun (kind, line) ->
                            write_file source (insert_at_top text ~fn ~line);
                            write_file pti primed;
                            let r, hit =
                              Persist.analyze_cached ~cache_dir:dir ~opts ~incremental:true source
                            in
                            let name = Printf.sprintf "%s, %s edit of %s%s" shape kind fn mode in
                            let cold = Analysis.of_file ~opts source in
                            check_identical name cold r;
                            check_pointer_surface name cold r;
                            let m = r.Analysis.metrics in
                            rebuilt := !rebuilt + m.Metrics.incr_nodes_rebuilt;
                            if hit || sharing opts then
                              Alcotest.(check int)
                                (name ^ ": dirty")
                                (if hit then 0 else expected_dirty primed_res fn)
                                m.Metrics.incr_funcs_dirty
                            else no_replay name r;
                            Alcotest.(check bool) (name ^ ": a comment rekeys") (kind = "comment") hit)
                          (edit_kinds i))
                      edited;
                    Alcotest.(check bool)
                      (shape ^ mode ^ ": replays rebuild graph nodes")
                      (sharing opts) (!rebuilt > 0)))
              [ "web"; "knot" ])
          share_modes);
  ]

let memo_tests =
  [
    case "a replay grows no subtree under an entry already used this run" (fun () ->
        (* [m] calls [h] twice with one input. With §6 sharing the
           second call is a memo hit, so a cold run grows [t]'s node
           under the first [h] only. The edit of [main] replays [m],
           whose walk must do the same *)
        let v1 =
          "int ga; int *pa;\n\
           void t(void) { int *q; q = &ga; }\n\
           void (*fp)(void);\n\
           void h(void) { fp(); }\n\
           void m(void) { h(); h(); }\n\
           int main(void) { fp = t; m(); return 0; }\n"
        in
        let v2 = replace_once ~sub:"int main(void) {" ~by:"int main(void) { int k; k = 0;" v1 in
        in_temp (fun dir ->
            let source = Filename.concat dir "memo.c" in
            write_file source v1;
            let _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
            write_file source v2;
            let r, _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
            let m = r.Analysis.metrics in
            Alcotest.(check int) "m replays" 1 m.Metrics.incr_funcs_reused;
            Alcotest.(check int) "t's node rebuilt once" 1 m.Metrics.incr_nodes_rebuilt;
            check_identical "memo" (Analysis.of_file source) r));
  ]

let target_list_tests =
  [
    case "a kept record's targets stay listed after its input stops occurring" (fun () ->
        (* the first edit sends [H] a new input, so its segment keeps the
           record that called [T1] next to the new one calling [T2]; the
           index must still list [T1] for [H], or the next lookup would
           read that record as damage, and an edit of [T1] would not make
           [H] dirty *)
        let v1 =
          "int ga; int gb; int *p;\n\
           void (*fp)(void);\n\
           void T1(void) { p = &ga; }\n\
           void T2(void) { p = &gb; }\n\
           void H(void) { fp(); }\n\
           int main(void) { fp = T1; H(); return 0; }\n"
        in
        let v2 = replace_once ~sub:"fp = T1; H();" ~by:"fp = T2; H();" v1 in
        let v3 = replace_once ~sub:"void T1(void) { p = &ga; }" ~by:"void T1(void) { p = &gb; }" v2 in
        let v4 = replace_once ~sub:"fp = T2; H();" ~by:"fp = T1; H();" v3 in
        in_temp (fun dir ->
            let source = Filename.concat dir "kept.c" in
            write_file source v1;
            let _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
            List.iter
              (fun (label, text, dirty) ->
                write_file source text;
                let r, _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
                let m = r.Analysis.metrics in
                Alcotest.(check int) (label ^ ": nothing quarantined") 0 m.Metrics.cache_quarantined;
                Alcotest.(check int) (label ^ ": dirty") dirty m.Metrics.incr_funcs_dirty;
                check_identical label (Analysis.of_file source) r)
              [
                ("main sends H a new input", v2, 1);
                (* T1, and H, whose kept record calls it, re-run *)
                ("T1 edited", v3, 3);
                ("main calls T1 again", v4, 1);
              ]));
  ]

let cycle_tests =
  [
    case "eligible_funcs: listed targets join the closure; cycles through them are barred"
      (fun () ->
        (* [loop] and [back] form a cycle through a listed target, and
           [m1] and [m2] a direct-call one whose closure calls through a
           pointer: all four, and [main], stay dirty. [hub] replays
           through its listed target, and so does [self], whose only
           cycle-mate is itself *)
        let src =
          "int g; int *p;\n\
           void tgt(void) { p = &g; }\n\
           void hub(void (*fp)(void)) { fp(); }\n\
           void back(void);\n\
           void loop(void (*fp)(void)) { fp(); }\n\
           void back(void) { loop(back); }\n\
           void m1(int n);\n\
           void m2(int n) { if (n) m1(n - 1); hub(tgt); }\n\
           void m1(int n) { if (n) m2(n - 1); }\n\
           void (*sp)(int);\n\
           void self(int n) { if (n) sp(n - 1); }\n\
           int main(void) { sp = self; hub(tgt); back(); m1(2); self(2); return 0; }\n"
        in
        let prog = simplify src in
        let targets = function
          | "hub" -> [ "tgt" ]
          | "loop" -> [ "back" ]
          | "self" -> [ "self" ]
          | _ -> []
        in
        let elig =
          Persist.eligible_funcs ~targets prog ~old_hashes:(digests prog)
            ~new_hashes:(digests prog)
        in
        let names = Hashtbl.fold (fun n () acc -> n :: acc) elig [] |> List.sort compare in
        Alcotest.(check (list string)) "replayable" [ "hub"; "self"; "tgt" ] names);
    case "a replay grows the approximate node of a self-call through a pointer" (fun () ->
        let v1 =
          "int ga; int *p;\n\
           void (*sp)(int);\n\
           void s(int n) { p = &ga; if (n) sp(n - 1); }\n\
           void w(void) { s(3); }\n\
           int main(void) { sp = s; w(); return 0; }\n"
        in
        let v2 = replace_once ~sub:"int main(void) {" ~by:"int main(void) { int k; k = 0;" v1 in
        List.iter
          (fun (mode, opts) ->
            in_temp (fun dir ->
                let source = Filename.concat dir "self.c" in
                write_file source v1;
                let _ = Persist.analyze_cached ~cache_dir:dir ~opts ~incremental:true source in
                write_file source v2;
                let r, _ = Persist.analyze_cached ~cache_dir:dir ~opts ~incremental:true source in
                let m = r.Analysis.metrics in
                if sharing opts then begin
                  Alcotest.(check int) ("w replays" ^ mode) 1 m.Metrics.incr_funcs_reused;
                  Alcotest.(check int)
                    ("s's approximate node rebuilt" ^ mode)
                    1 m.Metrics.incr_nodes_rebuilt
                end
                else no_replay "self-call" r;
                check_identical ("self-call" ^ mode) (Analysis.of_file ~opts source) r))
          share_modes);
    case "a cycle through a function pointer that only the edited run takes is not replayed"
      (fun () ->
        (* at first [F] resets [fp] to [T] before it calls [A], so [A]
           only ever calls [T]. The edit makes [M] call [A] with [fp]
           pointing to [F], the input [F]'s summary was recorded for:
           a cold run evaluates [F] under [A], whose call back to [A]
           is an approximate node, so [F] must not replay there. The
           save lists the new edge, so the next edit bars the cycle *)
        let v1 =
          "int ga; int gb; int *p; int *q;\n\
           void (*fp)(void);\n\
           void T(void) { q = &gb; }\n\
           void A(void) { fp(); p = &ga; }\n\
           void F(void) { fp = T; A(); q = p; }\n\
           void M(void) { fp = F; F(); }\n\
           int main(void) { M(); return 0; }\n"
        in
        let v2 = replace_once ~sub:"void M(void) { fp = F; F(); }" ~by:"void M(void) { fp = F; A(); }" v1 in
        (* here the evaluation under [A] has the seed's input and an
           output of its own: [A]'s approximate node hands back [x]'s
           possible target, which the seed's [F] had killed. [M] then
           calls [F] again with that input, which a cold run answers
           from the cycle's evaluation (a §6 memo hit), so that
           evaluation must take the seed's place in the store *)
        let w1 =
          "int ga; int gb; int c; int *p; int *q; int *x;\n\
           void T(void) { q = &gb; }\n\
           void A(void (*g)(void)) { g(); p = q; }\n\
           void F(void) { x = 0; A(T); q = x; }\n\
           void M(void) { if (c) x = &ga; F(); }\n\
           int main(void) { M(); return 0; }\n"
        in
        let w2 =
          replace_once ~sub:"void M(void) { if (c) x = &ga; F(); }"
            ~by:
              "void M(void) { void (*h)(void); if (c) x = &ga; if (c) h = F; else h = T; A(h);\n\
              \  p = 0; q = 0; x = 0; if (c) x = &ga; F(); }"
            w1
        in
        let added v = v ^ "void added(void) { }\n" in
        List.iter
          (fun (name, v1, v2) ->
            List.iter
              (fun (mode, opts) ->
                in_temp (fun dir ->
                    let source = Filename.concat dir "knot.c" in
                    write_file source v1;
                    let _ = Persist.analyze_cached ~cache_dir:dir ~opts ~incremental:true source in
                    List.iter
                      (fun (label, text) ->
                        write_file source text;
                        let r, _ =
                          Persist.analyze_cached ~cache_dir:dir ~opts ~incremental:true source
                        in
                        if not (sharing opts) then no_replay name r;
                        check_identical
                          (name ^ ", " ^ label ^ mode)
                          (Analysis.of_file ~opts source) r)
                      [ ("edit of M", v2); ("added function", added v2) ]))
              share_modes)
          [ ("fp reset", v1, v2); ("F called again", w1, w2) ]);
  ]

let site_control_tests =
  [
    case "a program without indirect call sites records direct calls only" (fun () ->
        (* read independently of Persist: the deep program's index lists
           no targets and every call record of its segments names a
           direct call of its callee, while a web program's entry, read
           the same way, has targets and records of indirect calls *)
        let entry shape =
          in_temp (fun dir ->
              let source = Filename.concat dir (shape ^ ".c") in
              let text = Gen.program (Test_rows.gen_knobs shape) in
              write_file source text;
              let _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
              ( simplify text,
                read_file
                  (Persist.cache_file_incr ~cache_dir:dir ~source ~opts:Options.default
                     ~entry:"main") ))
        in
        (* each call record's statement, in its function's textual
           order *)
        let calls (prog, data) =
          List.concat_map
            (fun s ->
              if s.name = "" then []
              else
                let stmts =
                  match Ir.find_func prog s.name with
                  | Some f -> Array.of_list (List.rev (Ir.fold_func (fun acc s -> s :: acc) [] f))
                  | None -> Alcotest.failf "no function %s" s.name
                in
                List.concat_map
                  (List.map (fun (li, g, _) -> (stmts.(li).Ir.s_desc, g)))
                  (segment_calls (entry_section data s.name)))
            (entry_layout data).sections
        in
        let direct = function
          | Ir.Scall (_, Ir.Cdirect f, _), g -> String.equal f g
          | _ -> false
        in
        let indirect = function Ir.Scall (_, Ir.Cindirect _, _), _ -> true | _ -> false in
        let deep = entry "deep" and web = entry "web" in
        Alcotest.(check (list (pair string (list string))))
          "deep: the index lists no targets" [] (entry_layout (snd deep)).targets;
        let deep_calls = calls deep in
        Alcotest.(check bool) "deep: calls read" true (List.length deep_calls > 10);
        Alcotest.(check bool) "deep: every call is direct" true (List.for_all direct deep_calls);
        Alcotest.(check bool)
          "web: the index lists targets" true
          ((entry_layout (snd web)).targets <> []);
        Alcotest.(check bool) "web: records name indirect calls" true
          (List.exists indirect (calls web)));
  ]

(* ------------------------------------------------------------------ *)
(* Replay without sharing                                             *)
(* ------------------------------------------------------------------ *)

(** web-600, the [perf] web shape at size 600: with sharing off, every
    one-line edit must re-run in full and equal a cold run. A seed
    replayed at every use without sharing makes these two edits differ
    from a cold run at s36. *)
let no_sharing_tests =
  [
    case "web-600 without sharing: an edit re-runs in full and equals a cold run" (fun () ->
        in_temp (fun dir ->
            let source = Filename.concat dir "web600.c" in
            let text =
              Gen.program { (Test_rows.gen_knobs "web") with Gen.size = 600 }
            in
            write_file source text;
            let opts = no_sharing in
            let _ = Persist.analyze_cached ~cache_dir:dir ~opts ~incremental:true source in
            let pti = Persist.cache_file_incr ~cache_dir:dir ~source ~opts ~entry:"main" in
            let primed = read_file pti in
            List.iter
              (fun (fn, line) ->
                write_file source (insert_at_top text ~fn ~line);
                write_file pti primed;
                let r, _ = Persist.analyze_cached ~cache_dir:dir ~opts ~incremental:true source in
                let name = Printf.sprintf "%s atop %s" (String.trim line) fn in
                no_replay name r;
                let cold = Analysis.of_file ~opts source in
                check_identical name cold r;
                check_pointer_surface name cold r)
              [ ("f0_3", "    gp0 = &gv1;\n"); ("f3_1", "    gv0 = gv0 + 2;\n") ]));
  ]

(* ------------------------------------------------------------------ *)
(* Adoption: a replayed function takes its saved rows                 *)
(* ------------------------------------------------------------------ *)

(** The result section's blocks of the incremental entry in [dir], by
    function: whether stored frames alone made the rows, and the
    ordinals of their records. *)
let blocks_of ~dir ~source =
  let pti = Persist.cache_file_incr ~cache_dir:dir ~source ~opts:Options.default ~entry:"main" in
  List.map
    (fun (fn, complete, ords, _) -> (fn, (complete, ords)))
    (result_blocks (entry_section (read_file pti) ""))

(** Prime [v1], analyze [v2] incrementally, and check it, and the full
    hit its save then serves, against a cold run; [check] gets the
    primed entry's blocks ({!blocks_of}) and the re-analysis's
    metrics. *)
let prime_then ~name v1 v2 check =
  in_temp (fun dir ->
      let source = Filename.concat dir (name ^ ".c") in
      write_file source v1;
      let _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
      let saved = blocks_of ~dir ~source in
      write_file source v2;
      let r, _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
      let cold = Analysis.of_file source in
      check_identical name cold r;
      check_pointer_surface name cold r;
      let loaded, hit = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
      Alcotest.(check bool) (name ^ ": then a hit") true hit;
      check_identical (name ^ ", saved") cold loaded;
      check saved r.Analysis.metrics)

let adoption_tests =
  [
    case "a counter edit atop a leaf adopts saved rows: deep-800, web-600" (fun () ->
        List.iter
          (fun (shape, size, fn) ->
            let text = Gen.program { (Test_rows.gen_knobs shape) with Gen.size } in
            prime_then ~name:shape text (leaf_edit text fn) (fun _ m ->
                Alcotest.(check bool)
                  (Printf.sprintf "%s-%d: functions adopt their rows (%d of %d replays)" shape size
                     m.Metrics.incr_funcs_adopted m.Metrics.incr_funcs_reused)
                  true
                  (m.Metrics.incr_funcs_adopted > 0)))
          [ ("deep", 800, "f0_3"); ("web", 600, "f0_2") ]);
    case "a function whose saved rows are incomplete is folded, not adopted" (fun () ->
        (* [f] runs twice: under [a] it calls [spin], never returns and
           is not stored; under [b] it is stored with its frame. Its
           block lists [b]'s record and is incomplete. After the edit
           [a] no longer calls [f], and [f] only replays under [b]: its
           saved rows would still carry [a]'s [x -> ga] *)
        let v1 =
          "int ga; int gb; int gc; int *p;\n\
           void spin(void) { spin(); }\n\
           void stop(void) { int t; t = 0; }\n\
           void f(int *x, void (*k)(void)) { p = x; k(); }\n\
           void a(void) { if (gc) f(&ga, spin); }\n\
           void b(void) { f(&gb, stop); }\n\
           int main(void) { a(); b(); return 0; }\n"
        in
        let v2 =
          replace_once ~sub:"void a(void) { if (gc) f(&ga, spin); }"
            ~by:"void a(void) { int t; t = 0; }" v1
        in
        prime_then ~name:"incomplete" v1 v2 (fun saved m ->
            Alcotest.(check (list (pair string (pair bool (list int)))))
              "the saved blocks"
              [
                ("spin", (false, []));
                ("stop", (true, [ 0 ]));
                ("f", (false, [ 0 ]));
                ("a", (false, []));
                ("b", (true, [ 0 ]));
                ("main", (false, []));
              ]
              saved;
            Alcotest.(check int) "b replays, f and stop in its cone" 1 m.Metrics.incr_funcs_reused;
            Alcotest.(check int) "b and stop adopt, f folds" 2 m.Metrics.incr_funcs_adopted);
        (* the fixture where a frame names a callee that never returns:
           [spin] and [mid] ran without a stored frame, and [main]'s
           frame names [mid]'s, so their blocks are incomplete *)
        in_temp (fun dir ->
            let source = Filename.concat dir "spin.c" in
            write_file source
              "int g; int h; int *p; int *q;\n\
               int spin(int n) { int *r; r = &h; return spin(n); }\n\
               void leaf(void) { q = &h; }\n\
               void mid(void) { leaf(); if (g) spin(1); p = &g; }\n\
               int main(void) { mid(); leaf(); return 0; }\n";
            let _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
            Alcotest.(check (list (pair string (pair bool (list int)))))
              "the saved blocks"
              [
                ("spin", (false, []));
                ("leaf", (true, [ 0; 1 ]));
                ("mid", (false, []));
                ("main", (false, []));
              ]
              (blocks_of ~dir ~source)));
    case "a function whose replayed records differ from its listed ones is folded" (fun () ->
        (* [leaf]'s rows were made by its records under [b] and [a];
           after the edit only [b]'s replays *)
        let v1 =
          "int ga; int gb; int *p;\n\
           void leaf(int *x) { p = x; }\n\
           void a(void) { leaf(&ga); }\n\
           void b(void) { leaf(&gb); }\n\
           int main(void) { b(); a(); return 0; }\n"
        in
        let v2 =
          replace_once ~sub:"void a(void) { leaf(&ga); }" ~by:"void a(void) { int t; t = 0; }" v1
        in
        prime_then ~name:"differ" v1 v2 (fun saved m ->
            Alcotest.(check (pair bool (list int)))
              "leaf's saved block" (true, [ 0; 1 ]) (List.assoc "leaf" saved);
            Alcotest.(check int) "b replays, leaf in its cone" 1 m.Metrics.incr_funcs_reused;
            Alcotest.(check int) "b adopts, leaf folds" 1 m.Metrics.incr_funcs_adopted));
    case "a version-11 entry is not read: the lookup runs cold and primes it again" (fun () ->
        (* and so is one of format 13, whose graph nodes held IN/OUT
           pairs, of format 14, whose metrics counted checkpointed
           functions, or of format 15, whose program held source
           positions and whose metrics held timings *)
        Alcotest.(check int) "this format" 16 Persist.version;
        List.iter
          (fun v ->
            in_temp (fun dir ->
                let source = Filename.concat dir "deep.c" in
                let text = deep_text () in
                write_file source text;
                let _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
                let pti =
                  Persist.cache_file_incr ~cache_dir:dir ~source ~opts:Options.default
                    ~entry:"main"
                in
                (* the version is the byte after the 5-byte magic *)
                let old = Bytes.of_string (read_file pti) in
                Bytes.set_uint8 old 5 v;
                write_file pti (Bytes.to_string old);
                write_file source (leaf_edit text "f0_3");
                let r, hit = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
                let m = r.Analysis.metrics in
                let name = Printf.sprintf "version %d" v in
                Alcotest.(check bool) (name ^ ": a miss") false hit;
                Alcotest.(check int) (name ^ ": quarantined") 1 m.Metrics.cache_quarantined;
                Alcotest.(check int) (name ^ ": nothing replayed") 0 m.Metrics.incr_funcs_reused;
                Alcotest.(check int) (name ^ ": nothing adopted") 0 m.Metrics.incr_funcs_adopted;
                check_identical name (Analysis.of_file source) r;
                Alcotest.(check int)
                  (name ^ ": primed at this version")
                  16
                  (Char.code (read_file pti).[5]);
                let _, hit = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
                Alcotest.(check bool) (name ^ ": then a hit") true hit))
          [ 11; 13; 14; 15 ]);
  ]

(* ------------------------------------------------------------------ *)
(* Graph readers: the shape and map information of a loaded graph      *)
(* ------------------------------------------------------------------ *)

(** Every node's map information, in pre-order under its id. *)
let map_infos (g : Ig.t) =
  let pp_rep ppf (l, ls) = Fmt.pf ppf "%a->%a" Loc.pp l Fmt.(list ~sep:comma Loc.pp) ls in
  List.rev
    (Ig.fold
       (fun acc n ->
         Fmt.str "%s#%d %a" n.Ig.func n.Ig.id Fmt.(list ~sep:semi pp_rep) n.Ig.map_info :: acc)
       [] g)

(** Constant propagation's folding sites, which read the graph's map
    information at every call. *)
let fold_sites (r : Analysis.result) =
  List.map
    (fun fs ->
      Fmt.str "s%d %s %a = %Ld" fs.Constprop.fs_stmt fs.Constprop.fs_func Loc.pp
        fs.Constprop.fs_loc fs.Constprop.fs_value)
    (Constprop.fold_sites (Constprop.run r))

(** What every reader of the invocation graph answers for [r] must be
    what it answers for [cold]: [ptan ig]'s tree, Table 6, the call
    graph's edges and the constant folds. *)
let check_graph_readers name (cold : Analysis.result) (r : Analysis.result) =
  Alcotest.(check string)
    (name ^ ": ptan ig")
    (Fmt.str "%a" Ig.pp cold.Analysis.graph)
    (Fmt.str "%a" Ig.pp r.Analysis.graph);
  Alcotest.(check bool) (name ^ ": Table 6") true (Stats.ig_stats cold = Stats.ig_stats r);
  Alcotest.(check (list (pair string string)))
    (name ^ ": call graph edges")
    (Alias.Callgraph.edges_of_result cold)
    (Alias.Callgraph.edges_of_result r);
  Alcotest.(check (list string)) (name ^ ": constant folds") (fold_sites cold) (fold_sites r)

(** config.c with [int bench_probe_x; bench_probe_x = 0;] atop
    [check_ptr]: the run replays [check_ptr]'s callers, whose frames'
    calls must give the nodes the replay grows their map information. *)
let config_edit text =
  replace_once ~sub:"int check_ptr(int *p, int *q) {"
    ~by:"int check_ptr(int *p, int *q) { int bench_probe_x; bench_probe_x = 0;" text

let graph_reader_tests =
  [
    case "every graph reader answers a hit, a rekey and an incremental run as cold" (fun () ->
        let web600 = Gen.program { (Test_rows.gen_knobs "web") with Gen.size = 600 } in
        List.iter
          (fun (name, text, edit) ->
            List.iter
              (fun incremental ->
                in_temp (fun dir ->
                    let source = Filename.concat dir (name ^ ".c") in
                    let lookup what ~hit text =
                      write_file source text;
                      let r, was_hit = Persist.analyze_cached ~cache_dir:dir ~incremental source in
                      let what = Printf.sprintf "%s%s: %s" name (if incremental then " (incremental)" else "") what in
                      Alcotest.(check bool) (what ^ ": a hit") hit was_hit;
                      let cold = Analysis.of_file source in
                      check_graph_readers what cold r;
                      Alcotest.(check (list string))
                        (what ^ ": map information")
                        (map_infos cold.Analysis.graph) (map_infos r.Analysis.graph)
                    in
                    lookup "primed" ~hit:false text;
                    lookup "a hit" ~hit:true text;
                    lookup "a rekey" ~hit:true (text ^ "\n/* a comment */\n");
                    lookup "an edit" ~hit:false (edit text);
                    lookup "the edit's hit" ~hit:true (edit text)))
              [ false; true ])
          [
            ( "livc",
              read_file (bench "livc"),
              replace_once ~sub:"double kern_a_5(void) { int i;"
                ~by:"double kern_a_5(void) { int i; int edit_probe; edit_probe = 0;" );
            ("config", read_file (bench "config"), config_edit);
            ("web600", web600, fun t -> insert_at_top t ~fn:"f1_3" ~line:"    gp0 = &gv1;\n");
          ]);
    case "a replay gives the nodes it grows their map information: config.c" (fun () ->
        (* without their calls' map information, the nodes a replay
           grows have none, and constant propagation folds s147 and
           s200, which a cold run does not *)
        in_temp (fun dir ->
            let source = Filename.concat dir "config.c" in
            let text = read_file (bench "config") in
            write_file source text;
            let _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
            write_file source (config_edit text);
            let r, hit = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
            Alcotest.(check bool) "a partial hit" false hit;
            Alcotest.(check bool) "summaries replay" true
              (r.Analysis.metrics.Metrics.incr_funcs_reused > 0);
            let cold = Analysis.of_file source in
            check_identical "config" cold r;
            Alcotest.(check int) "cold folds" 47 (List.length (fold_sites cold));
            Alcotest.(check (list string)) "constant folds" (fold_sites cold) (fold_sites r);
            Alcotest.(check (list string))
              "every node's map information" (map_infos cold.Analysis.graph)
              (map_infos r.Analysis.graph)));
  ]

(* ------------------------------------------------------------------ *)
(* The stable entry, plain and incremental                             *)
(* ------------------------------------------------------------------ *)

let stable_entry_tests =
  [
    case "comment and real edits of one source leave one plain entry for it" (fun () ->
        in_temp (fun dir ->
            let source = Filename.concat dir "livc.c" in
            let text = read_file (bench "livc") in
            let real t =
              replace_once ~sub:"double kern_a_5(void) { int i;"
                ~by:"double kern_a_5(void) { int i; int edit_probe; edit_probe = 0;" t
            in
            let ptc () =
              List.filter
                (fun f -> Filename.check_suffix f ".ptc")
                (Array.to_list (Sys.readdir dir))
            in
            List.iteri
              (fun k t ->
                write_file source t;
                let r, _ = Persist.analyze_cached ~cache_dir:dir source in
                check_identical (Fmt.str "edit %d" k) (Analysis.of_file source) r;
                Alcotest.(check int) (Fmt.str "edit %d: one .ptc" k) 1 (List.length (ptc ())))
              [
                text;
                text ^ "\n/* a comment */\n";
                livc_moved text;
                real text;
                real text ^ "/* and another */\n";
                real (livc_moved text);
              ]));
    case "two cold primes of one source write the same bytes, plain and incremental" (fun () ->
        (* an entry holds the lowered program, the answers and the
           run's counts, none of which depends on when it ran *)
        in_temp (fun dir ->
            let source = Filename.concat dir "livc.c" in
            write_file source (read_file (bench "livc"));
            List.iter
              (fun incremental ->
                let name = if incremental then "incremental" else "plain" in
                let prime () =
                  in_temp (fun cache_dir ->
                      let _, hit = Persist.analyze_cached ~cache_dir ~incremental source in
                      Alcotest.(check bool) (name ^ ": a miss") false hit;
                      read_file (entry_file ~incremental ~dir:cache_dir source))
                in
                let first = prime () in
                Alcotest.(check bool) (name ^ ": equal bytes") true (String.equal first (prime ())))
              [ true; false ]));
    case "a full hit and a rekey report their own incremental counters" (fun () ->
        (* nothing re-ran: nothing dirty, every defined function served,
           no graph node rebuilt, no function adopted, whatever the run
           that saved the entry counted *)
        let text = Gen.program { (Test_rows.gen_knobs "web") with Gen.size = 600 } in
        List.iter
          (fun incremental ->
            in_temp (fun dir ->
                let mode = if incremental then "incremental" else "plain" in
                let source = Filename.concat dir "web.c" in
                let lookup name expect_hit =
                  let r, hit = Persist.analyze_cached ~cache_dir:dir ~incremental source in
                  Alcotest.(check bool) (Printf.sprintf "%s, %s: a hit" mode name) expect_hit hit;
                  let m = r.Analysis.metrics in
                  ( List.length r.Analysis.prog.Ir.funcs,
                    [
                      m.Metrics.incr_funcs_dirty;
                      m.Metrics.incr_funcs_reused;
                      m.Metrics.incr_nodes_rebuilt;
                      m.Metrics.incr_funcs_adopted;
                    ] )
                in
                let served name =
                  let n, counted = lookup name true in
                  Alcotest.(check (list int))
                    (Printf.sprintf "%s, %s: dirty, replayed, rebuilt, adopted" mode name)
                    [ 0; n; 0; 0 ] counted
                in
                write_file source text;
                ignore (lookup "prime" false);
                served "full hit of the prime";
                let edited = leaf_edit text "f0_2" in
                write_file source edited;
                let _, counted = lookup "leaf edit" false in
                if incremental then
                  Alcotest.(check bool) "the edit adopted or rebuilt" true
                    (List.nth counted 2 + List.nth counted 3 > 0);
                served "full hit of the edit";
                write_file source (edited ^ "\n/* a comment */\n");
                served "rekey of the edit";
                served "full hit of the rekey"))
          [ true; false ]);
  ]

(* ------------------------------------------------------------------ *)
(* Resident sections: a lookup in the process that wrote the entry     *)
(* ------------------------------------------------------------------ *)

module Trace = Pointsto.Trace

(** What a lookup answers: its rows, its invocation graph with every
    node's map information, and its constant folds, as strings, so that
    results of different domains compare. *)
let answers (r : Analysis.result) =
  List.map (fun (id, s) -> Printf.sprintf "s%d %s" id s) (stmt_pts_strings r)
  @ [ Fmt.str "%a" Ig.pp r.Analysis.graph ]
  @ map_infos r.Analysis.graph @ fold_sites r

(** The lookup's incremental counters. *)
let counters (r : Analysis.result) =
  let m = r.Analysis.metrics in
  [ m.Metrics.incr_funcs_dirty; m.Metrics.incr_funcs_reused; m.Metrics.incr_funcs_adopted ]

type lookup = {
  hit : bool;
  answered : string list;
  counted : int list;
  quarantined : int;
  left : string;  (** the entry's bytes afterwards *)
}

(** The incremental entry of [source] under [dir]. *)
let pti_of ~dir source =
  Persist.cache_file_incr ~cache_dir:dir ~source ~opts:Options.default ~entry:"main"

let observe pti ((r : Analysis.result), hit) =
  {
    hit;
    answered = answers r;
    counted = counters r;
    quarantined = r.Analysis.metrics.Metrics.cache_quarantined;
    left = read_file pti;
  }

(** An incremental lookup of [source] under [dir] on this domain. The
    second part is, per [dirty] span, the kept segments decoded from
    disk and those served resident. *)
let lookup_here ~dir source =
  Trace.enable ~capacity:4096 ();
  Trace.clear ();
  let looked =
    Fun.protect ~finally:Trace.disable (fun () ->
        Persist.analyze_cached ~cache_dir:dir ~incremental:true source)
  in
  let dirty =
    List.filter_map
      (fun (sp : Trace.span) ->
        if sp.Trace.sp_kind = Trace.Dirty then Some (sp.Trace.sp_in, sp.Trace.sp_out) else None)
      (Trace.collect ())
  in
  Trace.clear ();
  (observe (pti_of ~dir source) looked, dirty)

(** The same lookup on a new domain, which holds no resident section,
    from [entry]'s bytes in a cache directory of its own. *)
let lookup_fresh ~entry source =
  in_temp (fun dir ->
      let pti = pti_of ~dir source in
      write_file pti entry;
      Domain.join
        (Domain.spawn (fun () ->
             observe pti (Persist.analyze_cached ~cache_dir:dir ~incremental:true source))))

(** [here] against [fresh]: the same hit, answers, counters, quarantine
    and entry bytes; and its answers against a [--no-cache] run. *)
let check_lookup name source ~(here : lookup) ~(fresh : lookup) =
  Alcotest.(check bool) (name ^ ": a hit as on a fresh domain") fresh.hit here.hit;
  Alcotest.(check (list string))
    (name ^ ": answers as on a fresh domain")
    fresh.answered here.answered;
  Alcotest.(check (list int)) (name ^ ": dirty, reused, adopted as on a fresh domain") fresh.counted
    here.counted;
  Alcotest.(check int) (name ^ ": quarantines as on a fresh domain") fresh.quarantined
    here.quarantined;
  Alcotest.(check bool) (name ^ ": the entry's bytes as on a fresh domain") true
    (String.equal fresh.left here.left);
  Alcotest.(check (list string))
    (name ^ ": answers as --no-cache")
    (answers (Analysis.of_file source))
    here.answered

(** [n] functions of [p] spread over its edit sites, the functions
    outside direct-call cycles that {!insert_at_top} can edit. *)
let spread_sites (p : Ir.program) n =
  let cycles = direct_cycle_members p in
  let sites =
    List.filter_map
      (fun f ->
        let fn = f.Ir.fn_name in
        if fn <> "main" && fn.[0] = 'f' && not (List.mem fn cycles) then Some fn else None)
      p.Ir.funcs
  in
  let step = max 1 (List.length sites / n) in
  List.filteri (fun i _ -> i mod step = 0 && i / step < n) sites

(** Prime [shape]'s size-400 program in a fresh cache directory and run
    [f] with the directory, the source, its text and the edit sites. *)
let primed_gen shape f =
  in_temp (fun dir ->
      let source = Filename.concat dir (shape ^ ".c") in
      let text = Gen.program (Test_rows.gen_knobs shape) in
      write_file source text;
      let r, _ = Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
      f ~dir ~source ~text (spread_sites r.Analysis.prog 4))

let resident_tests =
  [
    case "resident lookups answer as a fresh domain and --no-cache: web-400, deep-400" (fun () ->
        List.iter
          (fun shape ->
            primed_gen shape (fun ~dir ~source ~text sites ->
                let pti = pti_of ~dir source in
                let text = ref text and served = ref 0 in
                List.iteri
                  (fun i fn ->
                    List.iter
                      (fun (kind, line) ->
                        let name = Printf.sprintf "%s, %s edit %d of %s" shape kind i fn in
                        text := insert_at_top !text ~fn ~line;
                        write_file source !text;
                        let entry = read_file pti in
                        let here, dirty = lookup_here ~dir source in
                        List.iter (fun (_, from_memory) -> served := !served + from_memory) dirty;
                        check_lookup name source ~here ~fresh:(lookup_fresh ~entry source))
                      (edit_kinds i))
                  sites;
                Alcotest.(check bool) (shape ^ ": kept segments are served resident") true
                  (!served > 0)))
          [ "web"; "deep" ]);
    case "an entry put back under a resident table reads as on a fresh domain" (fun () ->
        List.iter
          (fun shape ->
            primed_gen shape (fun ~dir ~source ~text sites ->
                let pti = pti_of ~dir source in
                let primed = read_file pti in
                let edited = ref text in
                List.iter
                  (fun fn ->
                    edited := insert_at_top !edited ~fn ~line:"    gp0 = &gv1;\n";
                    write_file source !edited;
                    ignore (Persist.analyze_cached ~cache_dir:dir ~incremental:true source))
                  sites;
                Alcotest.(check bool) (shape ^ ": the edits rewrote the entry") false
                  (String.equal primed (read_file pti));
                (* the lap restore of the perf edit workload: the
                   generated text and its primed entry *)
                write_file pti primed;
                write_file source text;
                let here, _ = lookup_here ~dir source in
                check_lookup (shape ^ ": the primed text") source ~here
                  ~fresh:(lookup_fresh ~entry:primed source);
                write_file pti primed;
                let text' = leaf_edit text (List.hd sites) in
                write_file source text';
                let here, dirty = lookup_here ~dir source in
                check_lookup (shape ^ ": an edit of the primed text") source ~here
                  ~fresh:(lookup_fresh ~entry:primed source);
                Alcotest.(check bool) (shape ^ ": segments the edits rewrote decode from disk") true
                  (List.exists (fun (from_disk, _) -> from_disk > 0) dirty)))
          [ "web"; "deep" ]);
    case "a damaged segment held resident still quarantines, and the run is cold" (fun () ->
        primed_gen "deep" (fun ~dir ~source ~text sites ->
            let pti = pti_of ~dir source in
            let fn = List.hd sites in
            let v1 = leaf_edit text fn in
            write_file source v1;
            let _, dirty = lookup_here ~dir source in
            Alcotest.(check bool) "the first edit is served resident" true
              (List.exists (fun (_, from_memory) -> from_memory > 0) dirty);
            (* the second edit keeps what the first kept: flip a byte in
               the middle of one such segment *)
            let kept =
              let p0 = Simple_ir.Simplify.of_string ~file:source text in
              let p1 = Simple_ir.Simplify.of_string ~file:source v1 in
              let hashes (p : Ir.program) =
                let t = Hashtbl.create 64 in
                List.iter
                  (fun f -> Hashtbl.replace t f.Ir.fn_name (Persist.func_hash f))
                  p.Ir.funcs;
                t
              in
              let data = read_file pti in
              let targets fn =
                Option.value ~default:[] (List.assoc_opt fn (entry_layout data).targets)
              in
              Persist.eligible_funcs ~targets p1 ~old_hashes:(hashes p0) ~new_hashes:(hashes p1)
            in
            let v2 = leaf_edit v1 fn in
            write_file source v2;
            let data = read_file pti in
            let victim =
              match
                List.find_opt
                  (fun (s : entry_section) -> s.name <> "" && Hashtbl.mem kept s.name)
                  (entry_layout data).sections
              with
              | Some s -> s
              | None -> Alcotest.fail "no kept segment"
            in
            let b = Bytes.of_string data in
            let at = victim.off + (victim.len / 2) in
            Bytes.set b at (Char.chr (Char.code (Bytes.get b at) lxor 0x5a));
            write_file pti (Bytes.to_string b);
            let here, dirty = lookup_here ~dir source in
            let name = Printf.sprintf "deep, %s flipped" victim.name in
            Alcotest.(check int) (name ^ ": quarantined") 1 here.quarantined;
            Alcotest.(check bool) (name ^ ": the .bad file") true (Sys.file_exists (pti ^ ".bad"));
            Alcotest.(check (list int))
              (name ^ ": every function dirty, nothing replayed")
              [ List.length (Simple_ir.Simplify.of_string ~file:source v2).Ir.funcs; 0; 0 ]
              here.counted;
            Alcotest.(check bool) (name ^ ": no segment bound") true
              (List.for_all (fun (d, m) -> d < 0 && m < 0) dirty);
            Alcotest.(check (list string))
              (name ^ ": answers as --no-cache")
              (answers (Analysis.of_file source))
              here.answered));
  ]

let suite =
  ( "incremental",
    hash_tests @ cone_tests @ suite_tests @ corruption_tests @ frame_tests @ segment_tests
    @ pointer_tests @ memo_tests @ target_list_tests @ cycle_tests @ site_control_tests
    @ no_sharing_tests @ adoption_tests @ graph_reader_tests @ stable_entry_tests
    @ resident_tests )
