(** Absolute pins on the analysis answers: a committed digest of every
    per-statement points-to set, for the 18 paper benchmarks and three
    small generated programs, under the default options and four
    ablations (the last, no context and no definite relationships, is
    the one a degraded run falls back to). Every other row gate is relative (pooled = sequential,
    demand = exhaustive, incremental = cold) and would still pass if
    the engine changed its answers everywhere at once; these do not.

    A digest covers the rows of every reached statement in statement-id
    order, each printed with {!Pts.pp}. When a change is {e meant} to
    alter answers, the failure message carries the new digest to
    commit — along with the reason in the change's description. *)

open Test_util
module Options = Pointsto.Options

let bench_path name = Filename.concat "../benchmarks" (name ^ ".c")

(** Option sets, named after the [ptan analyze] flags that select them. *)
let option_sets =
  let d = Options.default in
  [
    ("default", d);
    ("heap-by-site", { d with Options.heap_by_site = true });
    ("no-context", { d with Options.context_sensitive = false });
    ("no-share-contexts", { d with Options.share_contexts = false });
    ( "no-context-no-definite",
      { d with Options.context_sensitive = false; use_definite = false } );
  ]

(** Generated members at about 400 lines, with the shape knobs of the
    scale corpus (docs/CORPUS.md). *)
let gen_knobs = function
  | "web" -> { Gen.default with Gen.seed = 11; size = 400; depth = 4; fnptr_density = 30 }
  | "deep" ->
      { Gen.default with Gen.seed = 23; size = 400; depth = 7; fnptr_density = 0; structs = 50 }
  | "knot" ->
      { Gen.default with Gen.seed = 37; size = 400; depth = 4; fnptr_density = 15; recursion = 30 }
  | s -> invalid_arg s

let rows_digest (res : Analysis.result) =
  let b = Buffer.create 4096 in
  Hashtbl.fold (fun sid s acc -> (sid, s) :: acc) res.Analysis.stmt_pts []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (sid, s) -> Buffer.add_string b (Fmt.str "%d %a\n" sid Pts.pp s));
  Digest.to_hex (Digest.string (Buffer.contents b))

(** (program, digests in [option_sets] order). *)
let expected =
  [
    ( "clinpack",
      [
        "bb37c0796274f7e4e1c35b7873044a5d";
        "bb37c0796274f7e4e1c35b7873044a5d";
        "bb37c0796274f7e4e1c35b7873044a5d";
        "bb37c0796274f7e4e1c35b7873044a5d";
        "d8a5e050f37acf5e427a8805cd1d4573";
      ] );
    ( "compress",
      [
        "0016dcdea0cda06d711b7ed2bc98a4ca";
        "6f29ea2f3ccbea6986b6caca2c72fcfc";
        "315fd52d796f0756d213b3c53cb14265";
        "0016dcdea0cda06d711b7ed2bc98a4ca";
        "cc4ac656ce4ebda2901df569a454e6db";
      ] );
    ( "config",
      [
        "768651a6ad2f36921f1875a93047faab";
        "5d695cb4828507b8dedb5999523bb374";
        "768651a6ad2f36921f1875a93047faab";
        "768651a6ad2f36921f1875a93047faab";
        "5be433e97bb1d8ab2a8bb9f72fc6d162";
      ] );
    ( "csuite",
      [
        "77c47c2ce023c56d3a5df9e45fb90b61";
        "77c47c2ce023c56d3a5df9e45fb90b61";
        "77c47c2ce023c56d3a5df9e45fb90b61";
        "77c47c2ce023c56d3a5df9e45fb90b61";
        "57debb29aa8dc24b65488d186b273108";
      ] );
    ( "dry",
      [
        "38ccbe3dbe40f366c43cdcee2e71ecb0";
        "f12a8c29f86b67b54b8a38876e70e850";
        "38ccbe3dbe40f366c43cdcee2e71ecb0";
        "38ccbe3dbe40f366c43cdcee2e71ecb0";
        "8d5f3710d0eb4eb8c5d535732f19f09b";
      ] );
    ( "fixoutput",
      [
        "acb1532bed29151fc0c053c308a92154";
        "acb1532bed29151fc0c053c308a92154";
        "acb1532bed29151fc0c053c308a92154";
        "acb1532bed29151fc0c053c308a92154";
        "3f5162d17e5455433b805efc7544b303";
      ] );
    ( "genetic",
      [
        "321eb1c122f8eb70cd2e9e2e3717c72a";
        "e602457b4d7b41d949560a7e3f9005c2";
        "321eb1c122f8eb70cd2e9e2e3717c72a";
        "321eb1c122f8eb70cd2e9e2e3717c72a";
        "ff331aedfa5d4eb5dd2d1122e7d988f2";
      ] );
    ( "hash",
      [
        "157220dd25c9d21ef35ac4e6712024ea";
        "751307bfed0e79018076bd1934755a6a";
        "157220dd25c9d21ef35ac4e6712024ea";
        "157220dd25c9d21ef35ac4e6712024ea";
        "9c5aa4d3e578a3b8ad046ed3b854d3e6";
      ] );
    ( "livc",
      [
        "9b5aa0fc1f8ba90534e7074ba9959cd7";
        "9b5aa0fc1f8ba90534e7074ba9959cd7";
        "9b5aa0fc1f8ba90534e7074ba9959cd7";
        "9b5aa0fc1f8ba90534e7074ba9959cd7";
        "9916a34c8288a780042642c46ee4d60d";
      ] );
    ( "lws",
      [
        "d6fb02272309b9abec7ff051444fd0e6";
        "d6fb02272309b9abec7ff051444fd0e6";
        "d6fb02272309b9abec7ff051444fd0e6";
        "d6fb02272309b9abec7ff051444fd0e6";
        "6db9dfe41da43eff67557f2fe0d76702";
      ] );
    ( "misr",
      [
        "f21d2b9edd42d397577695b2c6289d93";
        "7527583cafdd8a513093f02d697f3cd8";
        "8a5ae5fede35447631a9904f51a85d07";
        "f21d2b9edd42d397577695b2c6289d93";
        "272c89a58508e6162a77c947dd3ea77c";
      ] );
    ( "msc",
      [
        "b81bb45d815a1af8a45834543a7beb49";
        "fb2f2152292740e0648bb57b21353d6a";
        "b81bb45d815a1af8a45834543a7beb49";
        "b81bb45d815a1af8a45834543a7beb49";
        "567700ea1ed053548867e4253bc30ca4";
      ] );
    ( "mway",
      [
        "c076963162a775ed7fc37c18046c6f4d";
        "c076963162a775ed7fc37c18046c6f4d";
        "c076963162a775ed7fc37c18046c6f4d";
        "c076963162a775ed7fc37c18046c6f4d";
        "aa6b32c8035ad5fb9ba3771a1799112e";
      ] );
    ( "sim",
      [
        "b61cde08b4d08088525726393bbe1f72";
        "0a6e0e87d14e00b7e75c5357053c3259";
        "b61cde08b4d08088525726393bbe1f72";
        "b61cde08b4d08088525726393bbe1f72";
        "87556cc18ba5305c4391f52a532b4815";
      ] );
    ( "stanford",
      [
        "d3c8a34f987ee3914c3e46497fc4ea44";
        "6c1b1906ec5e69d0d73472b8ac002045";
        "c0d365afc59fe29dfb192bd7d8deaf35";
        "d3c8a34f987ee3914c3e46497fc4ea44";
        "e6d53d3746aea316926729352dd2f883";
      ] );
    ( "toplev",
      [
        "8ad78948e70dbd7d679b5278576325a6";
        "8ad78948e70dbd7d679b5278576325a6";
        "8ad78948e70dbd7d679b5278576325a6";
        "8ad78948e70dbd7d679b5278576325a6";
        "376dce0d861603c23457d5b14c4e8a35";
      ] );
    ( "travel",
      [
        "2042d259e83c1b95d14b6ba9bf349989";
        "2042d259e83c1b95d14b6ba9bf349989";
        "2042d259e83c1b95d14b6ba9bf349989";
        "2042d259e83c1b95d14b6ba9bf349989";
        "90fcfe2cd3e7f9ce54816becf2524ff4";
      ] );
    ( "xref",
      [
        "d4b071c71ae65d64c70d57a63d73fbe8";
        "07bd1394e818cae68d87ef24243e4d1f";
        "d4b071c71ae65d64c70d57a63d73fbe8";
        "d4b071c71ae65d64c70d57a63d73fbe8";
        "d01dafaf60745443598b004aece511f1";
      ] );
    ( "gen:web",
      [
        "34f2e4315f5430a0a6602efb3321ca99";
        "4546aae7bba40e78e8220546a38793b5";
        "72105e662cd47e7783bedb201486faa3";
        "34f2e4315f5430a0a6602efb3321ca99";
        "672247b1cb3dcb66e3dd9ae80d62a7d8";
      ] );
    ( "gen:deep",
      [
        "a3cda0ba93d7d80717b5f1081de04c0d";
        "4b84e62acd1235fb0618e6a1ec602907";
        "7db1800461bc0a1ed4779cced2f4f031";
        "a3cda0ba93d7d80717b5f1081de04c0d";
        "edc7b4feeda853651f686fdf10801800";
      ] );
    ( "gen:knot",
      [
        "147480c0f2fa7a3ba7312f763fa86f23";
        "b5c124c223cb8ddc8226371a6d0609b2";
        "90a365f779ab6b97479a02d1710d62ad";
        "147480c0f2fa7a3ba7312f763fa86f23";
        "19d4d8064e9b47a75c8be79c58cb3301";
      ] );
  ]

let analyze_member ~opts name =
  match String.index_opt name ':' with
  | Some i ->
      let shape = String.sub name (i + 1) (String.length name - i - 1) in
      Analysis.of_string ~opts ~file:name (Gen.program (gen_knobs shape))
  | None -> Analysis.of_file ~opts (bench_path name)

let pin_tests =
  List.map
    (fun (name, digests) ->
      case ("per-statement rows pinned: " ^ name) (fun () ->
          let drift =
            List.concat
              (List.map2
                 (fun (label, opts) want ->
                   let got = rows_digest (analyze_member ~opts name) in
                   if got = want then []
                   else [ Fmt.str "%s: rows digest %s, pinned %s" label got want ])
                 option_sets digests)
          in
          if drift <> [] then Alcotest.failf "%s\n%s" name (String.concat "\n" drift)))
    expected

(** Summary recording folds each finished frame into its caller's table
    only, so a recording run folds a bounded multiple of a cold run's
    rows whatever the call depth, and records the same rows. Recording
    calls no {!Pts.merge}, so the bound is on [records]: the statement
    visits and frame rows folded into a row already recorded, the folds
    that were merges before row accumulators. *)
let recording_cost_test =
  case "summary recording at most doubles a cold run's records: gen:deep" (fun () ->
      let prog =
        Simple_ir.Simplify.of_string ~file:"gen:deep" (Gen.program (gen_knobs "deep"))
      in
      let cold = Analysis.analyze prog in
      let recorded = Analysis.analyze ~record_summaries:true prog in
      Alcotest.(check string) "rows" (rows_digest cold) (rows_digest recorded);
      let records (r : Analysis.result) = r.Analysis.metrics.Pointsto.Metrics.records in
      if records cold = 0 || records recorded > 2 * records cold then
        Alcotest.failf "recording run folded %d rows into recorded ones, cold run %d"
          (records recorded)
          (records cold))

(** The incremental leg: after a one-line edit, the re-analysis folds
    the rows of the entries it replays into [stmt_pts] once per entry,
    where a cold run visits each statement once per context and loop
    iteration. Its rows equal the cold run's, and it folds no more rows
    into recorded ones. *)
let incremental_cost_test =
  case "incremental re-analysis records no more than a cold run: gen:deep" (fun () ->
      let dir = Filename.temp_file "ptan-rows" "" in
      Sys.remove dir;
      Sys.mkdir dir 0o755;
      let source = Filename.concat dir "deep.c" in
      let write s = Out_channel.with_open_bin source (fun oc -> Out_channel.output_string oc s) in
      Fun.protect
        ~finally:(fun () ->
          Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
          Sys.rmdir dir)
        (fun () ->
          let text = Gen.program (gen_knobs "deep") in
          write text;
          let _ = Pointsto.Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
          write (insert_at_top text ~fn:"f3_1" ~line:"    gp0 = &gv1;\n");
          let incr, _ = Pointsto.Persist.analyze_cached ~cache_dir:dir ~incremental:true source in
          let cold = Analysis.of_file source in
          Alcotest.(check string) "rows" (rows_digest cold) (rows_digest incr);
          let records (r : Analysis.result) = r.Analysis.metrics.Pointsto.Metrics.records in
          if records cold = 0 || records incr > records cold then
            Alcotest.failf "incremental run folded %d rows into recorded ones, cold run %d"
              (records incr) (records cold)))

let suite = ("rows", pin_tests @ [ recording_cost_test; incremental_cost_test ])
