(** Tests for the {!Pointsto.Trace} structured event layer: span nesting
    well-formedness, the Chrome trace-event JSON export, lossless
    collection across pool domains, and bit-identity of analysis results
    with the sink enabled and disabled.

    The sink is process-global, so every test that records runs inside
    {!recording}, which clears the rings first and always disables the
    sink afterwards — the rest of the suite keeps seeing the default
    disabled sink. *)

open Test_util
module Trace = Pointsto.Trace
module Pool = Pointsto.Pool
module Stats = Pointsto.Stats

let load_bench name = Simple_ir.Simplify.of_file ("../benchmarks/" ^ name ^ ".c")

(** Run [f] with a fresh enabled sink; return its result and the
    collected spans, leaving the sink disabled whatever happens. *)
let recording ?capacity f =
  Trace.enable ?capacity ();
  Trace.clear ();
  let r = Fun.protect ~finally:Trace.disable f in
  let spans = Trace.collect () in
  (r, spans)

(* ------------------------------------------------------------------ *)
(* Nesting                                                            *)
(* ------------------------------------------------------------------ *)

(** Check the spans of one domain form a laminar family: sweeping them
    by start time (ties: longest first) with a stack of open spans,
    every span must either nest entirely inside the innermost still-open
    span or start after it ended — partial overlap is a broken
    begin/end pairing. *)
let check_laminar name spans =
  let arr = Array.of_list spans in
  Array.sort
    (fun (a : Trace.span) (b : Trace.span) ->
      match compare a.Trace.sp_t0 b.Trace.sp_t0 with
      | 0 -> compare b.Trace.sp_t1 a.Trace.sp_t1
      | c -> c)
    arr;
  let stack = ref [] in
  Array.iter
    (fun (s : Trace.span) ->
      if s.Trace.sp_t1 < s.Trace.sp_t0 then
        Alcotest.failf "%s: span %s ends before it starts" name s.Trace.sp_name;
      let rec unwind () =
        match !stack with
        | top :: rest when top.Trace.sp_t1 <= s.Trace.sp_t0 ->
            stack := rest;
            unwind ()
        | _ -> ()
      in
      unwind ();
      (match !stack with
      | top :: _ when s.Trace.sp_t1 > top.Trace.sp_t1 ->
          Alcotest.failf "%s: span %s overlaps %s without nesting" name s.Trace.sp_name
            top.Trace.sp_name
      | _ -> ());
      stack := s :: !stack)
    arr

let by_domain spans =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (s : Trace.span) ->
      Hashtbl.replace tbl s.Trace.sp_dom
        (s :: Option.value ~default:[] (Hashtbl.find_opt tbl s.Trace.sp_dom)))
    spans;
  Hashtbl.fold (fun d l acc -> (d, l) :: acc) tbl []

let nesting_tests =
  [
    case "livc spans form a laminar family per domain" (fun () ->
        let _, spans =
          recording (fun () -> Analysis.analyze (load_bench "livc"))
        in
        Alcotest.(check bool) "spans recorded" true (List.length spans > 100);
        Alcotest.(check int) "nothing dropped" 0 (Trace.dropped ());
        List.iter (fun (d, l) -> check_laminar (Fmt.str "domain %d" d) l) (by_domain spans));
    case "root coverage of a direct run is at least 95%" (fun () ->
        let _, spans =
          recording (fun () -> Analysis.analyze (load_bench "livc"))
        in
        let cov = Trace.coverage spans in
        if cov < 0.95 then Alcotest.failf "coverage %.3f < 0.95" cov);
    case "capacity overflow drops and counts instead of growing" (fun () ->
        let _, spans =
          recording ~capacity:64 (fun () -> Analysis.analyze (load_bench "livc"))
        in
        Alcotest.(check int) "kept exactly the capacity" 64 (List.length spans);
        Alcotest.(check bool) "drops counted" true (Trace.dropped () > 0));
    case "fixpoint histograms see every body pass" (fun () ->
        let r, spans =
          recording (fun () -> Analysis.analyze (load_bench "livc"))
        in
        let bodies =
          List.length (List.filter (fun s -> s.Trace.sp_kind = Trace.Body) spans)
        in
        Alcotest.(check int)
          "one Body span per body pass" r.Analysis.metrics.Pointsto.Metrics.bodies bodies;
        let hist = Trace.iteration_histogram spans (Trace.Node, Trace.Body) in
        Alcotest.(check int) "histogram covers all body passes" bodies
          (List.fold_left (fun acc (n, c) -> acc + (n * c)) 0 hist));
  ]

(* ------------------------------------------------------------------ *)
(* Trace-event JSON                                                   *)
(* ------------------------------------------------------------------ *)

(** A tiny JSON reader — just enough to validate the export without a
    JSON library dependency. *)
type json =
  | Jnull
  | Jbool of bool
  | Jnum of float
  | Jstr of string
  | Jarr of json list
  | Jobj of (string * json) list

exception Bad_json of string

let parse_json (s : string) : json =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then s.[!pos] else '\000' in
  let advance () = incr pos in
  let fail m = raise (Bad_json (Fmt.str "%s at offset %d" m !pos)) in
  let rec skip_ws () =
    match peek () with ' ' | '\t' | '\n' | '\r' -> advance (); skip_ws () | _ -> ()
  in
  let expect c = if peek () = c then advance () else fail (Fmt.str "expected %c" c) in
  let literal lit v =
    String.iter (fun c -> if peek () = c then advance () else fail ("bad " ^ lit)) lit;
    v
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '\000' -> fail "unterminated string"
      | '"' -> advance ()
      | '\\' ->
          advance ();
          (match peek () with
          | '"' -> Buffer.add_char b '"'
          | '\\' -> Buffer.add_char b '\\'
          | '/' -> Buffer.add_char b '/'
          | 'n' -> Buffer.add_char b '\n'
          | 'r' -> Buffer.add_char b '\r'
          | 't' -> Buffer.add_char b '\t'
          | 'b' -> Buffer.add_char b '\b'
          | 'f' -> Buffer.add_char b '\012'
          | 'u' ->
              if !pos + 4 >= n then fail "bad \\u escape";
              let code = int_of_string ("0x" ^ String.sub s (!pos + 1) 4) in
              pos := !pos + 4;
              if code < 0x80 then Buffer.add_char b (Char.chr code)
              else Buffer.add_string b (Fmt.str "\\u%04x" code)
          | _ -> fail "bad escape");
          advance ();
          go ()
      | c ->
          advance ();
          Buffer.add_char b c;
          go ()
    in
    go ();
    Buffer.contents b
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | 'n' -> literal "null" Jnull
    | 't' -> literal "true" (Jbool true)
    | 'f' -> literal "false" (Jbool false)
    | '"' -> Jstr (parse_string ())
    | '[' ->
        advance ();
        skip_ws ();
        if peek () = ']' then begin advance (); Jarr [] end
        else
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' -> advance (); items (v :: acc)
            | ']' -> advance (); Jarr (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          items []
    | '{' ->
        advance ();
        skip_ws ();
        if peek () = '}' then begin advance (); Jobj [] end
        else
          let rec members acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | ',' -> advance (); members ((k, v) :: acc)
            | '}' -> advance (); Jobj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or }"
          in
          members []
    | _ ->
        let start = !pos in
        let num_char c =
          (c >= '0' && c <= '9') || c = '-' || c = '+' || c = '.' || c = 'e' || c = 'E'
        in
        while num_char (peek ()) do advance () done;
        if !pos = start then fail "expected a value";
        Jnum (float_of_string (String.sub s start (!pos - start)))
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then fail "trailing garbage";
  v

let field name = function
  | Jobj kvs -> (
      match List.assoc_opt name kvs with
      | Some v -> v
      | None -> Alcotest.failf "missing field %s" name)
  | _ -> Alcotest.failf "not an object (looking for %s)" name

let jstr = function Jstr s -> s | _ -> Alcotest.fail "expected a string"
let jnum = function Jnum f -> f | _ -> Alcotest.fail "expected a number"

let kind_names =
  List.map Trace.kind_name
    [
      Trace.Analysis; Trace.Node; Trace.Body; Trace.Loop; Trace.Map; Trace.Unmap;
      Trace.Cache_load; Trace.Cache_store; Trace.Task; Trace.Widen;
    ]

let json_tests =
  [
    case "export parses and round-trips the span count" (fun () ->
        let _, spans =
          recording (fun () -> Analysis.analyze (load_bench "livc"))
        in
        let events =
          match field "traceEvents" (parse_json (Trace.json_string spans)) with
          | Jarr evs -> evs
          | _ -> Alcotest.fail "traceEvents is not an array"
        in
        let complete = List.filter (fun e -> jstr (field "ph" e) = "X") events in
        Alcotest.(check int) "one X event per span" (List.length spans)
          (List.length complete);
        let metas = List.filter (fun e -> jstr (field "ph" e) = "M") events in
        Alcotest.(check int) "one thread_name event per domain" 1 (List.length metas);
        List.iter
          (fun e ->
            let cat = jstr (field "cat" e) in
            if not (List.mem cat kind_names) then Alcotest.failf "unknown cat %s" cat;
            ignore (jstr (field "name" e));
            if jnum (field "ts" e) < 0. then Alcotest.fail "negative ts";
            if jnum (field "dur" e) < 0. then Alcotest.fail "negative dur";
            ignore (jnum (field "pid" e));
            ignore (jnum (field "tid" e));
            let args = field "args" e in
            ignore (jstr (field "ctx" args));
            ignore (jnum (field "stmts" args));
            ignore (jnum (field "pts_in" args));
            ignore (jnum (field "pts_out" args)))
          complete);
    case "names with JSON metacharacters survive escaping" (fun () ->
        let sp name =
          {
            Trace.sp_kind = Trace.Task;
            sp_name = name;
            sp_ctx = -1;
            sp_dom = 0;
            sp_t0 = 1.;
            sp_t1 = 2.;
            sp_stmts = 0;
            sp_in = -1;
            sp_out = -1;
          }
        in
        let names = [ {|a"b|}; {|back\slash|}; "nl\nline"; "tab\there"; "ctl\001x" ] in
        let parsed = parse_json (Trace.json_string (List.map sp names)) in
        let events =
          match field "traceEvents" parsed with
          | Jarr evs -> List.filter (fun e -> jstr (field "ph" e) = "X") evs
          | _ -> Alcotest.fail "traceEvents is not an array"
        in
        List.iter2
          (fun want e ->
            Alcotest.(check string) "name round-trips" want (jstr (field "name" e)))
          names events);
    case "save_json writes the same bytes json_string returns" (fun () ->
        let _, spans =
          recording (fun () -> Analysis.analyze (load_bench "stanford"))
        in
        let file = Filename.temp_file "ptan-trace" ".json" in
        Fun.protect
          ~finally:(fun () -> Sys.remove file)
          (fun () ->
            Trace.save_json file spans;
            let written = In_channel.with_open_bin file In_channel.input_all in
            Alcotest.(check string) "bytes" (Trace.json_string spans) written));
  ]

(* ------------------------------------------------------------------ *)
(* Pool merge                                                         *)
(* ------------------------------------------------------------------ *)

(** Everything deterministic about a span — what it did, not when. Task
    spans are excluded (the pool adds its own around each task). *)
let span_key (s : Trace.span) =
  Fmt.str "%s|%s|%08x|%d|%d|%d"
    (Trace.kind_name s.Trace.sp_kind)
    s.Trace.sp_name
    (s.Trace.sp_ctx land 0xffffffff)
    s.Trace.sp_stmts s.Trace.sp_in s.Trace.sp_out

let multiset spans =
  spans
  |> List.filter (fun (s : Trace.span) -> s.Trace.sp_kind <> Trace.Task)
  |> List.map span_key |> List.sort compare

let merge_tests =
  [
    case "-j 8 collection loses no spans vs sequential runs" (fun () ->
        let names = [ "livc"; "config"; "sim"; "genetic" ] in
        let parsed = List.map (fun n -> (n, load_bench n)) names in
        let sequential =
          List.concat_map
            (fun (_, p) ->
              let _, spans = recording (fun () -> Analysis.analyze p) in
              multiset spans)
            parsed
          |> List.sort compare
        in
        let _, pooled =
          recording (fun () ->
              Pool.with_pool ~jobs:8 (fun pool ->
                  Pool.map pool (fun (_, p) -> Analysis.analyze p) parsed))
        in
        Alcotest.(check int) "no drops" 0 (Trace.dropped ());
        Alcotest.(check (list string)) "span multisets agree" sequential (multiset pooled);
        List.iter
          (fun (d, l) -> check_laminar (Fmt.str "domain %d" d) l)
          (by_domain pooled));
  ]

(* ------------------------------------------------------------------ *)
(* Disabled-sink identity                                             *)
(* ------------------------------------------------------------------ *)

(** The Table 3-6 rows of a result, as one comparable string. *)
let rows r =
  let open Stats in
  let i = indirect_stats r in
  let g = general r in
  let s = ig_stats r in
  Fmt.str "%d %d %d %d %.3f | %d %d %d %d %.2f %d | %d %d %d %d %d %.3f %.3f" i.ind_refs
    i.scalar_rep i.to_stack i.to_heap i.avg g.stack_to_stack g.stack_to_heap g.heap_to_heap
    g.heap_to_stack g.avg_per_stmt g.max_per_stmt s.ig_nodes s.call_sites s.n_funcs
    s.n_recursive s.n_approximate s.avg_per_call_site s.avg_per_func

let stmt_digest r =
  Hashtbl.fold (fun id s acc -> (id, s) :: acc) r.Analysis.stmt_pts []
  |> List.sort compare
  |> List.map (fun (id, s) -> Fmt.str "s%d:%a" id Pts.pp s)
  |> String.concat "\n" |> Digest.string |> Digest.to_hex

let identity_tests =
  [
    case "tracing on and off give bit-identical results" (fun () ->
        List.iter
          (fun name ->
            let p = load_bench name in
            let off = Analysis.analyze p in
            let on, _ = recording (fun () -> Analysis.analyze p) in
            Alcotest.(check string) (name ^ ": table rows") (rows off) (rows on);
            Alcotest.(check string)
              (name ^ ": statement sets")
              (stmt_digest off) (stmt_digest on))
          [ "livc"; "stanford" ]);
    case "a disabled sink records nothing and start returns 0" (fun () ->
        Trace.clear ();
        Alcotest.(check bool) "off" false (Trace.on ());
        Alcotest.(check (float 0.)) "start is 0" 0. (Trace.start ());
        Trace.emit Trace.Node ~name:"nope" ~t0:1. ();
        ignore (Analysis.analyze (load_bench "stanford"));
        Alcotest.(check int) "no spans" 0 (List.length (Trace.collect ())));
  ]

let suite =
  ("trace", nesting_tests @ json_tests @ merge_tests @ identity_tests)
