(** Shared helpers for the test suites. *)

module Ir = Simple_ir.Ir
module Loc = Pointsto.Loc
module Pts = Pointsto.Pts
module Analysis = Pointsto.Analysis

let parse src = Cfront.Parser.parse_string ~file:"<test>" src

let simplify src = Simple_ir.Simplify.of_string ~file:"<test>" src

let analyze ?opts src = Analysis.of_string ?opts ~file:"<test>" src

(** Render a (location, certainty) pair as "name/D" or "name/P". *)
let show_pair (l, c) = Fmt.str "%a/%s" Loc.pp l (Pts.cert_to_string c)

let sorted_strings l = List.sort compare l

(** Targets of variable [var] in points-to set [s], as sorted
    "name/cert" strings, NULL excluded. *)
let targets_in (s : Pts.t) (res : Analysis.result) (fname : string) (var : string) :
    string list =
  let fn =
    match Ir.find_func res.Analysis.prog fname with
    | Some f -> f
    | None -> Alcotest.failf "no function %s" fname
  in
  match Pointsto.Tenv.base_loc res.Analysis.tenv fn var with
  | None -> Alcotest.failf "no variable %s" var
  | Some base ->
      Pts.targets base s
      |> List.filter (fun (t, _) -> not (Loc.is_null t))
      |> List.map show_pair |> sorted_strings

(** Targets of [var] (a variable of [main]) at normal exit of main. *)
let exit_targets (res : Analysis.result) ?(fname = "main") (var : string) : string list =
  match res.Analysis.entry_output with
  | None -> Alcotest.fail "entry function does not terminate normally"
  | Some s -> targets_in s res fname var

(** The statement id of the call to undeclared probe function [name]
    (tests insert calls like [probe1();] as observation points). *)
let probe_stmt (res : Analysis.result) (name : string) : int =
  let found =
    Ir.fold_program
      (fun acc s ->
        match s.Ir.s_desc with
        | Ir.Scall (_, Ir.Cdirect f, _) when String.equal f name -> Some s.Ir.s_id
        | _ -> acc)
      None res.Analysis.prog
  in
  match found with Some id -> id | None -> Alcotest.failf "no probe %s" name

(** Targets of [var] (in function [fname], default main) at the probe
    call [probe]. *)
let probe_targets (res : Analysis.result) ?(fname = "main") (probe : string) (var : string) :
    string list =
  let s = Analysis.pts_at res (probe_stmt res probe) in
  targets_in s res fname var

let check_targets msg expected actual =
  Alcotest.(check (list string)) msg (sorted_strings expected) actual

(** Assert that analyzing [src] gives [var] exactly [expected] targets at
    exit of main. *)
let check_exit ?opts msg src var expected =
  let res = analyze ?opts src in
  check_targets msg expected (exit_targets res var)

let case name f = Alcotest.test_case name `Quick f

let qcase ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~name ~count gen prop)

(** Insert [line] before the first statement ([    r = n;]) of the
    {!Gen} function [fn], after its declarations: the one-line edit the
    incremental tests make to generated programs. *)
let insert_at_top text ~fn ~line =
  let find sub from =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length text then Alcotest.failf "%S not found in %s" sub fn
      else if String.sub text i n = sub then i
      else go (i + 1)
    in
    go from
  in
  let at = find "    r = n;\n" (find (Printf.sprintf "int %s(int n, int *p) {\n" fn) 0) in
  String.sub text 0 at ^ line ^ String.sub text at (String.length text - at)

(** Where the parts of a persisted cache entry lie (the layout in
    lib/core/persist.ml), read independently of [Persist] so that tests
    can compare, damage and re-seal sections. Offsets are absolute. *)
type entry_section = { name : string; off : int; len : int; digest_at : int }

type entry_layout = {
  index_digest_at : int;
  index_at : int;
  index_len : int;
  fingerprinted : bool;
  sections : entry_section list;  (** the result section (named [""]) first *)
  targets : (string * string list) list;
      (** per function, the targets its indirect call sites resolved to *)
}

(** A reader of varints and length-prefixed strings over [data] from
    [pos]. *)
let cursor (data : string) (pos : int ref) =
  let byte () =
    let c = Char.code data.[!pos] in
    incr pos;
    c
  in
  let rec varint shift acc =
    let c = byte () in
    let acc = acc lor ((c land 0x7f) lsl shift) in
    if c land 0x80 = 0 then acc else varint (shift + 7) acc
  in
  let str () =
    let l = varint 0 0 in
    let s = String.sub data !pos l in
    pos := !pos + l;
    s
  in
  (byte, (fun () -> varint 0 0), str)

let entry_layout (data : string) : entry_layout =
  let pos = ref 0 in
  let byte, varint, str = cursor data pos in
  let skip n = pos := !pos + n in
  (* magic, version, content key *)
  skip 5;
  ignore (varint ());
  skip 16;
  let index_digest_at = !pos in
  skip 16;
  let index_len = varint () in
  let index_at = !pos in
  let fingerprinted = byte () = 1 in
  if fingerprinted then begin
    skip 16;
    for _ = 1 to varint () do
      skip (varint ());
      skip 16
    done
  end;
  let base = index_at + index_len in
  let sections = ref [] in
  for _ = 1 to varint () do
    let l = varint () in
    let name = String.sub data !pos l in
    skip l;
    let off = varint () in
    let len = varint () in
    sections := { name; off = base + off; len; digest_at = !pos } :: !sections;
    skip 16
  done;
  let targets =
    List.init (varint ()) (fun _ ->
        let fn = str () in
        (fn, List.init (varint ()) (fun _ -> str ())))
  in
  { index_digest_at; index_at; index_len; fingerprinted; sections = List.rev !sections; targets }

(** A delta entry of a set table: the location indices of the sources
    it kills, and those of the sources of the rows it adds. *)
type set_delta = { kills : int list; add_srcs : int list }

(** Read a section's location, row and set tables from [pos], returning
    the set table's delta entries in table order. *)
let read_tables (data : string) (pos : int ref) : set_delta list =
  let byte, varint, str = cursor data pos in
  let repeat f = for _ = 1 to varint () do f () done in
  (* locations: a tag, then its payload *)
  repeat (fun () ->
      match byte () with
      | 0 ->
          ignore (str ());
          ignore (byte ())
      | 1 ->
          ignore (varint ());
          ignore (str ())
      | 2 | 3 | 4 | 6 -> ignore (varint ())
      | 9 | 10 -> ignore (str ())
      | _ -> ());
  (* rows: source, then (target, certainty) pairs *)
  let row_srcs =
    Array.of_list
      (List.init (varint ()) (fun _ ->
           let src = varint () in
           repeat (fun () ->
               ignore (varint ());
               ignore (byte ()));
           src))
  in
  (* sets: absolute rows, or a delta of kills and added rows *)
  let deltas = ref [] in
  repeat (fun () ->
      match byte () with
      | 0 -> repeat (fun () -> ignore (varint ()))
      | _ ->
          (* the base set's index, then the kills and the added rows *)
          ignore (varint ());
          let kills = List.init (varint ()) (fun _ -> varint ()) in
          let add_srcs = List.init (varint ()) (fun _ -> row_srcs.(varint ())) in
          deltas := { kills; add_srcs } :: !deltas);
  List.rev !deltas

(** The delta entries of a result section's set table: the tables follow
    the marshalled program, a length-prefixed string. *)
let result_deltas (sec : string) : set_delta list =
  let pos = ref 0 in
  let _, _, str = cursor sec pos in
  ignore (str ());
  read_tables sec pos

(** The call records of each record of a summary segment
    ([entry_section]'s bytes), in record order, each as (local statement
    index of the call, callee, ordinal plus one or 0). A segment is its
    location, row and set tables, then its records: input, output, rows,
    then calls. *)
let segment_calls (seg : string) : (int * string * int) list list =
  let pos = ref 0 in
  ignore (read_tables seg pos);
  let _, varint, str = cursor seg pos in
  let repeat f = for _ = 1 to varint () do f () done in
  let calls =
    List.init (varint ()) (fun _ ->
        ignore (varint ());
        ignore (varint ());
        repeat (fun () ->
            ignore (varint ());
            ignore (varint ()));
        List.init (varint ()) (fun _ ->
            let li = varint () in
            let g = str () in
            (li, g, varint ())))
  in
  if !pos <> String.length seg then Alcotest.failf "segment read to %d of %d bytes" !pos (String.length seg);
  calls

(** The bytes of the section named [name]. *)
let entry_section data name =
  match List.find_opt (fun s -> s.name = name) (entry_layout data).sections with
  | Some s -> String.sub data s.off s.len
  | None -> Alcotest.failf "no section %S" name

(** Recompute every section digest, then the index digest, as a writer
    that produced the damaged bytes would have. *)
let reseal (b : Bytes.t) =
  let l = entry_layout (Bytes.to_string b) in
  List.iter
    (fun s -> Bytes.blit_string (Digest.subbytes b s.off s.len) 0 b s.digest_at 16)
    l.sections;
  Bytes.blit_string (Digest.subbytes b l.index_at l.index_len) 0 b l.index_digest_at 16
