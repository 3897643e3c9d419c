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
  fp_funcs : string list;  (** the functions the fingerprint digests, in its order *)
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
  let _, varint, str = cursor data pos in
  let skip n = pos := !pos + n in
  (* magic, version, content key *)
  skip 5;
  ignore (varint ());
  skip 16;
  let index_digest_at = !pos in
  skip 16;
  let index_len = varint () in
  let index_at = !pos in
  (* the fingerprint: environment digest, then (function, digest) *)
  skip 16;
  let fp_funcs =
    List.init (varint ()) (fun _ ->
        let fn = str () in
        skip 16;
        fn)
  in
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
  { index_digest_at; index_at; index_len; fp_funcs; sections = List.rev !sections; targets }

(** A delta entry of a set table: the location indices of the sources
    it kills, and those of the sources of the rows it adds. *)
type set_delta = { kills : int list; add_srcs : int list }

(** Step over a location table at [pos]. *)
let skip_locs (data : string) (pos : int ref) =
  let byte, varint, str = cursor data pos in
  (* a tag, then its payload *)
  for _ = 1 to varint () do
    match byte () with
    | 0 ->
        ignore (str ());
        ignore (byte ())
    | 1 ->
        ignore (varint ());
        ignore (str ())
    | 2 | 3 | 4 | 6 -> ignore (varint ())
    | 9 | 10 -> ignore (str ())
    | _ -> ()
  done

(** Read a row table at [pos], returning each row's source. *)
let read_rows (data : string) (pos : int ref) : int array =
  let byte, varint, _ = cursor data pos in
  (* a source, then (target, certainty) pairs *)
  Array.of_list
    (List.init (varint ()) (fun _ ->
         let src = varint () in
         for _ = 1 to varint () do
           ignore (varint ());
           ignore (byte ())
         done;
         src))

(** Read a set table at [pos] over rows with sources [row_srcs],
    returning its delta entries in table order. *)
let read_sets (data : string) (pos : int ref) (row_srcs : int array) : set_delta list =
  let byte, varint, _ = cursor data pos in
  let repeat f = for _ = 1 to varint () do f () done in
  (* absolute rows, or a delta of kills and added rows *)
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

(** Read a section's location, row and set tables from [pos], returning
    the set table's delta entries in table order. *)
let read_tables (data : string) (pos : int ref) : set_delta list =
  skip_locs data pos;
  read_sets data pos (read_rows data pos)

(** A result section's parts: its blocks, one per function with rows,
    in section order, each the function, whether stored frames alone
    made its rows, the ordinals of their records, and the block's bytes;
    then the sources of the section's rows, and where the set table of
    the rest lies. The marshalled program (a length-prefixed string)
    comes first, then the section's location and row tables, and the
    blocks, each a length-prefixed string under its function's name. A
    block is its head, then its set table over the section's rows (a
    complete block's own, an incomplete block's extending the one the
    earlier incomplete blocks make) and its statements' rows. *)
let result_layout (sec : string) =
  let pos = ref 0 in
  let _, varint, str = cursor sec pos in
  ignore (str ());
  skip_locs sec pos;
  let row_srcs = read_rows sec pos in
  let blocks =
    List.init (varint ()) (fun _ ->
        let name = str () in
        let bytes = str () in
        let bpos = ref 0 in
        let byte, varint, _ = cursor bytes bpos in
        let complete = byte () = 1 in
        let ordinals = List.init (varint ()) (fun _ -> varint ()) in
        (name, complete, ordinals, bytes))
  in
  (blocks, row_srcs, pos)

let result_blocks sec =
  let blocks, _, _ = result_layout sec in
  blocks

(** The delta entries of a result section's set tables: each block's,
    which follow its head, then the rest's, which follows the blocks. *)
let result_deltas (sec : string) : set_delta list =
  let blocks, row_srcs, pos = result_layout sec in
  let in_block (_, _, ordinals, bytes) =
    let bpos = ref 0 in
    let _, varint, _ = cursor bytes bpos in
    bpos := 1;
    ignore (varint ());
    List.iter (fun _ -> ignore (varint ())) ordinals;
    read_sets bytes bpos row_srcs
  in
  List.concat_map in_block blocks @ read_sets sec pos row_srcs

(** The shared set table as the entry output reads it: how many sets
    the incomplete blocks' chunks hold, how many the chunk after the
    blocks adds, and the entry output's reference into the table (0 for
    bottom, else the set's index plus one), which follows that chunk. *)
let result_rest_sets (sec : string) : int * int * int =
  let blocks, row_srcs, pos = result_layout sec in
  let chunk (_, complete, ordinals, bytes) =
    if complete then 0
    else begin
      (* past the head: the complete byte, then the listed ordinals *)
      let bpos = ref 1 in
      let _, varint, _ = cursor bytes bpos in
      ignore (varint ());
      List.iter (fun _ -> ignore (varint ())) ordinals;
      varint ()
    end
  in
  let before = List.fold_left (fun n b -> n + chunk b) 0 blocks in
  let _, varint, _ = cursor sec pos in
  let at = !pos in
  let added = varint () in
  (* the chunk again from its count, read to its end *)
  pos := at;
  ignore (read_sets sec pos row_srcs);
  (before, added, varint ())

(** The call records of each record of a summary segment
    ([entry_section]'s bytes), in record order, each as (local statement
    index of the call, callee, ordinal plus one or 0). A segment is its
    location, row and set tables, then its records: input, output, rows,
    then calls, each of which ends with its map information (per
    symbolic name, its location and the locations it stands for). *)
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
            let k = varint () in
            repeat (fun () ->
                ignore (varint ());
                repeat (fun () -> ignore (varint ())));
            (li, g, k)))
  in
  if !pos <> String.length seg then Alcotest.failf "segment read to %d of %d bytes" !pos (String.length seg);
  calls

(** An entry's bytes past its content key (magic, version, key): what
    is equal in two entries of one program, options and engine. *)
let past_key (data : string) =
  let pos = ref 5 in
  let _, varint, _ = cursor data pos in
  ignore (varint ());
  let at = !pos + 16 in
  String.sub data at (String.length data - at)

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
