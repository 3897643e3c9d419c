(** Persisted analysis results (see persist.mli).

    Encoding conventions: non-negative integers are unsigned LEB128
    varints; strings are length-prefixed; locations are written once
    into an interned table and
    referenced by index (an entry only references earlier entries, so
    the table decodes in one left-to-right pass). The file layout is

    {v magic | version | key | index digest | index length | index | sections v}

    The key digests the analyzed text and is covered by no digest: it
    only decides whether an entry is a full hit. The index holds the
    program's fingerprint, per section its
    name, offset, length and digest, then each function's indirect-call
    targets (what the dirty rule reads before any section); the
    sections follow back to back in index order. The first, named [""],
    is the {e result section}: the marshalled SIMPLE program (plain
    data, no closures — re-lowering the source would double the
    warm-load cost), interned location and row tables, the statements'
    sets as one {e block} per function (a set table, then its
    statements' set references by local index: the engine reaches a
    steady state, so most statements share one of a few sets), then the
    entry output, warnings, the metrics record's counts (the [Count]
    entries of {!Metrics.fields}), and the invocation graph in pre-order: its shape (ids,
    functions, kinds, partners, call sites) and map information, with
    no IN/OUT pairs, so the graph interns locations but no set. Each
    further section is one function's {e summary segment} (named after
    it), with tables of its own. A reader checks the index digest
    before it trusts an offset, and a section's digest before it
    decodes the section (in particular before [Marshal.from_string],
    which is not robust against corrupt input), so it verifies only
    what it reads. Every decode path bounds-checks and raises {!Bad},
    which the lookups map to a miss — a stale or corrupt cache entry
    degrades to a cache miss, never to a wrong answer.

    Each set costs one pass either way. A set-table entry is a delta
    against the set referenced before it when its kills and adds, plus
    one, are fewer than the set's rows: the encoder builds a set's row
    list once, stops diffing as soon as the delta cannot win, and keeps
    the list as the next base. The decoder binds a delta's rows in one
    {!Pts.add_rows} on its base, a re-added source being one replace.
    A warm load unmarshals the program where it lies in the entry. A
    statement holds no source position and the metrics no timer, so an
    entry depends only on the lowered program and the options: a rekey,
    whose fresh lowering equals the saved program, skips the program,
    decodes the tables with the fresh lowering, and publishes the
    entry's own sections under the new key, every other byte as it
    was. *)

module Ir = Simple_ir.Ir
module Ig = Invocation_graph

let version = 16

let magic = "PTANC"

(* ------------------------------------------------------------------ *)
(* Primitive writers                                                  *)
(* ------------------------------------------------------------------ *)

let w_u b n =
  assert (n >= 0);
  let rec go n =
    if n < 0x80 then Buffer.add_char b (Char.chr n)
    else begin
      Buffer.add_char b (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

let w_str b s =
  w_u b (String.length s);
  Buffer.add_string b s

(* ------------------------------------------------------------------ *)
(* Primitive readers                                                  *)
(* ------------------------------------------------------------------ *)

exception Bad

(** A reader over [data], confined to the bytes before [lim]: one
    section of an entry file. *)
type rd = { data : string; mutable pos : int; lim : int }

let r_byte r =
  if r.pos >= r.lim then raise Bad;
  let c = Char.code r.data.[r.pos] in
  r.pos <- r.pos + 1;
  c

let r_u r =
  let rec go shift acc =
    if shift > 56 then raise Bad;
    let c = r_byte r in
    let acc = acc lor ((c land 0x7f) lsl shift) in
    if c land 0x80 = 0 then acc else go (shift + 7) acc
  in
  go 0 0

(** A count of items still to read, each at least one byte: bounded by
    the bytes left, so no damaged count allocates beyond the entry. *)
let r_count r =
  let n = r_u r in
  if n > r.lim - r.pos then raise Bad;
  n

let r_str r =
  let n = r_u r in
  if n < 0 || r.pos + n > r.lim then raise Bad;
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let r_list r f =
  let n = r_u r in
  let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (f () :: acc) in
  go n []

let r_raw r n =
  if r.pos + n > r.lim then raise Bad;
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

(* ------------------------------------------------------------------ *)
(* Keys                                                               *)
(* ------------------------------------------------------------------ *)

let opts_repr (o : Options.t) =
  Printf.sprintf "sym=%d;ctx=%b;def=%b;share=%b;site=%b"
    o.Options.max_sym_depth o.Options.context_sensitive o.Options.use_definite
    o.Options.share_contexts o.Options.heap_by_site

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The header's content key: what decides a full hit. *)
let key_of_content ~content ~opts ~entry =
  Digest.string (Printf.sprintf "%d\x00%s\x00%s\x00%s" version content (opts_repr opts) entry)

(* ------------------------------------------------------------------ *)
(* Location table                                                     *)
(* ------------------------------------------------------------------ *)

type loc_enc = {
  tbl : (Loc.t, int) Hashtbl.t;
  buf : Buffer.t;  (** table entries, in index order *)
  mutable next : int;
}

let kind_int = function Loc.Kglobal -> 0 | Loc.Klocal -> 1 | Loc.Kparam -> 2

let kind_of_int = function
  | 0 -> Loc.Kglobal
  | 1 -> Loc.Klocal
  | 2 -> Loc.Kparam
  | _ -> raise Bad

(** Index of [l] in the table, appending its entry (sub-locations
    first) on first sight. *)
let rec loc_idx e (l : Loc.t) : int =
  match Hashtbl.find_opt e.tbl l with
  | Some i -> i
  | None ->
      let b = e.buf in
      let finish () =
        let i = e.next in
        e.next <- i + 1;
        Hashtbl.add e.tbl l i;
        i
      in
      (match l with
      | Loc.Var (n, k) ->
          Buffer.add_char b '\000';
          w_str b n;
          Buffer.add_char b (Char.chr (kind_int k));
          finish ()
      | Loc.Fld (base, f) ->
          let bi = loc_idx e base in
          Buffer.add_char b '\001';
          w_u b bi;
          w_str b f;
          finish ()
      | Loc.Head base ->
          let bi = loc_idx e base in
          Buffer.add_char b '\002';
          w_u b bi;
          finish ()
      | Loc.Tail base ->
          let bi = loc_idx e base in
          Buffer.add_char b '\003';
          w_u b bi;
          finish ()
      | Loc.Sym base ->
          let bi = loc_idx e base in
          Buffer.add_char b '\004';
          w_u b bi;
          finish ()
      | Loc.Heap ->
          Buffer.add_char b '\005';
          finish ()
      | Loc.Site i ->
          Buffer.add_char b '\006';
          w_u b i;
          finish ()
      | Loc.Null ->
          Buffer.add_char b '\007';
          finish ()
      | Loc.Str ->
          Buffer.add_char b '\008';
          finish ()
      | Loc.Fun f ->
          Buffer.add_char b '\009';
          w_str b f;
          finish ()
      | Loc.Ret f ->
          Buffer.add_char b '\010';
          w_str b f;
          finish ())

(** Decode the table into an array of interned locations. *)
let r_loc_table r : Loc.t array =
  let n = r_count r in
  let arr = Array.make n (Loc.intern Loc.Heap) in
  let earlier i =
    if i < 0 || i >= n then raise Bad;
    arr.(i)
  in
  for i = 0 to n - 1 do
    let l =
      match r_byte r with
      | 0 ->
          let name = r_str r in
          Loc.var name (kind_of_int (r_byte r))
      | 1 ->
          let base = earlier (r_u r) in
          Loc.fld base (r_str r)
      | 2 -> Loc.head (earlier (r_u r))
      | 3 -> Loc.tail (earlier (r_u r))
      | 4 -> Loc.sym (earlier (r_u r))
      | 5 -> Loc.intern Loc.Heap
      | 6 -> Loc.site (r_u r)
      | 7 -> Loc.intern Loc.Null
      | 8 -> Loc.intern Loc.Str
      | 9 -> Loc.func (r_str r)
      | 10 -> Loc.ret (r_str r)
      | _ -> raise Bad
    in
    arr.(i) <- l
  done;
  arr

let r_loc (arr : Loc.t array) r : Loc.t =
  let i = r_u r in
  if i < 0 || i >= Array.length arr then raise Bad;
  arr.(i)

(* ------------------------------------------------------------------ *)
(* Points-to sets, states, map info                                   *)
(* ------------------------------------------------------------------ *)

(** Table of distinct rows — a row is one source and its target map.
    Related sets share physically equal submaps (functional updates
    leave untouched sources alone), so across the whole result a few
    hundred rows cover thousands of (statement, source) occurrences;
    each is written and decoded exactly once, and decoded sets share the
    decoded maps. *)
type row = Loc.t * Pts.cert Loc.Map.t

type row_enc = {
  rw_tbl : (int, (Loc.t * Pts.cert Loc.Map.t * int) list) Hashtbl.t;
      (** (source, cardinality) hash -> entries *)
  rw_buf : Buffer.t;
  mutable rw_next : int;
}

let row_idx e rw (src : Loc.t) (m : Pts.cert Loc.Map.t) : int =
  let h = Hashtbl.hash src lxor (Loc.Map.cardinal m * 65599) in
  let bucket = Option.value ~default:[] (Hashtbl.find_opt rw.rw_tbl h) in
  match
    List.find_opt
      (fun (src', m', _) -> src' == src && (m' == m || Loc.Map.equal ( == ) m' m))
      bucket
  with
  | Some (_, _, i) -> i
  | None ->
      let b = rw.rw_buf in
      w_u b (loc_idx e src);
      w_u b (Loc.Map.cardinal m);
      Loc.Map.iter
        (fun tgt c ->
          w_u b (loc_idx e tgt);
          Buffer.add_char b (match c with Pts.D -> '\001' | Pts.P -> '\000'))
        m;
      let i = rw.rw_next in
      rw.rw_next <- i + 1;
      Hashtbl.replace rw.rw_tbl h ((src, m, i) :: bucket);
      i

(** Rows decoded so far by one read, keyed like {!row_idx}'s table:
    equal rows of different sections decode to one physical map, which
    the engine's fast paths compare by identity, and a repeated row
    builds no map. *)
type canon = (int, row list) Hashtbl.t

let r_row_table (canon : canon) arr r : row array =
  let n = r_count r in
  let rows = Array.make n (Loc.intern Loc.Heap, Loc.Map.empty) in
  for i = 0 to n - 1 do
    let src = r_loc arr r in
    let nt = r_u r in
    (* the targets in the order written, which is the map's *)
    let tgts =
      List.init nt (fun _ ->
          let tgt = r_loc arr r in
          (tgt, match r_byte r with 1 -> Pts.D | 0 -> Pts.P | _ -> raise Bad))
    in
    let rec same tgts seq =
      match (tgts, seq ()) with
      | [], Seq.Nil -> true
      | (t, c) :: tgts, Seq.Cons ((t', c'), seq) -> t == t' && c == c' && same tgts seq
      | _ -> false
    in
    let is_row (src', m) = src' == src && same tgts (Loc.Map.to_seq m) in
    let h = Hashtbl.hash src lxor (nt * 65599) in
    let bucket = Option.value ~default:[] (Hashtbl.find_opt canon h) in
    rows.(i) <-
      (match List.find_opt is_row bucket with
      | Some row -> row
      | None ->
          let row = (src, List.fold_left (fun m (t, c) -> Loc.Map.add t c m) Loc.Map.empty tgts) in
          Hashtbl.replace canon h (row :: bucket);
          row)
  done;
  rows

(** A count, then that many references into the row table. *)
let r_rows (rows : row array) r =
  let n = r_u r in
  let acc = ref [] in
  for _ = 1 to n do
    let i = r_u r in
    if i < 0 || i >= Array.length rows then raise Bad;
    acc := rows.(i) :: !acc
  done;
  !acc

(** Table of distinct points-to sets, interned by structural equality
    (a {!Pts.Tbl}, so equal sets built in different tree shapes meet
    under one key, and a set hashed before, or shared with one that was,
    costs no digest). A fixed point leaves most statements of a function
    with the same final set, so the table is far smaller than the
    statement count. *)
type set_enc = {
  s_tbl : int Pts.Tbl.t;  (** set -> its index *)
  s_buf : Buffer.t;
  mutable s_next : int;
  mutable s_last : (Pts.t * int) option;
      (** most recently referenced set — the delta base candidate *)
  mutable s_wrote : (Pts.t * row list) option;
      (** the set last written, with its rows: the base of the next
          entry unless a set written earlier was referenced since *)
}

(** A set-table entry is either absolute (tag 0: its rows) or a delta
    from an earlier entry (tag 1: base index, sources to kill, rows to
    add). Sets intern in statement order, and along a function body
    consecutive fixpoint states differ by a row or two, so the delta
    form dominates — and the decoder then extends the base set's spine
    instead of rebuilding it, keeping warm loads cheaper than the
    fixpoint that produced the tables. A delta is written only when its
    kills and adds, plus one, are fewer than the set's rows; the diff
    gives up as soon as they are not. Each set's row list is built once
    and kept as the next entry's base. *)
let w_set_entry e rw se b (s : Pts.t) =
  let news = Pts.rows s in
  let n = List.length news in
  let delta =
    match se.s_last with
    | None -> None
    | Some (last, base) ->
        let olds =
          match se.s_wrote with
          | Some (w, rows) when w == last -> rows
          | Some _ | None -> Pts.rows last
        in
        (* merge-join both row lists in source order; [d] counts the
           kills and adds so far *)
        let rec diff d kills adds olds news =
          if d + 1 >= n then None
          else
            match (olds, news) with
            | [], [] -> Some (base, kills, adds)
            | (src, _) :: olds', [] -> diff (d + 1) (src :: kills) adds olds' []
            | [], row :: news' -> diff (d + 1) kills (row :: adds) [] news'
            | (osrc, om) :: olds', ((nsrc, nm) as row) :: news' ->
                let c = Loc.compare osrc nsrc in
                if c < 0 then diff (d + 1) (osrc :: kills) adds olds' news
                else if c > 0 then diff (d + 1) kills (row :: adds) olds news'
                else if om == nm || Loc.Map.equal ( == ) om nm then diff d kills adds olds' news'
                else diff (d + 2) (osrc :: kills) (row :: adds) olds' news'
        in
        diff 0 [] [] olds news
  in
  (match delta with
  | Some (base, kills, adds) ->
      Buffer.add_char b '\001';
      w_u b base;
      w_u b (List.length kills);
      List.iter (fun src -> w_u b (loc_idx e src)) kills;
      w_u b (List.length adds);
      List.iter (fun (src, m) -> w_u b (row_idx e rw src m)) adds
  | None ->
      Buffer.add_char b '\000';
      w_u b n;
      List.iter (fun (src, m) -> w_u b (row_idx e rw src m)) news);
  se.s_wrote <- Some (s, news)

(** The index of [s], interning it on first sight. Consecutive
    statements often hold the very same set, so the previous one is
    checked by pointer before the table is probed. *)
let set_idx e rw se (s : Pts.t) : int =
  match se.s_last with
  | Some (last, i) when last == s -> i
  | Some _ | None ->
      let i =
        match Pts.Tbl.find_opt se.s_tbl s with
        | Some i -> i
        | None ->
            w_set_entry e rw se se.s_buf s;
            let i = se.s_next in
            se.s_next <- i + 1;
            Pts.Tbl.add se.s_tbl s i;
            i
      in
      se.s_last <- Some (s, i);
      i

(** The interning tables of one section — locations, rows and sets —
    written ahead of the records that reference them. *)
type tables = { locs : loc_enc; rws : row_enc; sets : set_enc }

let set_enc n =
  {
    s_tbl = Pts.Tbl.create n;
    s_buf = Buffer.create (8 * n);
    s_next = 0;
    s_last = None;
    s_wrote = None;
  }

let tables n =
  {
    locs = { tbl = Hashtbl.create n; buf = Buffer.create (8 * n); next = 0 };
    rws = { rw_tbl = Hashtbl.create n; rw_buf = Buffer.create (8 * n); rw_next = 0 };
    sets = set_enc n;
  }

let set_ix t s = set_idx t.locs t.rws t.sets s

let w_locs b (e : loc_enc) =
  w_u b e.next;
  Buffer.add_buffer b e.buf

let w_rows b (rw : row_enc) =
  w_u b rw.rw_next;
  Buffer.add_buffer b rw.rw_buf

let w_sets b (se : set_enc) =
  w_u b se.s_next;
  Buffer.add_buffer b se.s_buf

(** The entries [se] gained since it held [from], as a table that
    extends the one those make: their count, then the entries, whose
    delta bases may lie in the earlier part. The buffer then starts
    afresh. *)
let w_set_chunk b (se : set_enc) ~from =
  w_u b (se.s_next - from);
  Buffer.add_buffer b se.s_buf;
  Buffer.clear se.s_buf

let w_tables b t =
  w_locs b t.locs;
  w_rows b t.rws;
  w_sets b t.sets

(** A set table as it is read: its first [sn] sets, which further
    chunks ({!w_set_chunk}) extend. *)
type set_vec = { mutable sv : Pts.t array; mutable sn : int }

let set_vec () = { sv = [||]; sn = 0 }

(** Read a table's entries into [t], after those it holds. A delta
    entry binds in one {!Pts.add_rows} on its base: each added row
    replaces the source's row, so a killed source that the entry adds
    back is one replace, and only the other killed sources are unbound
    (by an empty row). *)
let r_set_entries arr rows (t : set_vec) r =
  let n = r_count r in
  let lo = t.sn in
  if lo + n > Array.length t.sv then begin
    let sv = Array.make (max (lo + n) (2 * Array.length t.sv)) Pts.empty in
    Array.blit t.sv 0 sv 0 lo;
    t.sv <- sv
  end;
  let sets = t.sv in
  for i = lo to lo + n - 1 do
    let s =
      match r_byte r with
      | 0 -> Pts.add_rows (r_rows rows r) Pts.empty
      | 1 ->
          let b = r_u r in
          if b < 0 || b >= i then raise Bad;
          let kills = r_list r (fun () -> r_loc arr r) in
          let adds = r_rows rows r in
          let unbind acc src =
            if List.exists (fun (src', _) -> src' == src) adds then acc
            else (src, Loc.Map.empty) :: acc
          in
          Pts.add_rows (List.fold_left unbind adds kills) sets.(b)
      | _ -> raise Bad
    in
    sets.(i) <- s
  done;
  t.sn <- lo + n

(** A table read whole: its array is exactly its sets. *)
let r_set_table arr rows r : Pts.t array =
  let t = set_vec () in
  r_set_entries arr rows t r;
  t.sv

let r_set_ref (sets : Pts.t array) r : Pts.t =
  let i = r_u r in
  if i < 0 || i >= Array.length sets then raise Bad;
  sets.(i)

let r_vec_ref (t : set_vec) r : Pts.t =
  let i = r_u r in
  if i < 0 || i >= t.sn then raise Bad;
  t.sv.(i)

(** The location table, then the row and set tables. *)
let r_tables canon r : Loc.t array * Pts.t array =
  let arr = r_loc_table r in
  let rows = r_row_table canon arr r in
  (arr, r_set_table arr rows r)

let w_state t b (st : Pts.state) =
  match st with None -> w_u b 0 | Some s -> w_u b (set_ix t s + 1)

let r_state sets r : Pts.state =
  match r_u r with
  | 0 -> None
  | k ->
      if k - 1 >= Array.length sets then raise Bad;
      Some sets.(k - 1)

let w_map_info e b (mi : Ig.map_info) =
  w_u b (List.length mi);
  List.iter
    (fun (l, ls) ->
      w_u b (loc_idx e l);
      w_u b (List.length ls);
      List.iter (fun l' -> w_u b (loc_idx e l')) ls)
    mi

let r_map_info arr r : Ig.map_info =
  r_list r (fun () ->
      let l = r_loc arr r in
      let ls = r_list r (fun () -> r_loc arr r) in
      (l, ls))

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)
(* ------------------------------------------------------------------ *)

(* The counts only: a run's timers are its own wall-clock, which no
   later lookup repeats, so a loaded record's timers start at zero and
   two saves of one answer write the same bytes. *)
let w_metrics b (m : Metrics.t) =
  List.iter
    (function Metrics.Count (get, _) -> w_u b (get m) | Metrics.Time _ -> ())
    Metrics.fields

let r_metrics r : Metrics.t =
  let m = Metrics.create () in
  List.iter
    (function Metrics.Count (_, set) -> set m (r_u r) | Metrics.Time _ -> ())
    Metrics.fields;
  m

(* ------------------------------------------------------------------ *)
(* Invocation graph                                                   *)
(* ------------------------------------------------------------------ *)

let kind_byte = function Ig.Ordinary -> '\000' | Ig.Recursive -> '\001' | Ig.Approximate -> '\002'

let kind_of_byte = function
  | 0 -> Ig.Ordinary
  | 1 -> Ig.Recursive
  | 2 -> Ig.Approximate
  | _ -> raise Bad

(** Pre-order: a node's entry precedes its children's, so back-edges
    ([partner] always points to an ancestor) resolve while decoding. A
    node is its shape and map information: its IN/OUT pair is the
    engine's working state, bottom in every finished result
    ({!Analysis.run}), so none is written. *)
let rec w_node e b (n : Ig.node) =
  w_u b n.Ig.id;
  w_str b n.Ig.func;
  Buffer.add_char b (kind_byte n.Ig.kind);
  (match n.Ig.partner with None -> w_u b 0 | Some p -> w_u b (p.Ig.id + 1));
  w_map_info e b n.Ig.map_info;
  w_u b (List.length n.Ig.children);
  List.iter
    (fun (site, c) ->
      w_u b site;
      w_node e b c)
    n.Ig.children

let rec r_node arr r ~parent ~(nodes : (int, Ig.node) Hashtbl.t) : Ig.node =
  let id = r_u r in
  let func = r_str r in
  let kind = kind_of_byte (r_byte r) in
  let partner_id = r_u r in
  let map_info = r_map_info arr r in
  let node =
    {
      Ig.id;
      func;
      parent;
      kind;
      partner = None;
      children = [];
      stored_input = Pts.bot;
      stored_output = Pts.bot;
      pending = [];
      in_flight = false;
      map_info;
    }
  in
  Hashtbl.replace nodes id node;
  if partner_id <> 0 then begin
    match Hashtbl.find_opt nodes (partner_id - 1) with
    | Some p -> node.Ig.partner <- Some p
    | None -> raise Bad
  end;
  let children =
    r_list r (fun () ->
        let site = r_u r in
        let c = r_node arr r ~parent:(Some node) ~nodes in
        (site, c))
  in
  node.Ig.children <- children;
  node

(* ------------------------------------------------------------------ *)
(* Incremental re-analysis: function hashes                           *)
(* ------------------------------------------------------------------ *)

(* Content hash of one function, invariant under edits elsewhere in the
   translation unit: statement ids are assigned program-wide in textual
   order, so adding a line to one function renumbers every later
   function. The hash therefore marshals a copy with ids zeroed — two
   functions hash equal iff their lowered IR is identical up to
   numbering. *)
let rec norm_stmt (s : Ir.stmt) : Ir.stmt =
  let d =
    match s.Ir.s_desc with
    | (Ir.Sassign _ | Ir.Scall _ | Ir.Sbreak | Ir.Scontinue | Ir.Sreturn _) as d -> d
    | Ir.Sif (c, t, e) -> Ir.Sif (c, List.map norm_stmt t, List.map norm_stmt e)
    | Ir.Sloop l ->
        Ir.Sloop
          {
            l with
            Ir.l_cond_stmts = List.map norm_stmt l.Ir.l_cond_stmts;
            l_step = List.map norm_stmt l.Ir.l_step;
            l_body = List.map norm_stmt l.Ir.l_body;
          }
    | Ir.Sswitch (op, gs) ->
        Ir.Sswitch
          ( op,
            List.map (fun g -> { g with Ir.g_body = List.map norm_stmt g.Ir.g_body }) gs )
  in
  { Ir.s_id = 0; s_desc = d }

let func_hash (f : Ir.func) : Digest.t =
  Digest.string
    (Marshal.to_string { f with Ir.fn_body = List.map norm_stmt f.Ir.fn_body } [])

(* Everything outside the function bodies that the result depends on: a
   change here invalidates every persisted summary at once. *)
let env_hash ~opts ~entry (p : Ir.program) : Digest.t =
  Digest.string
    (Marshal.to_string
       (p.Ir.globals, p.Ir.layouts, p.Ir.protos, opts_repr opts, entry)
       [])

(* A lowered program's fingerprint: the environment digest, then each
   defined function's {!func_hash}, in program order. Lowering numbers
   statements program-wide in that order, and a function's digest fixes
   its statement count, so equal fingerprints mean equal statement ids,
   and equal programs: a statement holds no source position. Computed
   once per lookup that is not a full hit, it is the rekey test, the
   diff oracle and what the save writes into the index. *)
type fingerprint = { fp_env : Digest.t; fp_funcs : (string * Digest.t) list }

let fingerprint ~opts ~entry (p : Ir.program) : fingerprint =
  {
    fp_env = env_hash ~opts ~entry p;
    fp_funcs = List.map (fun f -> (f.Ir.fn_name, func_hash f)) p.Ir.funcs;
  }

(* The per-function digests, by name: one side of {!eligible_funcs}'s
   diff. *)
let digests fp =
  let t = Hashtbl.create 64 in
  List.iter (fun (n, d) -> Hashtbl.replace t n d) fp.fp_funcs;
  t

(* The statements of [f] in textual order: frame rows and calls are
   persisted position-independently, as the index of the statement
   within its function (program-wide ids shift under edits, but an
   unchanged function's local order is stable). *)
let local_stmts (f : Ir.func) : Ir.stmt array =
  Array.of_list (List.rev (Ir.fold_func (fun acc s -> s :: acc) [] f))

(* ------------------------------------------------------------------ *)
(* Sections                                                           *)
(* ------------------------------------------------------------------ *)

(** A section: [s_len] bytes of [s_data] from [s_off], and their
    digest. A section read from an entry points into that entry's bytes,
    so a save can copy it, digest and all, without decoding it. *)
type section = { s_data : string; s_off : int; s_len : int; s_digest : Digest.t }

let section_of bytes =
  { s_data = bytes; s_off = 0; s_len = String.length bytes; s_digest = Digest.string bytes }

(** A reader over [s], once its digest holds. *)
let verified (s : section) : rd =
  if not (String.equal (Digest.substring s.s_data s.s_off s.s_len) s.s_digest) then raise Bad;
  { data = s.s_data; pos = s.s_off; lim = s.s_off + s.s_len }

(** Decode [s] with [f] once its digest holds; [f] must consume it
    exactly. *)
let read_section (s : section) f =
  let r = verified s in
  let v = f r in
  if r.pos <> r.lim then raise Bad;
  v

(* ------------------------------------------------------------------ *)
(* Decoded forms                                                      *)
(* ------------------------------------------------------------------ *)

(** A decoded record, not yet bound to a program: rows as local
    statement indices and their sets, at one position in the two
    arrays, calls by (local statement index, callee, ordinal plus one or
    0, map information). *)
type record = {
  rc_in : Pts.t;
  rc_out : Pts.t;
  rc_lis : int array;
  rc_sets : Pts.t array;
  rc_calls : (int * string * int * Ig.map_info) list;
}

(** The result section's location and row tables, and the length of
    their bytes, which a reader holding them steps over. *)
type tables_form = { t_locs : Loc.t array; t_rows : row array; t_len : int }

(** What a section decodes to, as far as a lookup keeps it: a summary
    segment's records, or the result section's tables. A form is a
    function of the section's bytes alone, so it is keyed by their
    digest (docs/INCREMENTAL.md, "Resident sections"). *)
type form = Records of record array | Tables of tables_form

(** Forms by section digest. *)
type held = (Digest.t, form) Hashtbl.t

(* ------------------------------------------------------------------ *)
(* The result section                                                 *)
(* ------------------------------------------------------------------ *)

(* The result section holds the marshalled program, its location and
   row tables, one block per function that has rows, then the entry
   output, the warnings, the metrics and the invocation graph (shape
   and map information, {!w_node}). A block is a byte saying whether the rows are the least upper bound of
   stored frames alone (1) or not (0), the ordinals of the function's
   summary records whose frames made them, ascending, then a set table
   over the section's rows and the block's rows as (local statement
   index, set), in local order. Blocks are length-prefixed under their
   function's name, in program order.

   Only a complete block is ever read alone (an adopted function's
   rows, {!adopter}), so only a complete block has a set table of its
   own. The set tables of the incomplete blocks, and the one ahead of
   the entry output, are chunks of one table ({!w_set_chunk}): a set
   that several functions hold is written once, as in a plain entry,
   whose blocks are all incomplete. The location and row tables are
   shared by every block: livc's 82 blocks would hold 6,898 locations
   (67 kB) and 772 rows as tables of their own. *)

(* The block of one function's rows in [stmt_pts], [None] when it has
   none: a complete block interns its sets in a table of its own over
   [t]'s location and row tables, an incomplete one in [t]'s. *)
let encode_block t ~complete ~ordinals (stmts : Ir.stmt array)
    (stmt_pts : (int, Pts.t) Hashtbl.t) : string option =
  let t = if complete then { t with sets = set_enc 16 } else t in
  let from = t.sets.s_next in
  let rows = Buffer.create 256 in
  let n = ref 0 in
  Array.iteri
    (fun li (s : Ir.stmt) ->
      match Hashtbl.find_opt stmt_pts s.Ir.s_id with
      | Some set ->
          incr n;
          w_u rows li;
          w_u rows (set_ix t set)
      | None -> ())
    stmts;
  if !n = 0 then None
  else begin
    let b = Buffer.create (Buffer.length rows + 1024) in
    Buffer.add_char b (if complete then '\001' else '\000');
    w_u b (List.length ordinals);
    List.iter (w_u b) ordinals;
    w_set_chunk b t.sets ~from;
    w_u b !n;
    Buffer.add_buffer b rows;
    Some (Buffer.contents b)
  end

(* The tables [t] wrote in [len] bytes, as a reader decodes them: each
   location and row at its index. *)
let tables_form t ~len : tables_form =
  let t_locs = Array.make t.locs.next (Loc.intern Loc.Heap) in
  Hashtbl.iter (fun l i -> t_locs.(i) <- Loc.intern l) t.locs.tbl;
  let t_rows = Array.make t.rws.rw_next (Loc.intern Loc.Heap, Loc.Map.empty) in
  Hashtbl.iter
    (fun _ bucket -> List.iter (fun (src, m, i) -> t_rows.(i) <- (Loc.intern src, m)) bucket)
    t.rws.rw_tbl;
  { t_locs; t_rows; t_len = len }

(* [ordinals f] gives the ordinal of each record in [f]'s segment by
   input, when [f] has one. A function whose rows some contribution
   other than a stored frame made, or that has no segment, writes an
   incomplete block. Also returns the section's tables. *)
let encode_result ?(ordinals = fun _ -> None) (res : Analysis.result) : string * tables_form =
  let t = tables 1024 in
  let blocks = Buffer.create 65536 in
  let n_blocks = ref 0 in
  List.iter
    (fun (f : Ir.func) ->
      let name = f.Ir.fn_name in
      let complete, ords =
        match (Hashtbl.find_opt res.Analysis.sources name, ordinals name) with
        | Some src, Some ordinal ->
            let ordinal (e : Engine.summary_entry) = ordinal e.Engine.se_in in
            let ords = List.sort_uniq Int.compare (List.map ordinal src.Engine.src_entries) in
            (src.Engine.src_whole, ords)
        | _ -> (false, [])
      in
      Option.iter
        (fun bytes ->
          incr n_blocks;
          w_str blocks name;
          w_str blocks bytes)
        (encode_block t ~complete ~ordinals:ords (local_stmts f) res.Analysis.stmt_pts))
    res.Analysis.prog.Ir.funcs;
  let from = t.sets.s_next in
  let pay = Buffer.create 65536 in
  w_state t pay res.Analysis.entry_output;
  w_u pay (List.length res.Analysis.warnings);
  List.iter (w_str pay) res.Analysis.warnings;
  w_metrics pay res.Analysis.metrics;
  w_node t.locs pay res.Analysis.graph.Ig.root;
  let b = Buffer.create (Buffer.length blocks + Buffer.length pay + 65536) in
  w_str b (Marshal.to_string res.Analysis.prog []);
  let at = Buffer.length b in
  w_locs b t.locs;
  w_rows b t.rws;
  let form = tables_form t ~len:(Buffer.length b - at) in
  w_u b !n_blocks;
  Buffer.add_buffer b blocks;
  w_set_chunk b t.sets ~from;
  Buffer.add_buffer b pay;
  (Buffer.contents b, form)

(** Step over a length-prefixed string, returning where it lies. *)
let skip_str r =
  let n = r_u r in
  if n > r.lim - r.pos then raise Bad;
  let at = r.pos in
  r.pos <- at + n;
  (at, n)

(** The result section's program: unmarshalled where it lies, once
    [Marshal.total_size] agrees with its length prefix (the section
    digest has already held), or, given the fresh lowering [prog] of a
    rekey, which equals it, skipped. *)
let r_prog ?prog r : Ir.program =
  let at, n = skip_str r in
  match prog with
  | Some p -> p
  | None ->
      if n < Marshal.header_size || Marshal.total_size (Bytes.unsafe_of_string r.data) at <> n
      then raise Bad;
      Marshal.from_string r.data at

(** The location and row tables of the verified result section whose
    digest is [digest], read at [r], just past the program: stepped over
    when [held] has them, else decoded and added to [held]. *)
let r_result_tables ~(held : held) digest r : tables_form =
  match Hashtbl.find_opt held digest with
  | Some (Tables t) ->
      if t.t_len > r.lim - r.pos then raise Bad;
      r.pos <- r.pos + t.t_len;
      t
  | Some (Records _) | None ->
      let at = r.pos in
      let t_locs = r_loc_table r in
      let t_rows = r_row_table (Hashtbl.create 256) t_locs r in
      let t = { t_locs; t_rows; t_len = r.pos - at } in
      Hashtbl.replace held digest (Tables t);
      t

(** The blocks that follow the program, each a reader confined to its
    bytes, by function name, in section order. *)
let r_blocks r : (string * rd) list =
  r_list r (fun () ->
      let name = r_str r in
      let at, n = skip_str r in
      (name, { data = r.data; pos = at; lim = at + n }))

(** A block's head: whether stored frames alone made its rows, and the
    ordinals of their records. *)
let r_block_head r : bool * int list =
  let complete = match r_byte r with 0 -> false | 1 -> true | _ -> raise Bad in
  (complete, r_list r (fun () -> r_u r))

(** The rows of a block past its head, over the section's locations
    [arr] and rows [rows], each given to [f] with the statement id of
    [stmts], its function's statements in local order. The block's set
    table extends [sets]: empty for a complete block, the table so far
    for an incomplete one. *)
let r_block_rows arr rows ~(sets : set_vec) (stmts : Ir.stmt array) r f =
  r_set_entries arr rows sets r;
  for _ = 1 to r_count r do
    let li = r_u r in
    if li >= Array.length stmts then raise Bad;
    f stmts.(li).Ir.s_id (r_vec_ref sets r)
  done;
  if r.pos <> r.lim then raise Bad

let decode_result ~opts ~held ?prog (s : section) r : Analysis.result =
  let prog = r_prog ?prog r in
  (* small: an array past the minor heap's size limit would make every
     insert a major-heap write *)
  let stmt_pts = Hashtbl.create 64 in
  let { t_locs = arr; t_rows = rows; _ } = r_result_tables ~held s.s_digest r in
  (* the table the incomplete blocks and the rest extend *)
  let shared = set_vec () in
  (* blocks come in program order *)
  let funcs = ref prog.Ir.funcs in
  List.iter
    (fun (name, blk) ->
      let rec find = function
        | [] -> raise Bad
        | (f : Ir.func) :: fs ->
            funcs := fs;
            if String.equal f.Ir.fn_name name then f else find fs
      in
      let f = find !funcs in
      let complete, _ = r_block_head blk in
      let sets = if complete then set_vec () else shared in
      r_block_rows arr rows ~sets (local_stmts f) blk (Hashtbl.replace stmt_pts))
    (r_blocks r);
  r_set_entries arr rows shared r;
  let sets = Array.sub shared.sv 0 shared.sn in
  let entry_output = r_state sets r in
  let warnings = r_list r (fun () -> r_str r) in
  let metrics = r_metrics r in
  let root = r_node arr r ~parent:None ~nodes:(Hashtbl.create 64) in
  (* the node count is not stored: it is read off the decoded graph *)
  let graph = { Ig.root; n_nodes = 0 } in
  graph.Ig.n_nodes <- Ig.n_nodes graph;
  {
    Analysis.prog;
    tenv = Tenv.make ~opts prog;
    graph;
    stmt_pts;
    entry_output;
    warnings;
    metrics;
    (* degraded results are never saved (see [analyze_cached]), so
       anything loaded back is a full-precision run *)
    degraded = None;
    (* a loaded result is only ever re-saved by copying its entry's
       segments, so the summaries stay on disk *)
    summaries = Engine.store_create ();
    sources = Hashtbl.create 1;
  }

(* ------------------------------------------------------------------ *)
(* Summary segments                                                   *)
(* ------------------------------------------------------------------ *)

(* One function's segment: its own tables, then its framed entries as
   (input, output, rows, calls) records. A row is (local statement
   index, set); a call is (local statement index of the call, callee
   name, the ordinal of the callee entry's record in the callee's
   segment plus one, or 0 when the call used no entry, the call's map
   information over the segment's locations). A segment thus
   depends on no other section's bytes, only on the record order of its
   callees' segments, which every save keeps (see {!segments_of}). Also
   returns the records as {!decode_segment} reads them back. *)
let encode_segment ~local ~ordinal (records : Engine.summary_entry list) :
    string * record array =
  let t = tables 16 in
  let recs = Buffer.create 1024 in
  w_u recs (List.length records);
  (* a set's index, and the set the records keep for it: the first one
     interned under it, so that equal sets share one, as read back *)
  let firsts = Hashtbl.create 64 in
  let set_ref s =
    let i = set_ix t s in
    w_u recs i;
    match Hashtbl.find_opt firsts i with
    | Some s -> s
    | None ->
        Hashtbl.add firsts i s;
        s
  in
  let decoded =
    List.map
      (fun (en : Engine.summary_entry) ->
        let fr =
          match en.Engine.se_frame with
          | Some fr -> fr
          | None -> failwith "Persist: a frameless summary record"
        in
        let rc_in = set_ref en.Engine.se_in in
        let rc_out = set_ref en.Engine.se_out in
        let rows = fr.Engine.f_rows in
        w_u recs (Array.length rows);
        let rc_lis = Array.make (Array.length rows) 0 in
        let rc_sets = Array.make (Array.length rows) Pts.empty in
        Array.iteri
          (fun i (sid, s) ->
            let li = local sid in
            w_u recs li;
            rc_lis.(i) <- li;
            rc_sets.(i) <- set_ref s)
          rows;
        w_u recs (List.length fr.Engine.f_calls);
        let rc_calls =
          List.map
            (fun (c : Engine.call) ->
              let li = local c.Engine.c_sid in
              let k = match c.Engine.c_in with Some i -> 1 + ordinal c.Engine.c_fn i | None -> 0 in
              w_u recs li;
              w_str recs c.Engine.c_fn;
              w_u recs k;
              w_map_info t.locs recs c.Engine.c_map;
              (li, c.Engine.c_fn, k, c.Engine.c_map))
            fr.Engine.f_calls
        in
        { rc_in; rc_out; rc_lis; rc_sets; rc_calls })
      records
  in
  let b = Buffer.create (Buffer.length recs + 1024) in
  w_tables b t;
  Buffer.add_buffer b recs;
  (Buffer.contents b, Array.of_list decoded)

let decode_segment canon r : record array =
  let arr, sets = r_tables canon r in
  let recs =
    r_list r (fun () ->
        let rc_in = r_set_ref sets r in
        let rc_out = r_set_ref sets r in
        let n = r_count r in
        let rc_lis = Array.make n 0 and rc_sets = Array.make n Pts.empty in
        for i = 0 to n - 1 do
          rc_lis.(i) <- r_u r;
          rc_sets.(i) <- r_set_ref sets r
        done;
        let rc_calls =
          r_list r (fun () ->
              let li = r_u r in
              let g = r_str r in
              let k = r_u r in
              (li, g, k, r_map_info arr r))
        in
        { rc_in; rc_out; rc_lis; rc_sets; rc_calls })
  in
  Array.of_list recs

(* ------------------------------------------------------------------ *)
(* Entry files                                                        *)
(* ------------------------------------------------------------------ *)

(** An entry whose header and index read back: the sections are located
    and their digests known, but none is verified or decoded yet. *)
type entry = {
  en_key : string;  (** the content key of the text it was saved for *)
  en_fp : fingerprint;
  en_result : section;
  en_segments : (string * section) list;  (** by function, in index order *)
  en_targets : (string * string list) list;
      (** per function whose indirect call sites resolved to a target
          in the saved run, those targets ({!indirect_targets}); a
          function without a list called nothing through a pointer *)
}

let w_fingerprint b fp =
  Buffer.add_string b fp.fp_env;
  w_u b (List.length fp.fp_funcs);
  List.iter
    (fun (n, d) ->
      w_str b n;
      Buffer.add_string b d)
    fp.fp_funcs

let r_fingerprint r =
  let fp_env = r_raw r 16 in
  let fp_funcs =
    r_list r (fun () ->
        let n = r_str r in
        (n, r_raw r 16))
  in
  { fp_env; fp_funcs }

(** The header and index of an entry file's bytes. Raises [Bad] unless
    the index digest holds and the sections tile the rest of the file
    exactly, so a truncated entry is caught here, whatever it is used
    for next. *)
let open_entry (data : string) : entry =
  let r = { data; pos = 0; lim = String.length data } in
  if r_raw r (String.length magic) <> magic then raise Bad;
  if r_u r <> version then raise Bad;
  let en_key = r_raw r 16 in
  let index_digest = r_raw r 16 in
  let len = r_u r in
  if len > r.lim - r.pos then raise Bad;
  if not (String.equal (Digest.substring data r.pos len) index_digest) then raise Bad;
  let ix = { data; pos = r.pos; lim = r.pos + len } in
  let en_fp = r_fingerprint ix in
  let base = ix.lim in
  let next = ref 0 in
  let sections =
    r_list ix (fun () ->
        let name = r_str ix in
        let off = r_u ix in
        let s_len = r_u ix in
        let s_digest = r_raw ix 16 in
        if off <> !next || s_len > r.lim - base - off then raise Bad;
        next := off + s_len;
        (name, { s_data = data; s_off = base + off; s_len; s_digest }))
  in
  let en_targets =
    r_list ix (fun () ->
        let fn = r_str ix in
        (fn, r_list ix (fun () -> r_str ix)))
  in
  if ix.pos <> ix.lim || base + !next <> r.lim then raise Bad;
  match sections with
  | ("", en_result) :: en_segments -> { en_key; en_fp; en_result; en_segments; en_targets }
  | _ -> raise Bad

(* ------------------------------------------------------------------ *)
(* Resident sections                                                  *)
(* ------------------------------------------------------------------ *)

(* Per cache file, the decoded forms of sections of the entry this
   domain last read or wrote there: what a lookup decoded, and what a
   save encoded or copied. A lookup verifies a section's bytes against
   the index digest, as it always does, and only then takes the held
   form of that digest in place of decoding. Forms hold locations
   interned in this domain ({!Loc}), hence one table per domain; each
   file's table is replaced wholesale, so it never outgrows one entry.
   An entry that another writer replaced is read from disk wherever its
   digests differ. *)
let resident : (string, held) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 8)

(** Make [held] the forms of [file]. *)
let hold file (held : held) = Hashtbl.replace (Domain.DLS.get resident) file held

(** Forget every form of [file]. *)
let release file = Hashtbl.remove (Domain.DLS.get resident) file

(** [file]'s forms of the sections of [en], the entry just read there,
    which become the file's table: what a lookup of [en] can use, and
    what it adds as it decodes. *)
let held_for file (en : entry) : held =
  let held = Hashtbl.create 64 in
  (match Hashtbl.find_opt (Domain.DLS.get resident) file with
  | None -> ()
  | Some prev ->
      List.iter
        (fun (s : section) ->
          Option.iter (Hashtbl.replace held s.s_digest) (Hashtbl.find_opt prev s.s_digest))
        (en.en_result :: List.map snd en.en_segments));
  hold file held;
  held

(** Drop from [held] the forms of [en]'s segments but those of functions
    [keep] holds for: what a partial hit of [en] cannot use, since its
    save writes the other functions' segments afresh. *)
let retain ~keep (held : held) (en : entry) =
  let used = Hashtbl.create 64 in
  Hashtbl.replace used en.en_result.s_digest ();
  List.iter
    (fun (fn, (s : section)) -> if keep fn then Hashtbl.replace used s.s_digest ())
    en.en_segments;
  Hashtbl.filter_map_inplace (fun d f -> if Hashtbl.mem used d then Some f else None) held

(* ------------------------------------------------------------------ *)
(* Save                                                               *)
(* ------------------------------------------------------------------ *)

let rec mkdirs dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdirs parent;
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

(* Concurrency-safe scratch names for the write-then-rename protocol:
   pid + domain id + a per-domain counter can never collide between two
   workers (unlike [Filename.temp_file], whose shared PRNG state is not
   domain-safe). The final [Sys.rename] is atomic within the cache
   directory, so a reader only ever sees absent or complete entries;
   two workers racing on the same digest each publish a complete file
   and the last rename wins. *)
let tmp_counter : int ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref 0)

let tmp_name dir =
  let c = Domain.DLS.get tmp_counter in
  incr c;
  Filename.concat dir
    (Printf.sprintf ".ptan-%d-%d-%d.tmp" (Unix.getpid ())
       ((Domain.self () :> int))
       !c)

(* Lay out and publish an entry: the index names every section with
   its offset, length and digest, a copied section keeping the digest
   it came with, then lists each function's recorded indirect targets
   ({!entry}). *)
let publish file ~key ~fp ~(result : section) ~(segments : (string * section) list) ~targets =
  let ix = Buffer.create 4096 in
  w_fingerprint ix fp;
  let sections = ("", result) :: segments in
  w_u ix (List.length sections);
  let off = ref 0 in
  List.iter
    (fun (name, s) ->
      w_str ix name;
      w_u ix !off;
      w_u ix s.s_len;
      Buffer.add_string ix s.s_digest;
      off := !off + s.s_len)
    sections;
  w_u ix (List.length targets);
  List.iter
    (fun (fn, ts) ->
      w_str ix fn;
      w_u ix (List.length ts);
      List.iter (w_str ix) ts)
    targets;
  let head = Buffer.create (Buffer.length ix + 64) in
  Buffer.add_string head magic;
  w_u head version;
  Buffer.add_string head key;
  Buffer.add_string head (Digest.string (Buffer.contents ix));
  w_u head (Buffer.length ix);
  Buffer.add_buffer head ix;
  mkdirs (Filename.dirname file);
  let tmp = tmp_name (Filename.dirname file) in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists tmp then try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_bin tmp (fun oc ->
          Out_channel.output_string oc (Buffer.contents head);
          List.iter
            (fun (_, s) -> Out_channel.output_substring oc s.s_data s.s_off s.s_len)
            sections);
      Sys.rename tmp file;
      (* chaos harness: corrupt the published entry, exactly like torn
         storage under a complete, well-formed file name *)
      Fault.maybe_corrupt_file file)

(** What a lookup bound from a kept function's segment: the section, to
    copy, and its records, the inputs of its records with their
    ordinals, the function's target list in the entry's index, and its
    statements in local order. *)
type bound = {
  b_sec : section;
  b_recs : record array;
  b_ord : int Pts.Tbl.t;
  b_targets : string list;
  b_stmts : Ir.stmt array;
}

(** How a save writes one function's segment. *)
type plan = Copy of bound | Encode of Engine.summary_entry list

(* The summary segments of [res], in name order. Every framed entry of
   the store is written: this run's framed entries and every seed. A
   function whose segment was bound keeps its records at their ordinals
   (so segments copied from the same entry still resolve), then appends
   this run's new ones; when it has no new one, which the store's entry
   count equalling the bound count shows, its old bytes are copied
   unchanged. A seed's calls were resolved when it was bound, and a live
   frame is stored only when its calls' entries resolve to framed
   entries ({!Engine.eval_node}), so every call's entry has an
   ordinal. Each segment comes with its records. Also returns, per
   function with a segment, the ordinal of each of its records by
   input. *)
let segments_of ~(bound : (string, bound) Hashtbl.t) (res : Analysis.result) :
    (string * section * record array) list * (string -> (Pts.t -> int) option) =
  let plans =
    Hashtbl.fold
      (fun fn by_input acc ->
        match Hashtbl.find_opt bound fn with
        | Some b when Pts.Tbl.length by_input = Pts.Tbl.length b.b_ord -> (fn, Copy b) :: acc
        | found -> (
            let ordinal (en : Engine.summary_entry) =
              Option.bind found (fun b -> Pts.Tbl.find_opt b.b_ord en.Engine.se_in)
            in
            let old =
              Array.make (match found with Some b -> Pts.Tbl.length b.b_ord | None -> 0) None
            in
            let added =
              Pts.Tbl.fold
                (fun _ (en : Engine.summary_entry) added ->
                  match ordinal en with
                  | Some k ->
                      old.(k) <- Some en;
                      added
                  | None -> if Option.is_some en.Engine.se_frame then en :: added else added)
                by_input []
            in
            let old =
              Array.map
                (function Some en -> en | None -> failwith "Persist: a seed left the store")
                old
            in
            match Array.to_list old @ added with [] -> acc | recs -> (fn, Encode recs) :: acc))
      res.Analysis.summaries []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  let ordinals = Hashtbl.create 64 in
  List.iter
    (fun (fn, plan) ->
      Hashtbl.replace ordinals fn
        (match plan with
        | Copy b -> b.b_ord
        | Encode recs ->
            let t = Pts.Tbl.create 16 in
            List.iteri
              (fun k (en : Engine.summary_entry) -> Pts.Tbl.replace t en.Engine.se_in k)
              recs;
            t))
    plans;
  let ordinal fn input =
    match Option.bind (Hashtbl.find_opt ordinals fn) (fun t -> Pts.Tbl.find_opt t input) with
    | Some k -> k
    | None -> failwith "Persist: a call to an unsaved entry"
  in
  let funcs = Hashtbl.create 64 in
  List.iter (fun f -> Hashtbl.replace funcs f.Ir.fn_name f) res.Analysis.prog.Ir.funcs;
  ( List.map
    (fun (fn, plan) ->
      match plan with
      | Copy b -> (fn, b.b_sec, b.b_recs)
      | Encode recs ->
          let local = Hashtbl.create 64 in
          Option.iter
            (fun f -> Array.iteri (fun li s -> Hashtbl.replace local s.Ir.s_id li) (local_stmts f))
            (Hashtbl.find_opt funcs fn);
          let local sid =
            match Hashtbl.find_opt local sid with
            | Some li -> li
            | None -> failwith "Persist: a frame row outside its function"
          in
          let bytes, decoded = encode_segment ~local ~ordinal recs in
          (fn, section_of bytes, decoded))
      plans,
    fun fn -> if Hashtbl.mem ordinals fn then Some (ordinal fn) else None )

(* The index's target lists: per function, the sorted functions its
   indirect call sites resolve to in [res] (paper §5: the function
   targets of the pointer in the statement's set, merged over every
   context, which is what a [calls] query answers), plus, for a
   function whose segment was bound, its old list: the save keeps its
   old records, whose inputs may not have occurred in this run. So the
   list covers every target an indirect call of the function's saved
   records names, and also the targets of evaluations whose frames were not
   saved: the dirty rule sees every edge a saved record or the run
   took. Functions with no target are left out. *)
let indirect_targets ~(bound : (string, bound) Hashtbl.t) (res : Analysis.result) :
    (string * string list) list =
  List.filter_map
    (fun f ->
      let old =
        match Hashtbl.find_opt bound f.Ir.fn_name with Some b -> b.b_targets | None -> []
      in
      let ts =
        Ir.fold_func
          (fun acc s ->
            match (s.Ir.s_desc, Hashtbl.find_opt res.Analysis.stmt_pts s.Ir.s_id) with
            | Ir.Scall (_, Ir.Cindirect fref, _), Some pts ->
                Loc.Map.fold
                  (fun l _ acc -> match l with Loc.Fun g -> g :: acc | _ -> acc)
                  (Lval.rvals_ref res.Analysis.tenv f pts fref)
                  acc
            | _ -> acc)
          old f
      in
      match List.sort_uniq String.compare ts with [] -> None | ts -> Some (f.Ir.fn_name, ts))
    res.Analysis.prog.Ir.funcs

(* Run [save], which saves [res], adding its cost to [t_serialize], as a
   [cache-store] span. *)
let storing ~source (res : Analysis.result) save =
  let t0 = Metrics.now () in
  let tr0 = Trace.start () in
  save ();
  let m = res.Analysis.metrics in
  m.Metrics.t_serialize <- m.Metrics.t_serialize +. (Metrics.now () -. t0);
  if Trace.on () then
    Trace.emit Trace.Cache_store
      ~name:(Filename.basename source)
      ~pts_in:(Hashtbl.length res.Analysis.stmt_pts)
      ~t0:tr0 ()

(* Write [res], a run seeded from the segments [bound] holds, under
   header key [key] (raw bytes), with [fp], the fingerprint of [res]'s
   program, in the index: the result section, the segments, encoded or
   copied, and the index's target lists. The forms of its sections are
   [file]'s resident ones once the entry is published. *)
let write ~source ~key ~fp ~bound (res : Analysis.result) file =
  storing ~source res (fun () ->
      let segments, ordinals = segments_of ~bound res in
      let bytes, tables = encode_result ~ordinals res in
      let result = section_of bytes in
      publish file ~key ~fp ~result
        ~segments:(List.map (fun (fn, s, _) -> (fn, s)) segments)
        ~targets:(indirect_targets ~bound res);
      let held = Hashtbl.create 64 in
      Hashtbl.replace held result.s_digest (Tables tables);
      List.iter (fun (_, s, recs) -> Hashtbl.replace held s.s_digest (Records recs)) segments;
      hold file held)

(* ------------------------------------------------------------------ *)
(* Load                                                               *)
(* ------------------------------------------------------------------ *)

(** Why an entry could not be read. An entry that reads back but keys
    other text is neither: the lookup decides what it serves. *)
type load_error =
  | Missing  (** no file at that path *)
  | Corrupt
      (** truncation, bit damage, version skew, or any decode failure:
          the entry can never load again and is quarantined *)

(* Run one step of reading an entry, adding its time to [t]. Any
   failure to read or decode is [Corrupt]. *)
let timed ~t f =
  let t0 = Metrics.now () in
  let v =
    try Ok (f ()) with
    | Bad | Failure _ | Invalid_argument _ | Sys_error _ | End_of_file -> Error Corrupt
  in
  t := !t +. (Metrics.now () -. t0);
  v

(* {!timed}, as a [cache-load] span *)
let loading ~source ~t ?(size = fun _ -> -1) f =
  let tr0 = Trace.start () in
  let v = timed ~t f in
  if Trace.on () then
    Trace.emit Trace.Cache_load
      ~name:(Filename.basename source)
      ~pts_out:(match v with Ok v -> size v | Error _ -> -1)
      ~t0:tr0 ();
  v

let stmt_count (r : Analysis.result) = Hashtbl.length r.Analysis.stmt_pts

let open_file ~source ~t file =
  if not (Sys.file_exists file) then Error Missing
  else loading ~source ~t (fun () -> open_entry (read_file file))

(* ------------------------------------------------------------------ *)
(* Cache                                                              *)
(* ------------------------------------------------------------------ *)

let default_cache_dir () =
  match Sys.getenv_opt "XDG_CACHE_HOME" with
  | Some d when d <> "" -> Filename.concat d "ptan"
  | _ -> (
      match Sys.getenv_opt "HOME" with
      | Some h when h <> "" -> Filename.concat (Filename.concat h ".cache") "ptan"
      | _ -> ".ptan-cache")

(* An entry must survive edits to the source, so its name cannot
   involve the content: one entry per (source path, options, entry
   function) and kind, which an edit overwrites; the content key inside
   the header distinguishes a full hit from a rekey or a partial one. *)
let stable_file ~ext ~cache_dir ~source ~opts ~entry =
  let base = Filename.remove_extension (Filename.basename source) in
  Filename.concat cache_dir
    (Printf.sprintf "%s-%s.%s" base
       (Digest.to_hex
          (Digest.string (Printf.sprintf "%s\x00%s\x00%s" source (opts_repr opts) entry)))
       ext)

let cache_file = stable_file ~ext:"ptc"

let cache_file_incr = stable_file ~ext:"pti"

(* ------------------------------------------------------------------ *)
(* Replay eligibility and the dirty set                               *)
(* ------------------------------------------------------------------ *)

(* A function's persisted summaries may be replayed only when every
   function in its closure over direct calls and recorded indirect
   targets (over the NEW program) is unchanged. Paper §5 resolves an
   indirect call from the points-to set at its site, a function of the
   evaluation's input, so a summary fixes its targets as it fixes its
   output; the replay grows the targets' graph nodes from the recorded
   calls, and serving it from the summary is bit-identical to
   re-running it (docs/INCREMENTAL.md). [targets f] lists the targets
   [f]'s indirect calls resolved to in the saved run. A function is not
   eligible when its direct-call closure holds an indirect call site
   and it lies on a cycle through another function: inside such a cycle an evaluation
   also depends on the in-flight cycle-mate and on which of its entries
   a §6 memo hit found, so neither its output nor the calls its frame
   records, which a replay turns into graph nodes, are a function of
   its input alone. A self-recursive function's only cycle-mate is
   itself, inside its own evaluation. Functions whose closure is free
   of indirect call sites replay inside direct-call cycles as they
   always did (docs/INCREMENTAL.md, "Known divergence"). The dirty set
   is the complement — edited functions and their (transitive) callers.
   Computed as a decreasing fixed point: start from the locally-clean
   functions (equal digests in the two tables) and strike out any whose
   callee chain fails. *)
let eligible_funcs ~(targets : string -> string list) (p : Ir.program)
    ~(old_hashes : (string, string) Hashtbl.t) ~(new_hashes : (string, string) Hashtbl.t) :
    (string, unit) Hashtbl.t =
  let defined = Hashtbl.create 64 in
  List.iter (fun f -> Hashtbl.replace defined f.Ir.fn_name ()) p.Ir.funcs;
  let callees = Hashtbl.create 64 in
  let elig = Hashtbl.create 64 in
  let direct = Hashtbl.create 64 and indirect = Hashtbl.create 64 in
  List.iter
    (fun f ->
      let name = f.Ir.fn_name in
      let cs =
        Ir.fold_func
          (fun cs s -> match s.Ir.s_desc with Ir.Scall (_, Ir.Cdirect g, _) -> g :: cs | _ -> cs)
          [] f
      in
      let has_indirect = Ir.calls_indirectly f in
      Hashtbl.replace callees name ((if has_indirect then targets name else []) @ cs);
      Hashtbl.replace direct name cs;
      if has_indirect then Hashtbl.replace indirect name ();
      match (Hashtbl.find_opt old_hashes name, Hashtbl.find_opt new_hashes name) with
      | Some d, Some d' when String.equal d d' -> Hashtbl.replace elig name ()
      | _ -> ())
    p.Ir.funcs;
  (* does a walk over [edges] from [from] meet a function [goal] holds
     for? *)
  let reaches edges goal from =
    let seen = Hashtbl.create 64 in
    let rec go g =
      (not (Hashtbl.mem seen g))
      && begin
           Hashtbl.replace seen g ();
           goal g || List.exists go (Option.value ~default:[] (Hashtbl.find_opt edges g))
         end
    in
    List.exists go from
  in
  List.iter
    (fun f ->
      let name = f.Ir.fn_name in
      let others = List.filter (fun g -> not (String.equal g name)) (Hashtbl.find callees name) in
      if
        Hashtbl.mem elig name
        && reaches direct (Hashtbl.mem indirect) [ name ]
        && reaches callees (String.equal name) others
      then Hashtbl.remove elig name)
    p.Ir.funcs;
  let changed = ref true in
  while !changed do
    changed := false;
    let drop =
      Hashtbl.fold
        (fun name () acc ->
          let bad =
            List.exists
              (fun g ->
                if Hashtbl.mem defined g then not (Hashtbl.mem elig g)
                else
                  (* undefined now: only fine if it was also external in
                     the saved run (same deterministic model) — a callee
                     deleted since then changes the caller's meaning *)
                  Hashtbl.mem old_hashes g)
              (Hashtbl.find callees name)
          in
          if bad then name :: acc else acc)
        elig []
    in
    if drop <> [] then begin
      changed := true;
      List.iter (Hashtbl.remove elig) drop
    end
  done;
  elig

(* Move a corrupt entry out of the lookup path (best effort — on rename
   failure the entry stays, and the next lookup will try again). The
   [.bad] file is kept rather than deleted so operators can post-mortem
   what corrupted it — which is why a pre-existing [.bad] (an earlier,
   still-uninspected corruption) must not be clobbered: later victims
   go to [.bad.1], [.bad.2], ... instead. The file's resident forms
   go too. *)
let quarantine file =
  release file;
  let base = file ^ ".bad" in
  let dest =
    if not (Sys.file_exists base) then base
    else
      let rec fresh i =
        let c = Printf.sprintf "%s.%d" base i in
        if Sys.file_exists c then fresh (i + 1) else c
      in
      fresh 1
  in
  try Sys.rename file dest with Sys_error _ -> ()

(* Summaries replay only under the context-sensitive engine with §6
   sharing, and not under [heap_by_site]. A replay grows the subtree a
   cold evaluation grows under sharing, where a repeated input is a memo
   hit ({!Engine.replay}); without sharing every repeat grows its own.
   Heap objects are named by statement id, and ids shift when an earlier
   function grows, which the per-function digests deliberately do not
   see. Other modes run in full on any change to the fingerprint and
   keep the entry as a plain cache. *)
let seedable_mode (opts : Options.t) =
  opts.Options.context_sensitive && opts.Options.share_contexts
  && not opts.Options.heap_by_site

(* The functions whose segments [en] may seed into [prog], whose
   fingerprint is [fp] ({!eligible_funcs}, with the index's target
   lists: a function without one called nothing through a pointer);
   [None] when the environment changed (everything is dirty). *)
let kept_funcs ~fp (prog : Ir.program) (en : entry) : (string, unit) Hashtbl.t option =
  if not (String.equal en.en_fp.fp_env fp.fp_env) then None
  else
    let targets fn = Option.value ~default:[] (List.assoc_opt fn en.en_targets) in
    Some (eligible_funcs ~targets prog ~old_hashes:(digests en.en_fp) ~new_hashes:(digests fp))

(** Verify the segments of the [keep]-satisfying functions, take each
    one's records from [held] or decode them into it, and bind them to
    [p]: rows to [p]'s statement ids, calls to the call statements and
    the callee records they name. Reads no other section. A saved entry
    is closed under its calls, [keep] is closed under direct calls and
    recorded targets, and a kept function is unchanged, so every call's
    entry is a record of a kept segment, every row names a statement of
    its function, and every call a call statement of its function to the
    callee it names: the direct call's callee, or one of the index's
    targets for the function. Anything else, like a decode failure, an
    out-of-range index or two records of one input under digests that
    held, means a damaged entry: [Bad]. Also returns how many segments
    [held] served. *)
let bind_summaries ~(held : held) ~keep (p : Ir.program) (en : entry) :
    Engine.store * (string, bound) Hashtbl.t * int =
  let kept = List.filter (fun (fn, _) -> keep fn) en.en_segments in
  let decoded = Hashtbl.create 64 in
  let canon = Hashtbl.create 256 in
  let served = ref 0 in
  List.iter
    (fun (fn, sec) ->
      let r = verified sec in
      let recs =
        match Hashtbl.find_opt held sec.s_digest with
        | Some (Records recs) ->
            incr served;
            recs
        | Some (Tables _) | None ->
            let recs = decode_segment canon r in
            if r.pos <> r.lim then raise Bad;
            Hashtbl.replace held sec.s_digest (Records recs);
            recs
      in
      Hashtbl.replace decoded fn recs)
    kept;
  let funcs = Hashtbl.create 64 in
  List.iter (fun f -> Hashtbl.replace funcs f.Ir.fn_name f) p.Ir.funcs;
  let out = Engine.store_create () in
  let bound = Hashtbl.create 64 in
  List.iter
    (fun (fn, b_sec) ->
      let b_recs = Hashtbl.find decoded fn in
      let stmts = match Hashtbl.find_opt funcs fn with Some f -> local_stmts f | None -> raise Bad in
      let b_targets = Option.value ~default:[] (List.assoc_opt fn en.en_targets) in
      let entry_of g k =
        match Hashtbl.find_opt decoded g with
        | Some recs when k < Array.length recs -> recs.(k).rc_in
        | Some _ | None -> raise Bad
      in
      let b_ord = Pts.Tbl.create 16 in
      Array.iteri
        (fun k rc ->
          if Pts.Tbl.mem b_ord rc.rc_in then raise Bad;
          Pts.Tbl.add b_ord rc.rc_in k;
          let f_rows =
            Array.mapi
              (fun i li ->
                if li >= Array.length stmts then raise Bad;
                (stmts.(li).Ir.s_id, rc.rc_sets.(i)))
              rc.rc_lis
          in
          (* rows are written in statement order, which local order
             keeps unless lowering numbers nested statements otherwise *)
          let rec sorted i = i < 1 || (fst f_rows.(i - 1) < fst f_rows.(i) && sorted (i - 1)) in
          if not (sorted (Array.length f_rows - 1)) then
            Array.sort (fun (a, _) (b, _) -> Int.compare a b) f_rows;
          let f_calls =
            List.map
              (fun (li, g, k, c_map) ->
                if li >= Array.length stmts then raise Bad;
                let s = stmts.(li) in
                (match s.Ir.s_desc with
                | Ir.Scall (_, Ir.Cdirect f, _) when String.equal f g -> ()
                | Ir.Scall (_, Ir.Cindirect _, _) when List.mem g b_targets -> ()
                | _ -> raise Bad);
                let c_in = if k > 0 then Some (entry_of g (k - 1)) else None in
                { Engine.c_sid = s.Ir.s_id; c_fn = g; c_in; c_map })
              rc.rc_calls
          in
          ignore
            (Engine.store_add out fn
               {
                 Engine.se_in = rc.rc_in;
                 se_out = rc.rc_out;
                 se_frame = Some { Engine.f_rows; f_calls };
                 se_origin = Engine.Seeded;
               }))
        b_recs;
      Hashtbl.replace bound fn { b_sec; b_recs; b_ord; b_targets; b_stmts = stmts })
    kept;
  (out, bound, !served)

(* The [adopt] of a run seeded from [en] ({!Analysis.analyze}): the
   rows of a kept function whose block in [en]'s result section is
   complete and lists exactly the records the run replayed. A block of
   one record gives that record's frame rows, which are its rows;
   others are decoded. The result section is verified on the first call,
   and its location and row tables taken from [held] or decoded into
   it; any damage raises [Bad]. *)
let adopter ~held ~(bound : (string, bound) Hashtbl.t) (en : entry) =
  let section =
    lazy
      (let r = verified en.en_result in
       ignore (skip_str r);
       let t = r_result_tables ~held en.en_result.s_digest r in
       let blocks = Hashtbl.create 64 in
       List.iter (fun (name, blk) -> Hashtbl.replace blocks name blk) (r_blocks r);
       (t.t_locs, t.t_rows, blocks))
  in
  fun fname (entries : Engine.summary_entry list) ->
    match Hashtbl.find_opt bound fname with
    | None -> None
    | Some b -> (
        let locs, rows, blocks = Lazy.force section in
        match Hashtbl.find_opt blocks fname with
        | None -> None
        | Some blk ->
            (* a reader of its own: [blk] serves every call *)
            let r = { blk with pos = blk.pos } in
            let complete, listed = r_block_head r in
            let ordinal (e : Engine.summary_entry) =
              Option.value ~default:(-1) (Pts.Tbl.find_opt b.b_ord e.Engine.se_in)
            in
            if not (complete && listed = List.sort Int.compare (List.map ordinal entries)) then
              None
            else
              match (listed, entries) with
              | [ _ ], [ { Engine.se_frame = Some fr; _ } ] -> Some fr.Engine.f_rows
              | _ ->
                  let acc = ref [] in
                  r_block_rows locs rows ~sets:(set_vec ()) b.b_stmts r (fun sid set ->
                      acc := (sid, set) :: !acc);
                  Some (Array.of_list !acc))

let load_summaries ~cache_dir ~source ~opts ?(entry = "main") (prog : Ir.program) :
    Engine.store option =
  if not (seedable_mode opts) then None
  else
    let t = ref 0. in
    let file = cache_file_incr ~cache_dir ~source ~opts ~entry in
    match open_file ~source ~t file with
    | Error _ -> None
    | Ok en ->
        Option.bind
          (kept_funcs ~fp:(fingerprint ~opts ~entry prog) prog en)
          (fun elig ->
            let held = held_for file en in
            Result.to_option
              (loading ~source ~t (fun () ->
                   let seeds, _, _ = bind_summaries ~held ~keep:(Hashtbl.mem elig) prog en in
                   seeds)))

let analyze_cached ?cache_dir ?(opts = Options.default) ?(entry = "main") ?budget
    ?(incremental = false) source : Analysis.result * bool =
  let dir = match cache_dir with Some d -> d | None -> default_cache_dir () in
  let seedable = incremental && seedable_mode opts in
  let quarantined = ref 0 in
  (* The source is read once, before any entry is: the same bytes are
     keyed, analyzed and published under that key, so an edit landing
     mid-analysis can never be saved under a key naming text that was
     not analyzed. A source that cannot be read raises here, and says
     nothing about the entry, which stays where it is. *)
  let content = read_file source in
  let mykey = key_of_content ~content ~opts ~entry in
  let file =
    (if incremental then cache_file_incr else cache_file) ~cache_dir:dir ~source ~opts ~entry
  in
  (* this lookup's reading of the entry: the header and index, then the
     result section (a hit) or the kept segments (a partial hit) *)
  let t_load = ref 0. in
  let loading f = loading ~source ~t:t_load ~size:stmt_count f in
  (* [stored] is the entry as far as it reads; a step that fails
     quarantines it (truncated, damaged or version-skewed) and the
     lookup goes on without it *)
  let stored = ref None in
  let read run f =
    match !stored with
    | None -> None
    | Some en -> (
        match run (fun () -> f en) with
        | Ok v -> Some v
        | Error _ ->
            quarantine file;
            incr quarantined;
            stored := None;
            None)
  in
  (* the forms of the stored entry's sections that this domain holds,
     and those the lookup decodes ({!held_for}) *)
  let held =
    match open_file ~source ~t:t_load file with
    | Ok en ->
        stored := Some en;
        held_for file en
    | Error Corrupt ->
        quarantine file;
        incr quarantined;
        Hashtbl.create 1
    | Error Missing ->
        release file;
        Hashtbl.create 1
  in
  let result_of ?prog en =
    read_section en.en_result (decode_result ~opts ~held ?prog en.en_result)
  in
  (* A hit, full or rekeyed, serves the saved result: its counters are
     the saved run's, but for this lookup's own. The lookup's timers are
     its load, its save and, when it lowered the source, [t_parse]; its
     incremental counters say that nothing re-ran, every function being
     served from the entry. *)
  let hit ?(t_parse = 0.) (res : Analysis.result) =
    let m = res.Analysis.metrics in
    m.Metrics.t_parse <- t_parse;
    m.Metrics.t_deserialize <- !t_load;
    m.Metrics.cache_quarantined <- m.Metrics.cache_quarantined + !quarantined;
    m.Metrics.cache_hits <- m.Metrics.cache_hits + 1;
    m.Metrics.incr_funcs_dirty <- 0;
    m.Metrics.incr_funcs_reused <- List.length res.Analysis.prog.Ir.funcs;
    m.Metrics.incr_nodes_rebuilt <- 0;
    m.Metrics.incr_funcs_adopted <- 0;
    (res, true)
  in
  match
    match !stored with
    | Some en when String.equal en.en_key mykey -> read loading result_of
    | Some _ | None -> None
  with
  | Some res -> hit res
  | None -> (
      let tp0 = Metrics.now () in
      let prog = Simple_ir.Simplify.of_string ~file:source content in
      let t_parse = Metrics.now () -. tp0 in
      let n_defined = List.length prog.Ir.funcs in
      let tf0 = Metrics.now () in
      let fp = fingerprint ~opts ~entry prog in
      let t_fp = Metrics.now () -. tf0 in
      (* [stored], if any, is an entry keying an older text of the source *)
      match
        match !stored with
        | Some en when en.en_fp = fp ->
            Option.map (fun res -> (en, res)) (read loading (result_of ~prog))
        | Some _ | None -> None
      with
      | Some (en, res) ->
          (* Rekey: the edit left the lowered program as it was (a
             comment, whitespace), so the saved result is still exactly
             the answer, in every engine mode. Serve it as a hit without
             touching the engine, decoded with the fresh lowering, which
             equals the saved program (so that is skipped, not
             unmarshalled), and publish the entry's sections under the
             new key: the same index and bytes, and resident forms. *)
          (try
             storing ~source res (fun () ->
                 publish file ~key:mykey ~fp ~result:en.en_result ~segments:en.en_segments
                   ~targets:en.en_targets)
           with Sys_error _ | Failure _ -> ());
          hit ~t_parse res
      | None ->
          let dirty, seeded, bound, adopt =
            match !stored with
            | Some en when seedable -> (
                let td0 = Trace.start () in
                match kept_funcs ~fp prog en with
                | None -> (n_defined, None, None, None)
                | Some elig -> (
                    let dirty = n_defined - Hashtbl.length elig in
                    retain ~keep:(Hashtbl.mem elig) held en;
                    (* reading the kept segments is the seeding: timed
                       as a load, traced in the [dirty] span *)
                    let seeds =
                      read (timed ~t:t_load)
                        (bind_summaries ~held ~keep:(Hashtbl.mem elig) prog)
                    in
                    (* the kept segments decoded, and those served
                       resident *)
                    if Trace.on () then begin
                      let pts_in, pts_out =
                        match seeds with
                        | Some (_, bound, served) -> (Hashtbl.length bound - served, served)
                        | None -> (-1, -1)
                      in
                      Trace.emit Trace.Dirty ~name:(Filename.basename source) ~stmts:dirty
                        ~pts_in ~pts_out ~t0:td0 ()
                    end;
                    match seeds with
                    | Some (seeds, bound, _) ->
                        (* damage to a block quarantines the entry,
                           and the run folds; reading blocks happens in
                           the run, so it is timed as analysis, not as
                           a load *)
                        let rows = adopter ~held ~bound en in
                        let adopt fname entries =
                          Option.join (read (timed ~t:(ref 0.)) (fun _ -> rows fname entries))
                        in
                        (dirty, Some seeds, Some bound, Some adopt)
                    (* a kept segment that does not verify or decode:
                       the entry was quarantined, everything is dirty *)
                    | None -> (n_defined, None, None, None)))
            | _ ->
                (* nothing usable (or the globals / layouts / externals /
                   options changed): everything is dirty *)
                (n_defined, None, None, None)
          in
          let res =
            Analysis.analyze ~opts ~entry ?budget ~record_summaries:seedable ?seeded ?adopt prog
          in
          let m = res.Analysis.metrics in
          m.Metrics.t_parse <- t_parse;
          if incremental then m.Metrics.incr_funcs_dirty <- dirty;
          (* a degraded result is not the full-precision answer the key
             promises — never publish it to the cache *)
          (if res.Analysis.degraded = None then
             let bound = match bound with Some b -> b | None -> Hashtbl.create 1 in
             try
               write ~source ~key:mykey ~fp ~bound res file;
               (* the fingerprint is the save's digest work, computed
                  early to serve the rekey test: it counts in the save
                  time *)
               m.Metrics.t_serialize <- m.Metrics.t_serialize +. t_fp
             with Sys_error _ | Failure _ -> ());
          (* after the save: the entry's record, which a hit reports,
             carries the analysis counters only *)
          m.Metrics.t_deserialize <- m.Metrics.t_deserialize +. !t_load;
          m.Metrics.cache_quarantined <- m.Metrics.cache_quarantined + !quarantined;
          m.Metrics.cache_misses <- m.Metrics.cache_misses + 1;
          (res, false))
