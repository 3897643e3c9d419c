(** Persisted analysis results (see persist.mli).

    Encoding conventions: non-negative integers are unsigned LEB128
    varints; strings are length-prefixed; floats are IEEE-754 bits,
    little-endian; locations are written once into an interned table and
    referenced by index (an entry only references earlier entries, so
    the table decodes in one left-to-right pass). The file layout is

    {v magic | version | key digest | loc table | payload v}

    where the payload holds the marshalled SIMPLE program (plain data,
    no closures — re-lowering the source would double the warm-load
    cost), an interned table of the distinct points-to sets (the engine
    reaches a steady state, so most statements share one of a few dozen
    sets; each is written once, grouped by source location), the
    per-statement set references, the entry output, warnings, the
    metrics record (every {!Metrics.fields} entry), and the invocation
    graph in pre-order. The header carries a digest of the payload, verified
    before any decoding (in particular before [Marshal.from_string],
    which is not robust against corrupt input). Every decode path
    bounds-checks and raises {!Bad}, which [load] maps to [None] — a
    stale or corrupt cache entry degrades to a cache miss, never to a
    wrong answer. *)

module Ir = Simple_ir.Ir
module Ig = Invocation_graph

let version = 5

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

let w_float b f = Buffer.add_int64_le b (Int64.bits_of_float f)

(* ------------------------------------------------------------------ *)
(* Primitive readers                                                  *)
(* ------------------------------------------------------------------ *)

exception Bad

type rd = { data : string; mutable pos : int }

let r_byte r =
  if r.pos >= String.length r.data then raise Bad;
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

let r_str r =
  let n = r_u r in
  if n < 0 || r.pos + n > String.length r.data then raise Bad;
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let r_raw r n =
  if r.pos + n > String.length r.data then raise Bad;
  let s = String.sub r.data r.pos n in
  r.pos <- r.pos + n;
  s

let r_float r =
  if r.pos + 8 > String.length r.data then raise Bad;
  let v = Int64.float_of_bits (String.get_int64_le r.data r.pos) in
  r.pos <- r.pos + 8;
  v

(* ------------------------------------------------------------------ *)
(* Keys                                                               *)
(* ------------------------------------------------------------------ *)

let opts_repr (o : Options.t) =
  Printf.sprintf "sym=%d;arith=%b;ctx=%b;def=%b;share=%b;site=%b"
    o.Options.max_sym_depth o.Options.pointer_arith_stays o.Options.context_sensitive
    o.Options.use_definite o.Options.share_contexts o.Options.heap_by_site

let read_file path = In_channel.with_open_bin path In_channel.input_all

let key ~source ~opts ~entry =
  let content = read_file source in
  Digest.to_hex
    (Digest.string (Printf.sprintf "%d\x00%s\x00%s\x00%s" version content (opts_repr opts) entry))

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
  let n = r_u r in
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
      (fun (src', m', _) -> src' == src && (m' == m || Loc.Map.equal ( = ) m' m))
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

let r_row_table arr r : (Loc.t * Pts.cert Loc.Map.t) array =
  let n = r_u r in
  let rows = Array.make n (Loc.intern Loc.Heap, Loc.Map.empty) in
  for i = 0 to n - 1 do
    let src = r_loc arr r in
    let nt = r_u r in
    let m = ref Loc.Map.empty in
    for _ = 1 to nt do
      let tgt = r_loc arr r in
      let c = match r_byte r with 1 -> Pts.D | 0 -> Pts.P | _ -> raise Bad in
      m := Loc.Map.add tgt c !m
    done;
    rows.(i) <- (src, !m)
  done;
  rows

(** One set: its rows in source order, by reference into the row
    table. Decoding binds each row, a shared, already-built map, in
    one {!Pts.add_rows}. *)
let w_set e rw b (s : Pts.t) =
  let n = ref 0 in
  Pts.iter_srcs (fun _ _ -> incr n) s;
  w_u b !n;
  Pts.iter_srcs (fun src m -> w_u b (row_idx e rw src m)) s

(** A count, then that many references into the row table. *)
let r_rows (rows : (Loc.t * Pts.cert Loc.Map.t) array) r =
  let n = r_u r in
  let acc = ref [] in
  for _ = 1 to n do
    let i = r_u r in
    if i < 0 || i >= Array.length rows then raise Bad;
    acc := rows.(i) :: !acc
  done;
  !acc

let r_set rows r : Pts.t = Pts.add_rows (r_rows rows r) Pts.empty

(** Table of distinct points-to sets, interned by structural equality
    (bucketed by cardinality; {!Pts.equal} answers shared or equal sets
    cheaply). A fixed point leaves most statements of a function with
    the same final set, so the table is far smaller than the statement
    count. *)
type set_enc = {
  s_tbl : (int, (Pts.t * int) list) Hashtbl.t;  (** {!Pts.fingerprint} -> entries *)
  s_buf : Buffer.t;
  mutable s_next : int;
  mutable s_last : (Pts.t * int) option;
      (** most recently referenced set — the delta base candidate *)
}

(** A set-table entry is either absolute (tag 0: its rows) or a delta
    from an earlier entry (tag 1: base index, sources to kill, rows to
    add). Sets intern in statement order, and along a function body
    consecutive fixpoint states differ by a row or two, so the delta
    form dominates — and the decoder then extends the base set's spine
    instead of rebuilding it, keeping warm loads cheaper than the
    fixpoint that produced the tables. *)
let w_set_entry e rw se b (s : Pts.t) =
  let rows_of s =
    let acc = ref [] in
    Pts.iter_srcs (fun src m -> acc := (src, m) :: !acc) s;
    List.rev !acc
  in
  let delta =
    match se.s_last with
    | None -> None
    | Some (last, base) ->
        (* merge-join both row lists in source order *)
        let rec diff kills adds olds news =
          match (olds, news) with
          | [], [] -> (kills, adds)
          | (src, _) :: olds', [] -> diff (src :: kills) adds olds' []
          | [], row :: news' -> diff kills (row :: adds) [] news'
          | (osrc, om) :: olds', ((nsrc, nm) as row) :: news' ->
              let c = Loc.compare osrc nsrc in
              if c < 0 then diff (osrc :: kills) adds olds' news
              else if c > 0 then diff kills (row :: adds) olds news'
              else if om == nm || Loc.Map.equal ( = ) om nm then
                diff kills adds olds' news'
              else diff (osrc :: kills) (row :: adds) olds' news'
        in
        let news = rows_of s in
        let kills, adds = diff [] [] (rows_of last) news in
        if List.length kills + List.length adds + 1 < List.length news then
          Some (base, kills, adds)
        else None
  in
  match delta with
  | Some (base, kills, adds) ->
      Buffer.add_char b '\001';
      w_u b base;
      w_u b (List.length kills);
      List.iter (fun src -> w_u b (loc_idx e src)) kills;
      w_u b (List.length adds);
      List.iter (fun (src, m) -> w_u b (row_idx e rw src m)) adds
  | None ->
      Buffer.add_char b '\000';
      w_set e rw b s

let set_idx e rw se (s : Pts.t) : int =
  let card = Pts.fingerprint s in
  let bucket = Option.value ~default:[] (Hashtbl.find_opt se.s_tbl card) in
  match List.find_opt (fun (s', _) -> Pts.equal s' s) bucket with
  | Some (_, i) ->
      se.s_last <- Some (s, i);
      i
  | None ->
      w_set_entry e rw se se.s_buf s;
      let i = se.s_next in
      se.s_next <- i + 1;
      Hashtbl.replace se.s_tbl card ((s, i) :: bucket);
      se.s_last <- Some (s, i);
      i

let r_set_table arr rows r : Pts.t array =
  let n = r_u r in
  let sets = Array.make n Pts.empty in
  for i = 0 to n - 1 do
    let s =
      match r_byte r with
      | 0 -> r_set rows r
      | 1 ->
          let b = r_u r in
          if b < 0 || b >= i then raise Bad;
          let s = ref sets.(b) in
          let nk = r_u r in
          for _ = 1 to nk do
            s := Pts.kill_src (r_loc arr r) !s
          done;
          Pts.add_rows (r_rows rows r) !s
      | _ -> raise Bad
    in
    sets.(i) <- s
  done;
  sets

let r_set_ref (sets : Pts.t array) r : Pts.t =
  let i = r_u r in
  if i < 0 || i >= Array.length sets then raise Bad;
  sets.(i)

let w_state e rw se b (st : Pts.state) =
  match st with None -> w_u b 0 | Some s -> w_u b (set_idx e rw se s + 1)

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

let r_list r f =
  let n = r_u r in
  let rec go k acc = if k = 0 then List.rev acc else go (k - 1) (f () :: acc) in
  go n []

let r_map_info arr r : Ig.map_info =
  r_list r (fun () ->
      let l = r_loc arr r in
      let ls = r_list r (fun () -> r_loc arr r) in
      (l, ls))

(* ------------------------------------------------------------------ *)
(* Metrics                                                            *)
(* ------------------------------------------------------------------ *)

let w_metrics b (m : Metrics.t) =
  List.iter
    (function
      | Metrics.Count (get, _) -> w_u b (get m) | Metrics.Time (get, _) -> w_float b (get m))
    Metrics.fields

let r_metrics r : Metrics.t =
  let m = Metrics.create () in
  List.iter
    (function
      | Metrics.Count (_, set) -> set m (r_u r) | Metrics.Time (_, set) -> set m (r_float r))
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
    ([partner] always points to an ancestor) resolve while decoding. *)
let rec w_node e rw se b (n : Ig.node) =
  w_u b n.Ig.id;
  w_str b n.Ig.func;
  Buffer.add_char b (kind_byte n.Ig.kind);
  (match n.Ig.partner with None -> w_u b 0 | Some p -> w_u b (p.Ig.id + 1));
  w_state e rw se b n.Ig.stored_input;
  w_state e rw se b n.Ig.stored_output;
  w_map_info e b n.Ig.map_info;
  w_u b (List.length n.Ig.children);
  List.iter
    (fun (site, c) ->
      w_u b site;
      w_node e rw se b c)
    n.Ig.children

let rec r_node arr sets r ~parent ~(nodes : (int, Ig.node) Hashtbl.t) : Ig.node =
  let id = r_u r in
  let func = r_str r in
  let kind = kind_of_byte (r_byte r) in
  let partner_id = r_u r in
  let stored_input = r_state sets r in
  let stored_output = r_state sets r in
  let map_info = r_map_info arr r in
  let node =
    {
      Ig.id;
      func;
      parent;
      kind;
      partner = None;
      children = [];
      stored_input;
      stored_output;
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
        let c = r_node arr sets r ~parent:(Some node) ~nodes in
        (site, c))
  in
  node.Ig.children <- children;
  node

(* ------------------------------------------------------------------ *)
(* Incremental re-analysis: function hashes and summaries (v3)        *)
(* ------------------------------------------------------------------ *)

(* Content hash of one function, invariant under edits elsewhere in the
   translation unit: statement ids are assigned program-wide in textual
   order, so adding a line to one function renumbers every later
   function. The hash therefore marshals a copy with ids zeroed and
   source locations blanked — two functions hash equal iff their
   lowered IR is identical up to position. *)
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
  { Ir.s_id = 0; s_loc = Cfront.Srcloc.dummy; s_desc = d }

let func_hash (f : Ir.func) : Digest.t =
  Digest.string
    (Marshal.to_string { f with Ir.fn_body = List.map norm_stmt f.Ir.fn_body } [])

let fn_hashes (p : Ir.program) : (string * Digest.t) list =
  List.map (fun f -> (f.Ir.fn_name, func_hash f)) p.Ir.funcs

(* Everything outside the function bodies that the result depends on: a
   change here invalidates every persisted summary at once. *)
let env_hash ~opts ~entry (p : Ir.program) : Digest.t =
  Digest.string
    (Marshal.to_string
       (p.Ir.globals, p.Ir.layouts, p.Ir.protos, opts_repr opts, entry)
       [])

(* Frames are persisted position-independently as (function, index of
   the statement within that function's textual order): program-wide
   statement ids shift under edits, but an unchanged function's local
   order is stable. *)
let stmt_index (p : Ir.program) :
    (int, string * int) Hashtbl.t * (string * int, int) Hashtbl.t =
  let by_id = Hashtbl.create 256 in
  let by_local = Hashtbl.create 256 in
  List.iter
    (fun f ->
      let i = ref 0 in
      Ir.fold_func
        (fun () s ->
          Hashtbl.replace by_id s.Ir.s_id (f.Ir.fn_name, !i);
          Hashtbl.replace by_local (f.Ir.fn_name, !i) s.Ir.s_id;
          incr i)
        () f)
    p.Ir.funcs;
  (by_id, by_local)

(** The v3 incremental section of a file, decoded but not yet bound to
    a program: frame statements are still (function index, local index)
    pairs, resolved against whatever program the summaries get seeded
    into. *)
type raw_summaries = {
  rs_env : string;  (** {!env_hash} of the saved run, 16 raw bytes *)
  rs_hashes : (string * string) list;
      (** per defined function, its {!func_hash} — the diff oracle *)
  rs_data : string;  (** the verified entry bytes the blocks index into *)
  rs_sets : Pts.t array;  (** the decoded set table the blocks reference *)
  rs_blocks : (string * int * int) list;
      (** per function, the (name, offset, length) of its still-encoded
          (input, output, frame) records — decoded by {!bind_summaries}
          only for the functions that will actually replay *)
}

(** Decode the records of the [keep]-satisfying functions and rebind
    their frames to [p]'s statement ids, dropping any record whose
    frame references a statement [p] does not have (defensive — the
    eligibility rule never seeds such a record). The blocks were
    digest-verified with the rest of the entry, so a decode failure
    still only means [Bad]. *)
let bind_summaries ~keep (p : Ir.program) (raw : raw_summaries) : Engine.store =
  let _, by_local = stmt_index p in
  let names = Array.of_list (List.map fst raw.rs_hashes) in
  let out = Engine.store_create () in
  List.iter
    (fun (fn, pos, len) ->
      if keep fn then begin
        let r = { data = raw.rs_data; pos } in
        let entries =
          r_list r (fun () ->
              let i = r_set_ref raw.rs_sets r in
              let o = r_set_ref raw.rs_sets r in
              let items =
                r_list r (fun () ->
                    let fi = r_u r in
                    let li = r_u r in
                    (fi, li, r_set_ref raw.rs_sets r))
              in
              (i, o, items))
        in
        if r.pos <> pos + len then raise Bad;
        List.iter
          (fun (se_in, se_out, items) ->
            let fr = Hashtbl.create 16 in
            let ok =
              List.for_all
                (fun (fi, li, s) ->
                  fi >= 0 && fi < Array.length names
                  &&
                  match Hashtbl.find_opt by_local (names.(fi), li) with
                  | None -> false
                  | Some sid ->
                      Hashtbl.replace fr sid s;
                      true)
                items
            in
            if ok then
              Engine.store_add out fn (Pts.hash se_in)
                { Engine.se_in; se_out; se_frame = Some fr; se_origin = Engine.Seeded })
          entries
      end)
    raw.rs_blocks;
  out

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

let save ~source ?(entry = "main") (res : Analysis.result) file =
  let t0 = Metrics.now () in
  let tr0 = Trace.start () in
  let opts = res.Analysis.tenv.Tenv.opts in
  let e = { tbl = Hashtbl.create 1024; buf = Buffer.create 8192; next = 0 } in
  let rw = { rw_tbl = Hashtbl.create 512; rw_buf = Buffer.create 8192; rw_next = 0 } in
  let se =
    { s_tbl = Hashtbl.create 256; s_buf = Buffer.create 8192; s_next = 0; s_last = None }
  in
  let pay = Buffer.create 65536 in
  let stmts =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) res.Analysis.stmt_pts []
    |> List.sort compare
  in
  w_u pay (List.length stmts);
  List.iter
    (fun (id, s) ->
      w_u pay id;
      w_u pay (set_idx e rw se s))
    stmts;
  w_state e rw se pay res.Analysis.entry_output;
  w_u pay (List.length res.Analysis.warnings);
  List.iter (w_str pay) res.Analysis.warnings;
  w_metrics pay res.Analysis.metrics;
  w_u pay res.Analysis.graph.Ig.n_nodes;
  w_node e rw se pay res.Analysis.graph.Ig.root;
  (* v3 incremental section: env hash, per-function content hashes and
     the recorded summaries (docs/INCREMENTAL.md). Sets intern into the
     same table as everything above. *)
  Buffer.add_string pay (env_hash ~opts ~entry res.Analysis.prog);
  let hashes = fn_hashes res.Analysis.prog in
  w_u pay (List.length hashes);
  List.iter
    (fun (n, d) ->
      w_str pay n;
      Buffer.add_string pay d)
    hashes;
  let fn_idx = Hashtbl.create 64 in
  List.iteri (fun i (n, _) -> Hashtbl.replace fn_idx n i) hashes;
  let by_id, _ = stmt_index res.Analysis.prog in
  (* the entries recorded or replayed this run; an unused seed or a
     frameless §6 pair is not a summary of this run *)
  let sum_fns =
    Hashtbl.fold
      (fun fn by_hash acc ->
        let entries =
          Hashtbl.fold
            (fun _ es acc ->
              List.filter_map
                (fun e ->
                  match (e.Engine.se_origin, e.Engine.se_frame) with
                  | (Engine.Live | Engine.Replayed), Some fr ->
                      Some (e.Engine.se_in, e.Engine.se_out, fr)
                  | Engine.Seeded, _ | _, None -> None)
                es
              @ acc)
            by_hash []
        in
        if entries = [] then acc else (fn, entries) :: acc)
      res.Analysis.summaries []
    |> List.sort compare
  in
  w_u pay (List.length sum_fns);
  (* each function's records go behind a byte-length prefix so the
     loader can skip the functions it will not replay *)
  let scratch = Buffer.create 4096 in
  List.iter
    (fun (fn, entries) ->
      w_str pay fn;
      Buffer.clear scratch;
      w_u scratch (List.length entries);
      List.iter
        (fun (se_in, se_out, se_frame) ->
          w_u scratch (set_idx e rw se se_in);
          w_u scratch (set_idx e rw se se_out);
          let items =
            Hashtbl.fold
              (fun sid s acc ->
                (* statements of undefined functions cannot occur in a
                   frame; [find] is total here *)
                let owner, li = Hashtbl.find by_id sid in
                (Hashtbl.find fn_idx owner, li, s) :: acc)
              se_frame []
            |> List.sort (fun (a, b, _) (c, d, _) -> compare (a, b) (c, d))
          in
          w_u scratch (List.length items);
          List.iter
            (fun (fi, li, s) ->
              w_u scratch fi;
              w_u scratch li;
              w_u scratch (set_idx e rw se s))
            items)
        entries;
      w_str pay (Buffer.contents scratch))
    sum_fns;
  let body = Buffer.create (Buffer.length e.buf + Buffer.length pay + 65536) in
  w_str body (Marshal.to_string res.Analysis.prog []);
  w_u body e.next;
  Buffer.add_buffer body e.buf;
  w_u body rw.rw_next;
  Buffer.add_buffer body rw.rw_buf;
  w_u body se.s_next;
  Buffer.add_buffer body se.s_buf;
  Buffer.add_buffer body pay;
  let body = Buffer.contents body in
  let out = Buffer.create (String.length body + 64) in
  Buffer.add_string out magic;
  w_u out version;
  Buffer.add_string out (Digest.from_hex (key ~source ~opts ~entry));
  Buffer.add_string out (Digest.string body);
  Buffer.add_string out body;
  mkdirs (Filename.dirname file);
  let tmp = tmp_name (Filename.dirname file) in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists tmp then try Sys.remove tmp with Sys_error _ -> ())
    (fun () ->
      Out_channel.with_open_bin tmp (fun oc -> Out_channel.output_string oc (Buffer.contents out));
      Sys.rename tmp file;
      (* chaos harness: corrupt the published entry, exactly like torn
         storage under a complete, well-formed file name *)
      Fault.maybe_corrupt_file file);
  let m = res.Analysis.metrics in
  m.Metrics.t_serialize <- m.Metrics.t_serialize +. (Metrics.now () -. t0);
  if Trace.on () then
    Trace.emit Trace.Cache_store
      ~name:(Filename.basename source)
      ~pts_in:(Hashtbl.length res.Analysis.stmt_pts)
      ~t0:tr0 ()

(* ------------------------------------------------------------------ *)
(* Load                                                               *)
(* ------------------------------------------------------------------ *)

type load_error =
  | Missing  (** no file at that path *)
  | Stale
      (** well-formed entry keying a different source text, option
          record or entry function — not corrupt, just not ours *)
  | Corrupt
      (** truncation, bit damage, version skew, or any decode failure:
          the entry can never load again and should be quarantined *)

let load_error_name = function
  | Missing -> "missing"
  | Stale -> "stale"
  | Corrupt -> "corrupt"

let decode_body ~opts r : Analysis.result * raw_summaries =
  let prog : Ir.program = Marshal.from_string (r_str r) 0 in
  let arr = r_loc_table r in
  let rows = r_row_table arr r in
  let sets = r_set_table arr rows r in
  let n_stmts = r_u r in
  let stmt_pts = Hashtbl.create (max 16 n_stmts) in
  for _ = 1 to n_stmts do
    let id = r_u r in
    Hashtbl.replace stmt_pts id (r_set_ref sets r)
  done;
  let entry_output = r_state sets r in
  let warnings = r_list r (fun () -> r_str r) in
  let metrics = r_metrics r in
  let n_nodes = r_u r in
  let root = r_node arr sets r ~parent:None ~nodes:(Hashtbl.create 64) in
  let rs_env = r_raw r 16 in
  let rs_hashes = r_list r (fun () ->
      let n = r_str r in
      (n, r_raw r 16))
  in
  let rs_blocks =
    r_list r (fun () ->
        let fn = r_str r in
        let len = r_u r in
        if len < 0 || r.pos + len > String.length r.data then raise Bad;
        let pos = r.pos in
        r.pos <- r.pos + len;
        (fn, pos, len))
  in
  if r.pos <> String.length r.data then raise Bad;
  let raw = { rs_env; rs_hashes; rs_data = r.data; rs_sets = sets; rs_blocks } in
  let tenv = Tenv.make ~opts prog in
  ( {
      Analysis.prog;
      tenv;
      graph = { Ig.root; n_nodes };
      stmt_pts;
      entry_output;
      warnings;
      metrics;
      (* degraded results are never saved (see [analyze_cached]), so
         anything loaded back is a full-precision run *)
      degraded = None;
      (* loaded results are never re-saved, so the recorded summaries
         stay encoded in [raw] until a replay actually needs them *)
      summaries = Engine.store_create ();
    },
    raw )

(* The one reader: magic, version, then the body digest before anything
   decodes ([Marshal.from_string] must only ever see bytes this
   process's [save] wrote), then one decode. The stored content key is
   returned, not checked: a key that does not match the source is a
   miss for [load_checked] but a partial hit for the incremental
   lookup, and only the caller knows its own key. *)
let read_entry ~source ~opts file :
    (string * Analysis.result * raw_summaries, load_error) result =
  let t0 = Metrics.now () in
  let tr0 = Trace.start () in
  let res =
    if not (Sys.file_exists file) then Error Missing
    else
      try
        let r = { data = read_file file; pos = 0 } in
        if r_raw r (String.length magic) <> magic then raise Bad;
        if r_u r <> version then raise Bad;
        let stored_key = r_raw r 16 in
        let body_digest = r_raw r 16 in
        if body_digest <> Digest.substring r.data r.pos (String.length r.data - r.pos)
        then raise Bad;
        let res, raw = decode_body ~opts r in
        Ok (stored_key, res, raw)
      with Bad | Failure _ | Invalid_argument _ | Sys_error _ | End_of_file -> Error Corrupt
  in
  Result.iter
    (fun (_, res, _) ->
      let m = res.Analysis.metrics in
      m.Metrics.t_deserialize <- m.Metrics.t_deserialize +. (Metrics.now () -. t0))
    res;
  if Trace.on () then
    Trace.emit Trace.Cache_load
      ~name:(Filename.basename source)
      ~pts_out:
        (match res with Ok (_, r, _) -> Hashtbl.length r.Analysis.stmt_pts | Error _ -> -1)
      ~t0:tr0 ();
  res

let load_checked ~source ?(opts = Options.default) ?(entry = "main") file :
    (Analysis.result, load_error) result =
  match read_entry ~source ~opts file with
  | Error e -> Error e
  | Ok (stored_key, res, _) -> (
      (* an unreadable source cannot be shown to own the entry *)
      match Digest.from_hex (key ~source ~opts ~entry) with
      | k when String.equal k stored_key -> Ok res
      | _ | (exception Sys_error _) -> Error Stale)

let load ~source ?opts ?entry file : Analysis.result option =
  Result.to_option (load_checked ~source ?opts ?entry file)

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

let cache_file ~cache_dir ~source ~opts ~entry =
  let base = Filename.remove_extension (Filename.basename source) in
  Filename.concat cache_dir (Printf.sprintf "%s-%s.ptc" base (key ~source ~opts ~entry))

(* The incremental entry must survive edits to the source, so its name
   cannot involve the content (unlike [cache_file], whose key makes an
   edited file's previous entry unreachable). One entry per
   (source path, options, entry function); the content key inside the
   header still distinguishes a full hit from a partial one. *)
let cache_file_incr ~cache_dir ~source ~opts ~entry =
  let base = Filename.remove_extension (Filename.basename source) in
  Filename.concat cache_dir
    (Printf.sprintf "%s-%s.pti" base
       (Digest.to_hex
          (Digest.string (Printf.sprintf "%s\x00%s\x00%s" source (opts_repr opts) entry))))

(* ------------------------------------------------------------------ *)
(* Replay eligibility and the dirty set                               *)
(* ------------------------------------------------------------------ *)

(* A function's persisted summaries may be replayed only when every
   function in its direct-call closure (over the NEW program) is
   unchanged and free of indirect call sites: such an evaluation is a
   pure function of its input that creates no invocation-graph nodes,
   so serving it from the summary is bit-identical to re-running it
   (docs/INCREMENTAL.md). The dirty set is the complement — edited
   functions, their (transitive) callers, and anything touching a
   function pointer. Computed as a decreasing fixed point: start from
   the locally-clean functions and strike out any whose callee chain
   fails. *)
let eligible_funcs (p : Ir.program) ~(old_hashes : (string, string) Hashtbl.t) :
    (string, unit) Hashtbl.t =
  let defined = Hashtbl.create 64 in
  List.iter (fun f -> Hashtbl.replace defined f.Ir.fn_name ()) p.Ir.funcs;
  let callees = Hashtbl.create 64 in
  let elig = Hashtbl.create 64 in
  List.iter
    (fun f ->
      let has_indirect = ref false in
      let cs = ref [] in
      Ir.fold_func
        (fun () s ->
          match s.Ir.s_desc with
          | Ir.Scall (_, Ir.Cdirect g, _) -> cs := g :: !cs
          | Ir.Scall (_, Ir.Cindirect _, _) -> has_indirect := true
          | _ -> ())
        () f;
      Hashtbl.replace callees f.Ir.fn_name !cs;
      let unchanged =
        match Hashtbl.find_opt old_hashes f.Ir.fn_name with
        | Some d -> String.equal d (func_hash f)
        | None -> false
      in
      if unchanged && not !has_indirect then Hashtbl.replace elig f.Ir.fn_name ())
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
   go to [.bad.1], [.bad.2], ... instead. *)
let quarantine file =
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

(* Rewrite just the header key of an entry whose body is still byte-valid
   for the (edited) source: magic and version are unchanged, the stored
   16-byte key is replaced with [newkey], and the digest + body bytes of
   [data] (the bytes the lookup already read) are reused untouched.
   Atomic like [save]; best effort — on failure the stale key simply
   stays and the next lookup takes the partial path again. *)
let rekey_file ~data ~newkey file =
  try
    let r = { data; pos = 0 } in
    ignore (r_raw r (String.length magic));
    ignore (r_u r);
    let key_pos = r.pos in
    let out = Buffer.create (String.length data) in
    Buffer.add_substring out data 0 key_pos;
    Buffer.add_string out newkey;
    Buffer.add_substring out data (key_pos + 16) (String.length data - key_pos - 16);
    let tmp = tmp_name (Filename.dirname file) in
    Fun.protect
      ~finally:(fun () ->
        if Sys.file_exists tmp then try Sys.remove tmp with Sys_error _ -> ())
      (fun () ->
        Out_channel.with_open_bin tmp (fun oc ->
            Out_channel.output_string oc (Buffer.contents out));
        Sys.rename tmp file)
  with Bad | Sys_error _ | Failure _ | End_of_file -> ()

(* Summaries replay only under the context-sensitive engine, and
   [heap_by_site] names heap objects by (position-dependent) statement
   id; other modes run in full and keep the entry as a plain cache. *)
let seedable_mode (opts : Options.t) =
  opts.Options.context_sensitive && not opts.Options.heap_by_site

(* The seeds a saved summary section offers [prog] — the records of the
   functions {!eligible_funcs} keeps — with the number of dirty
   functions. [None] when the environment changed (everything is dirty)
   or a kept block fails to decode. *)
let seeds_of ~opts ~entry (prog : Ir.program) (raw : raw_summaries) :
    (int * Engine.store) option =
  if not (String.equal raw.rs_env (env_hash ~opts ~entry prog)) then None
  else begin
    let old_hashes = Hashtbl.create 64 in
    List.iter (fun (n, d) -> Hashtbl.replace old_hashes n d) raw.rs_hashes;
    let elig = eligible_funcs prog ~old_hashes in
    match bind_summaries ~keep:(Hashtbl.mem elig) prog raw with
    | exception Bad -> None
    | seeds -> Some (List.length prog.Ir.funcs - Hashtbl.length elig, seeds)
  end

let load_summaries ~cache_dir ~source ~opts ?(entry = "main") (prog : Ir.program) :
    Engine.store option =
  if not (seedable_mode opts) then None
  else
    match read_entry ~source ~opts (cache_file_incr ~cache_dir ~source ~opts ~entry) with
    | Error _ -> None
    | Ok (_, _, raw) -> Option.map snd (seeds_of ~opts ~entry prog raw)

let analyze_cached ?cache_dir ?(opts = Options.default) ?(entry = "main") ?budget
    ?(incremental = false) source : Analysis.result * bool =
  let dir = match cache_dir with Some d -> d | None -> default_cache_dir () in
  let seedable = incremental && seedable_mode opts in
  let quarantined = ref 0 in
  (* The key is computed before the entry is read: a source that cannot
     be read says nothing about the entry, which stays where it is, and
     the analysis below reports the error. *)
  let lookup =
    match Digest.from_hex (key ~source ~opts ~entry) with
    | exception Sys_error _ -> None
    | mykey ->
        let name = if incremental then cache_file_incr else cache_file in
        let file = name ~cache_dir:dir ~source ~opts ~entry in
        let stored =
          match read_entry ~source ~opts file with
          | Ok e -> Some e
          | Error Corrupt ->
              (* truncated, damaged or version-skewed entry: quarantine
                 it and fall back to a cold analysis *)
              quarantine file;
              incr quarantined;
              None
          | Error (Missing | Stale) -> None
        in
        Some (file, mykey, stored)
  in
  let count_hit (res : Analysis.result) =
    let m = res.Analysis.metrics in
    m.Metrics.cache_hits <- m.Metrics.cache_hits + 1;
    (res, true)
  in
  match lookup with
  | Some (_, mykey, Some (stored_key, res, _)) when String.equal stored_key mykey ->
      count_hit res
  | _ -> (
      let prog = Simple_ir.Simplify.of_file source in
      let n_defined = List.length prog.Ir.funcs in
      (* an incremental entry keying an older text of the source *)
      let stale =
        match lookup with
        | Some (file, mykey, Some (_, old_res, raw)) when incremental ->
            Some (file, mykey, old_res, raw)
        | _ -> None
      in
      (* Rekey fast path: when the lowered program is byte-identical
         (comment / whitespace edits after the last statement), or every
         function hash matches and the run warned about nothing (so no
         persisted string can embed a shifted source position), the old
         body is still exactly the answer — only the header key is
         stale. Serve it as a hit without touching the engine. The
         hash-based gate additionally needs the seedable engine modes:
         [heap_by_site] names heap objects by statement id, which the
         hashes deliberately blank. *)
      let rekeyable (old_res : Analysis.result) raw =
        let prog_identical () =
          String.equal
            (Digest.string (Marshal.to_string prog []))
            (Digest.string (Marshal.to_string old_res.Analysis.prog []))
        in
        let hashes_identical () =
          String.equal raw.rs_env (env_hash ~opts ~entry prog)
          && List.compare_lengths raw.rs_hashes prog.Ir.funcs = 0
          && List.for_all2
               (fun (n, d) f -> String.equal n f.Ir.fn_name && String.equal d (func_hash f))
               raw.rs_hashes prog.Ir.funcs
        in
        (seedable && old_res.Analysis.warnings = [] && hashes_identical ())
        || prog_identical ()
      in
      match stale with
      | Some (file, mykey, old_res, raw) when rekeyable old_res raw ->
          (* fresh lowering in, so source positions track the edit; the
             statement ids it assigned are identical by construction *)
          let res = { old_res with Analysis.prog; tenv = Tenv.make ~opts prog } in
          rekey_file ~data:raw.rs_data ~newkey:mykey file;
          res.Analysis.metrics.Metrics.incr_funcs_dirty <- 0;
          res.Analysis.metrics.Metrics.incr_funcs_reused <- n_defined;
          count_hit res
      | _ ->
          let dirty, seeded =
            match stale with
            | Some (_, _, _, raw) when seedable -> (
                let td0 = Trace.start () in
                match seeds_of ~opts ~entry prog raw with
                | Some (dirty, seeds) ->
                    if Trace.on () then
                      Trace.emit Trace.Dirty ~name:(Filename.basename source) ~stmts:dirty
                        ~t0:td0 ();
                    (dirty, Some seeds)
                | None -> (n_defined, None))
            | _ ->
                (* nothing usable (or the globals / layouts / externals /
                   options changed): everything is dirty *)
                (n_defined, None)
          in
          let res =
            Analysis.analyze ~opts ~entry ?budget ~record_summaries:seedable ?seeded prog
          in
          let m = res.Analysis.metrics in
          if incremental then m.Metrics.incr_funcs_dirty <- dirty;
          (* a degraded result is not the full-precision answer the key
             promises — never publish it to the cache *)
          (match lookup with
          | Some (file, _, _) when res.Analysis.degraded = None -> (
              try save ~source ~entry res file with Sys_error _ | Failure _ -> ())
          | _ -> ());
          (* after the save: the entry's record, which a hit reports,
             carries the analysis counters only *)
          m.Metrics.cache_quarantined <- m.Metrics.cache_quarantined + !quarantined;
          m.Metrics.cache_misses <- m.Metrics.cache_misses + 1;
          (res, false))
