(** Mapping and unmapping of points-to information across procedure
    calls (paper §4.1).

    [map_call] prepares the input points-to set of a callee from the
    caller's set at the call site: formals inherit the relationships of
    the corresponding actuals, globals keep their relationships, local
    pointers are initialized to NULL, and every caller location that is
    reachable from the callee but not in its scope (an {e invisible}
    variable) is represented by a symbolic name — [Sym l] for the
    invisible reached by dereferencing callee location [l].

    The invariants of §4.1 are enforced:

    - an invisible variable is represented by at most one symbolic name
      (Property 3.1) — the first assignment wins, and invisibles involved
      in definite relationships are assigned before those involved in
      possible ones (the paper's accuracy heuristic);
    - a symbolic name may represent several invisibles; in that case
      relationships {e to} it are demoted to possible, and relationships
      {e from} it are definite only when definite for every represented
      invisible (computed with a per-cell merge).

    [unmap_call] maps the callee's output back: relationships of
    unreachable caller locations persist from the call-site set;
    relationships of globals and symbolic names are translated back
    through the recorded representation, demoting pairs whose target
    resolves to several caller locations; pairs involving escaping callee
    locals are dropped.

    Cost per call. A call costs the rows it translates, not the
    program's global state. Globals keep their relationships across a
    call, so the callee's global part ({!Pts}) is the caller's, shared,
    and the caller's global part after the call is the callee output's:
    [map_call] visits only the rows of the caller's {!Pts.global_index}
    (the global rows that name an invisible, a symbolic name or the
    heap), and [unmap_call] only those of the output's. The index is
    kept on the set and updated per changed row, so reading it is O(1)
    along an analysis. The rest is proportional to the frames: the
    callee's input frame is its program-wide NULL rows
    ({!Tenv.frame_cells}) plus the explored and formal rows, and unmap
    walks the callee output's frame part and filters the caller's. *)

module Ir = Simple_ir.Ir
open Cfront

(** The abstraction of one actual argument, as seen by the mapping. *)
type actual =
  | Aptr of Lval.locset  (** pointer argument: the locations it points to *)
  | Aagg of Loc.t  (** aggregate passed by value: its location *)
  | Aother  (** non-pointer scalar *)

type state = {
  tenv : Tenv.t;
  caller_fn : Ir.func;
  input : Pts.t;
  mutable fwd : Loc.t Loc.Map.t;  (** caller invisible -> symbolic name *)
  mutable reps : Loc.t list Loc.Map.t;  (** symbolic name -> invisibles *)
  mutable cells : Loc.t list ref Loc.Map.t;  (** callee cell -> caller cells *)
  mutable cell_order : (Loc.t * Loc.t list ref) list;
      (** callee cells in reverse discovery order, with their caller cells *)
  mutable visited : Loc.Set.t Loc.Map.t;  (** callee location -> caller locations explored *)
}

(** Information recorded in the invocation-graph node. *)
type info = {
  i_fwd : Loc.t Loc.Map.t;
  i_reps : Loc.t list Loc.Map.t;
}

let visible l = Loc.is_global_visible l

let rep_count info l =
  match Loc.Map.find_opt l info.i_reps with Some reps -> List.length reps | None -> 1

(* ------------------------------------------------------------------ *)
(* Forward translation and exploration                                *)
(* ------------------------------------------------------------------ *)

let rec translate_with ~find (l : Loc.t) : Loc.t option =
  if visible l then Some l
  else
    match find l with
    | Some s -> Some s
    | None -> (
        match l with
        | Loc.Fld (b, f) -> Option.map (fun b -> Loc.fld b f) (translate_with ~find b)
        | Loc.Head b -> Option.map Loc.head (translate_with ~find b)
        | Loc.Tail b -> Option.map Loc.tail (translate_with ~find b)
        | _ -> None)

let translate_fwd st l = translate_with ~find:(fun l -> Loc.Map.find_opt l st.fwd) l

let info_translate info l = translate_with ~find:(fun l -> Loc.Map.find_opt l info.i_fwd) l

(** Assign (or retrieve) the symbolic name for invisible [t], reached by
    dereferencing callee cell [parent]. Beyond the symbolic-depth bound
    the enclosing symbolic location summarizes (safe: its representation
    set grows, so its relationships weaken to possible). *)
let assign_sym st ~parent t =
  match Loc.Map.find_opt t st.fwd with
  | Some s -> s
  | None ->
      let max_depth = st.tenv.Tenv.opts.Options.max_sym_depth in
      let sym =
        if Loc.sym_depth parent < max_depth then Loc.sym parent
        else
          let rec enclosing = function
            | Loc.Sym _ as l -> Loc.intern l
            | Loc.Fld (b, _) | Loc.Head b | Loc.Tail b -> enclosing b
            | _ -> Loc.sym parent
          in
          enclosing parent
      in
      st.fwd <- Loc.Map.add t sym st.fwd;
      let old = Option.value ~default:[] (Loc.Map.find_opt sym st.reps) in
      st.reps <- Loc.Map.add sym (old @ [ t ]) st.reps;
      sym

let record_cell st cl c =
  match Loc.Map.find_opt cl st.cells with
  | None ->
      let callers = ref [ c ] in
      st.cells <- Loc.Map.add cl callers st.cells;
      st.cell_order <- (cl, callers) :: st.cell_order
  | Some callers ->
      if not (List.exists (Loc.equal c) !callers) then callers := !callers @ [ c ]

(** Rebase caller location [l] (a path extending [c]) onto callee
    location [cl]. *)
let rec rebase ~from ~onto l =
  if Loc.equal l from then onto
  else
    match l with
    | Loc.Fld (b, f) -> Loc.fld (rebase ~from ~onto b) f
    | Loc.Head b -> Loc.head (rebase ~from ~onto b)
    | Loc.Tail b -> Loc.tail (rebase ~from ~onto b)
    | _ -> l

let sort_definite_first targets =
  List.stable_sort
    (fun (_, c1) (_, c2) ->
      match (c1, c2) with
      | Pts.D, Pts.P -> -1
      | Pts.P, Pts.D -> 1
      | (Pts.D | Pts.P), _ -> 0)
    targets

(** Map one target of a cell: returns its callee-side name, creating a
    symbolic name when it is invisible, and recursively explores it. *)
let rec map_target st ~parent (t : Loc.t) : Loc.t =
  if visible t then begin
    (match t with Loc.Heap -> explore st Loc.Heap Loc.Heap | _ -> ());
    t
  end
  else
    match translate_fwd st t with
    | Some tm ->
        (* already translated (directly or through an enclosing path) *)
        (match tm with Loc.Sym _ -> explore st tm t | _ -> ());
        tm
    | None ->
        let sym = assign_sym st ~parent t in
        explore st sym t;
        sym

(** Explore the object at caller location [c], represented by callee
    location [cl]: record its pointer cells and map all their targets. *)
and explore st (cl : Loc.t) (c : Loc.t) : unit =
  let seen = Option.value ~default:Loc.Set.empty (Loc.Map.find_opt cl st.visited) in
  if not (Loc.Set.mem c seen) then begin
    st.visited <- Loc.Map.add cl (Loc.Set.add c seen) st.visited;
    let cells =
      match Tenv.loc_type st.tenv st.caller_fn c with
      | Some ty -> Tenv.pointer_cells st.tenv c ty
      | None -> (
          (* the heap blob and allocation sites have untyped contents *)
          match c with
          | Loc.Heap | Loc.Site _ -> [ (c, Ctype.Ptr Ctype.Void) ]
          | _ -> [])
    in
    List.iter (fun (c_cell, _ty) -> map_cell st (rebase ~from:c ~onto:cl c_cell) c_cell) cells
  end

(** Record caller cell [c_cell] as represented by callee cell [cl_cell]
    and map its targets, definite first, each kind in the descending
    order {!Pts.targets} lists them in, as {!sort_definite_first} over
    that list orders them. *)
and map_cell st cl_cell c_cell =
  record_cell st cl_cell c_cell;
  let definite = ref [] and possible = ref [] in
  Loc.Map.iter
    (fun t c -> if c == Pts.D then definite := t :: !definite else possible := t :: !possible)
    (Pts.tgt_map c_cell st.input);
  let map t = ignore (map_target st ~parent:cl_cell t) in
  List.iter map !definite;
  List.iter map !possible

(* ------------------------------------------------------------------ *)
(* Building the callee input                                          *)
(* ------------------------------------------------------------------ *)

let make_state tenv caller_fn input =
  {
    tenv;
    caller_fn;
    input;
    fwd = Loc.Map.empty;
    reps = Loc.Map.empty;
    cells = Loc.Map.empty;
    cell_order = [];
    visited = Loc.Map.empty;
  }

let info_of_state st : info = { i_fwd = st.fwd; i_reps = st.reps }

(** Merge two target maps with Figure 1's merge semantics: a target is
    definite only when definite in both (used when several caller cells
    map onto one callee cell, or several callee-side names resolve back
    to one caller location — their views must be reconciled
    conservatively). *)
let targets_meet (a : Pts.cert Loc.Map.t) (b : Pts.cert Loc.Map.t) =
  Loc.Map.merge
    (fun _ ca cb ->
      match (ca, cb) with
      | None, None -> None
      | Some _, None | None, Some _ -> Some Pts.P
      | Some ca, Some cb -> Some (Pts.cert_and ca cb))
    a b

(** Add target [t] to a target map, weakening on conflict (independent
    facts accumulate: definite only when every contribution is). *)
let add_weak_tgt t d row =
  Loc.Map.update t (function None -> Some d | Some d0 -> Some (Pts.cert_and d0 d)) row

(** Compute the callee's input set and map information for a call.
    [actuals] must be aligned with [callee.fn_params] (missing trailing
    actuals are allowed for variadic-style calls and map to NULL). *)
let map_call (tenv : Tenv.t) ~(caller_fn : Ir.func) ~(callee : Ir.func) ~(input : Pts.t)
    ~(actuals : actual list) : Pts.t * info =
  let m = Metrics.cur () in
  m.Metrics.map_calls <- m.Metrics.map_calls + 1;
  let t0 = Metrics.now () in
  let tr0 = Trace.start () in
  let st = make_state tenv caller_fn input in
  (* roots: the globals' cells, in declaration order. A row that names
     nothing maps to itself and is not explored, so only the index's
     rows map, in order: the symbolic names they mint do not depend on
     the skipped rows. An indexed source that is no declared cell was
     made through a cast and is dropped *)
  let index = Pts.global_index ~cells:tenv.Tenv.global_cell_ord input in
  let roots, undeclared =
    Loc.Set.fold
      (fun src (roots, undeclared) ->
        match Loc.Map.find_opt src tenv.Tenv.global_cell_ord with
        | Some i -> ((i, src) :: roots, undeclared)
        | None -> (roots, (src, Loc.Map.empty) :: undeclared))
      index ([], [])
  in
  List.iter
    (fun (_, cell) -> map_cell st cell cell)
    (List.sort (fun (i, _) (j, _) -> Int.compare i j) roots);
  explore st Loc.Heap Loc.Heap;
  (* with heap_by_site, each allocation site present in the caller's set
     is its own visible root *)
  if tenv.Tenv.opts.Options.heap_by_site then
    Pts.iter_frame
      (fun src _ ->
        match Loc.root src with Loc.Site _ as site -> explore st site site | _ -> ())
      input;
  (* formals: collect (formal cell, target locset) pairs *)
  let formal_values : (Loc.t * (Loc.t * Pts.cert) list) list ref = ref [] in
  let n_params = List.length callee.Ir.fn_params in
  let actuals =
    if List.length actuals >= n_params then actuals
    else actuals @ List.init (n_params - List.length actuals) (fun _ -> Aother)
  in
  List.iter2
    (fun (pname, pty) actual ->
      let ploc = Loc.var pname Loc.Kparam in
      match (Ctype.decay pty, actual) with
      | Ctype.Ptr _, Aptr targets ->
          let targets = sort_definite_first (Lval.to_list targets) in
          let mapped =
            List.map (fun (t, d) -> (map_target st ~parent:ploc t, d)) targets
          in
          formal_values := (ploc, mapped) :: !formal_values
      | _, Aagg aloc ->
          (* aggregate by value: each pointer cell of the formal inherits
             from the corresponding cell of the actual *)
          let fcells = Tenv.pointer_cells tenv ploc pty in
          List.iter
            (fun (fcell, _) ->
              let acell = rebase ~from:ploc ~onto:aloc fcell in
              let targets = sort_definite_first (Pts.targets acell st.input) in
              let mapped =
                List.map (fun (t, d) -> (map_target st ~parent:fcell t, d)) targets
              in
              formal_values := (fcell, mapped) :: !formal_values)
            fcells
      | Ctype.Ptr _, Aother ->
          formal_values := (ploc, [ (Loc.Null, Pts.D) ]) :: !formal_values
      | _, (Aother | Aptr _) -> ())
    callee.Ir.fn_params
    (List.filteri (fun i _ -> i < n_params) actuals);
  let info = info_of_state st in
  let demote tm d = if rep_count info tm > 1 then Pts.P else d in
  (* the target map of caller cell [c] in the callee's name space:
     independent facts accumulate (a conflict weakens) *)
  let translated c =
    Loc.Map.fold
      (fun t d row ->
        match translate_fwd st t with
        | Some tm -> add_weak_tgt tm (demote tm d) row
        | None -> row)
      (Pts.tgt_map c input) Loc.Map.empty
  in
  (* a target kept verbatim by the forward translation: visible, hence
     its own callee-side name, and not a symbolic name this call minted
     for several invisibles, hence never demoted *)
  let identity_tgt t _d = visible t && rep_count info t = 1 in
  (* every row below has its own source: explored cells are global-,
     heap-, site- or symbolic-rooted, formals parameter-rooted. The base
     they go onto is the caller's global part, shared — a skipped row is
     already its callee-side row, an explored global row is replaced, an
     undeclared one unbound — with the callee's NULL rows, local- or
     return-rooted, as its frame part *)
  let explored_rows =
    List.fold_left
      (fun rows (cl_cell, callers) ->
        let row =
          match !callers with
          | [ c ] when Loc.equal cl_cell c && Loc.Map.for_all identity_tgt (Pts.tgt_map c input)
            ->
              (* visible cell, every target visible: the caller's submap
                 transfers wholesale, shared, with no per-pair translation *)
              Pts.tgt_map c input
          | callers -> (
              (* merged per callee cell over the represented caller cells *)
              match List.map translated callers with
              | [] -> Loc.Map.empty
              | r :: rest -> List.fold_left targets_meet r rest)
        in
        (cl_cell, row) :: rows)
      [] st.cell_order
  in
  let formal_rows =
    List.map
      (fun (fcell, mapped) ->
        if mapped = [] then (fcell, Loc.Map.singleton Loc.Null Pts.D)
        else
          ( fcell,
            List.fold_left (fun row (tm, d) -> add_weak_tgt tm (demote tm d) row) Loc.Map.empty
              mapped ))
      !formal_values
  in
  (* the callee's pointer locals and return slot start NULL: its frame
     part starts as the program-wide set of those rows *)
  let base = Pts.splice ~globals:input ~frame:(Tenv.frame_cells tenv callee).Tenv.null_frame in
  let func_input = Pts.add_rows (undeclared @ explored_rows @ formal_rows) base in
  m.Metrics.t_map <- m.Metrics.t_map +. (Metrics.now () -. t0);
  if Trace.on () then
    Trace.emit Trace.Map ~name:callee.Ir.fn_name ~pts_in:(Pts.cardinal input)
      ~pts_out:(Pts.cardinal func_input) ~t0:tr0 ();
  (func_input, info)

(* ------------------------------------------------------------------ *)
(* Unmapping                                                          *)
(* ------------------------------------------------------------------ *)

(** Resolve a callee-side location back to the caller locations it
    represents. Locations rooted in callee locals/formals/return slot
    resolve to nothing (escaping callee storage is dropped). *)
let rec resolve_back (info : info) (l : Loc.t) : Loc.t list =
  match l with
  | _ when visible l && not (Loc.Map.mem l info.i_reps) -> [ l ]
  | Loc.Sym _ -> (
      match Loc.Map.find_opt l info.i_reps with Some reps -> reps | None -> [])
  | Loc.Fld (b, f) -> List.map (fun b -> Loc.fld b f) (resolve_back info b)
  | Loc.Head b -> List.map Loc.head (resolve_back info b)
  | Loc.Tail b -> List.map Loc.tail (resolve_back info b)
  | Loc.Var _ | Loc.Ret _ -> []
  | Loc.Heap | Loc.Site _ | Loc.Null | Loc.Str | Loc.Fun _ -> [ l ]

(** A callee-side location in the callee's own storage (a local, a
    parameter or the return slot, or a part of one) with no symbolic
    name on the path: {!resolve_back} gives nothing. *)
let rec own_storage = function
  | Loc.Var (_, k) -> k != Loc.Kglobal
  | Loc.Ret _ -> true
  | Loc.Fld (b, _) | Loc.Head b | Loc.Tail b -> own_storage b
  | Loc.Sym _ | Loc.Heap | Loc.Site _ | Loc.Null | Loc.Str | Loc.Fun _ -> false

(** Output points-to set at the call site, from the callee's output.
    [merged] marks calls evaluated with merged per-function contexts
    (the context-insensitive ablation and the widened degradation
    path): there the callee's output mixes facts from every caller, so
    an untranslatable target — a local name that may belong to another
    frame, not just the callee's dead storage — still warrants
    retaining the cell's pre-call targets. *)
let unmap_call ?(callee = "?") ?(merged = false) (tenv : Tenv.t) ~(input : Pts.t)
    ~(output : Pts.t) ~(info : info) : Pts.t =
  let m = Metrics.cur () in
  m.Metrics.unmap_calls <- m.Metrics.unmap_calls + 1;
  let t0 = Metrics.now () in
  let tr0 = Trace.start () in
  let self_resolving t = visible t && not (Loc.Map.mem t info.i_reps) in
  (* a callee-side target map in the caller's name space, and whether a
     symbolic target dropped on the way. A symbolic target with no
     representation at this site comes from another call path whose
     facts were merged into the callee's set (context-insensitive slots,
     approximate-node reuse). It cannot be translated here, but it
     witnesses that along some path the cell kept or received a
     caller-invisible value — so the cell may still hold any of its
     pre-call targets. Dropping the pair outright loses that (observed
     as concrete pairs vanishing across widened-mode calls on the
     generated corpus); instead the caller's old targets for the cell
     are retained, demoted to possible. *)
  let translate m0 =
    (* every target resolves back to itself: the callee's submap is
       already the translated target map — share it *)
    if Loc.Map.for_all (fun t _ -> self_resolving t) m0 then (m0, false)
    else
      let dropped_sym = ref false in
      let tmap =
        Loc.Map.fold
          (fun tgt d acc ->
            let tgts = resolve_back info tgt in
            if tgts = [] && (merged || Loc.sym_depth tgt > 0) then dropped_sym := true;
            let d = if List.length tgts > 1 then Pts.P else d in
            List.fold_left (fun acc t -> add_weak_tgt t d acc) acc tgts)
          m0 Loc.Map.empty
      in
      (tmap, !dropped_sym)
  in
  let retained s = Loc.Map.map (fun _ -> Pts.P) (Pts.tgt_map s input) in
  (* the global part: a global source resolves back to itself alone,
     and no other callee-side source resolves to a global, so the
     callee's global part is the caller's, with only the rows of its
     index to translate; a row that names nothing comes back shared *)
  let global_rows =
    Loc.Set.fold
      (fun src rows ->
        let m0 = Pts.tgt_map src output in
        if Loc.Map.for_all (fun t _ -> self_resolving t) m0 then rows
        else
          let tmap, dropped_sym = translate m0 in
          let kept = if dropped_sym then retained src else Loc.Map.empty in
          (src, if Loc.Map.is_empty kept then tmap else targets_meet tmap kept) :: rows)
      (Pts.global_index ~cells:tenv.Tenv.global_cell_ord output)
      []
  in
  (* the caller-side frame rows the callee's frame part translates to,
     and per caller source the translated target maps of every
     callee-side source resolving to it *)
  let rows = ref Loc.Map.empty and per_src = ref Loc.Map.empty in
  Pts.iter_frame
    (fun src m0 ->
      if own_storage src then () (* escaping callee storage is dropped *)
      else if self_resolving src && Loc.Map.for_all (fun t _ -> self_resolving t) m0 then
        (* already its caller-side row, and no other callee source
           resolves to a visible location: kept as is, shared *)
        rows := Loc.Map.add src m0 !rows
      else
        let srcs = resolve_back info src in
        if srcs <> [] then begin
          let tmap, dropped_sym = translate m0 in
          List.iter
            (fun s ->
              let old = Option.value ~default:[] (Loc.Map.find_opt s !per_src) in
              let maps =
                if dropped_sym then
                  let kept = retained s in
                  if Loc.Map.is_empty kept then tmap :: old else tmap :: kept :: old
                else tmap :: old
              in
              per_src := Loc.Map.add s maps !per_src)
            srcs
        end)
    output;
  let rows =
    Loc.Map.fold
      (fun s tmaps rows ->
        match tmaps with
        | [] -> rows
        | m :: rest -> Loc.Map.add s (List.fold_left targets_meet m rest) rows)
      !per_src !rows
  in
  (* a caller frame row the callee could reach is replaced by its
     translated row, or dropped when nothing translates back to its
     source; rows out of the callee's reach persist. A row the call left
     alone comes back physically shared, so only the rows the call
     changed cost a tree update *)
  let kept =
    Pts.filter_frame
      (fun src -> Option.is_none (info_translate info src) || Loc.Map.mem src rows)
      input
  in
  let result =
    Pts.add_rows
      (Loc.Map.fold (fun s row acc -> (s, row) :: acc) rows global_rows)
      (Pts.splice ~globals:output ~frame:kept)
  in
  m.Metrics.t_unmap <- m.Metrics.t_unmap +. (Metrics.now () -. t0);
  if Trace.on () then
    Trace.emit Trace.Unmap ~name:callee ~pts_in:(Pts.cardinal output)
      ~pts_out:(Pts.cardinal result) ~t0:tr0 ();
  result

(** The caller-side targets of the callee's return value. *)
let return_targets ~(output : Pts.t) ~(info : info) ~(callee : string) : (Loc.t * Pts.cert) list
    =
  List.concat_map
    (fun (t, d) ->
      let tgts = resolve_back info t in
      let d = if List.length tgts > 1 then Pts.P else d in
      List.map (fun t -> (t, d)) tgts)
    (Pts.targets (Loc.ret callee) output)

(** For aggregate returns: every cell of the return slot (a path under
    [Ret callee]) with its caller-side targets. The path is returned as a
    function that grafts it onto a caller location. *)
let return_cell_targets ~(output : Pts.t) ~(info : info) ~(callee : string) :
    ((Loc.t -> Loc.t) * (Loc.t * Pts.cert) list) list =
  let ret = Loc.ret callee in
  let rec graft_of (l : Loc.t) : (Loc.t -> Loc.t) option =
    if Loc.equal l ret then Some (fun base -> base)
    else
      match l with
      | Loc.Fld (b, f) -> Option.map (fun g base -> Loc.fld (g base) f) (graft_of b)
      | Loc.Head b -> Option.map (fun g base -> Loc.head (g base)) (graft_of b)
      | Loc.Tail b -> Option.map (fun g base -> Loc.tail (g base)) (graft_of b)
      | _ -> None
  in
  Pts.fold
    (fun src _ _ acc ->
      match graft_of src with
      | Some graft ->
          (* one entry per distinct path: compare grafts structurally by
             applying them to a dummy base *)
          if List.exists (fun (g, _) -> Loc.equal (g Loc.Null) (graft Loc.Null)) acc then
            acc
          else
            let tgts =
              List.concat_map
                (fun (t, d) ->
                  let ts = resolve_back info t in
                  let d = if List.length ts > 1 then Pts.P else d in
                  List.map (fun t -> (t, d)) ts)
                (Pts.targets src output)
            in
            (graft, tgts) :: acc
      | None -> acc)
    output []
