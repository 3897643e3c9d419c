(** Mapping and unmapping of points-to information across procedure
    calls (paper §4.1): formals inherit the actuals' relationships,
    globals carry over, invisible variables get symbolic names (at most
    one per invisible; definite-first assignment; multi-represented
    symbolic names demote their relationships), and the callee's output
    is translated back through the recorded representation. *)

module Ir = Simple_ir.Ir

(** The abstraction of one actual argument. *)
type actual =
  | Aptr of Lval.locset  (** pointer argument: the locations it points to *)
  | Aagg of Loc.t  (** aggregate passed by value: its location *)
  | Aother  (** non-pointer scalar *)

(** Map information for one call: forward translation (caller invisible
    location to symbolic name) and representation sets (symbolic name to
    caller locations). *)
type info = {
  i_fwd : Loc.t Loc.Map.t;
  i_reps : Loc.t list Loc.Map.t;
}

(** How many caller locations a callee-side location represents (1 for
    globals and unmapped names). *)
val rep_count : info -> Loc.t -> int

(** Translate a caller location into the callee name space, when it is
    reachable there. *)
val info_translate : info -> Loc.t -> Loc.t option

(** Resolve a callee-side location back to the caller locations it
    represents; escaping callee locals resolve to nothing. *)
val resolve_back : info -> Loc.t -> Loc.t list

(** Compute the callee's input set and map information for a call.
    [actuals] align with [callee.fn_params]; missing trailing actuals map
    to NULL. The callee's global part is the caller's, shared: only the
    rows of its {!Pts.global_index} are visited — the declared cells
    among them mapped as roots in the declaration order of the {!Tenv.t}
    [global_cells], the others (made through a cast) dropped — and a
    global row whose targets are all visible and none the heap maps to
    itself without exploration. The callee's locals and return slot
    start at NULL ({!Tenv.frame_cells}). *)
val map_call :
  Tenv.t ->
  caller_fn:Ir.func ->
  callee:Ir.func ->
  input:Pts.t ->
  actuals:actual list ->
  Pts.t * info

(** The caller's points-to set after the call: relationships of
    unreachable caller locations persist; the callee's output translates
    back (conflicting views of one caller cell reconcile with merge
    semantics). The result's global part is the callee output's, shared,
    with only the rows of its {!Pts.global_index} translated; its frame
    part is the caller's minus the locations the callee reached, plus
    the translated frame rows of the output. [callee] only labels the
    {!Trace} span.

    A translated cell whose callee-side targets include an
    untranslatable symbolic name — minted at another call site whose
    facts got merged into the callee's output (context-insensitive
    slots, approximate-node reuse) — additionally retains its pre-call
    targets, demoted to possible: the foreign name witnesses that along
    some merged path the cell kept or received a caller-invisible value,
    and dropping it silently would lose real concrete pairs. [merged]
    (set by the context-insensitive evaluation mode) extends that
    retention to untranslatable {e local} names, which under merged
    per-function contexts may belong to a frame other than the callee's
    own dead storage. *)
val unmap_call :
  ?callee:string ->
  ?merged:bool ->
  Tenv.t ->
  input:Pts.t ->
  output:Pts.t ->
  info:info ->
  Pts.t

(** Caller-side targets of the callee's return value. *)
val return_targets :
  output:Pts.t -> info:info -> callee:string -> (Loc.t * Pts.cert) list

(** For aggregate returns: each cell of the return slot as a grafting
    function (apply to a destination location to get its cell) with the
    cell's caller-side targets. *)
val return_cell_targets :
  output:Pts.t ->
  info:info ->
  callee:string ->
  ((Loc.t -> Loc.t) * (Loc.t * Pts.cert) list) list
