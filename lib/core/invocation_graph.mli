(** Invocation graphs (paper §4, Figure 2).

    One node per invocation context (path of calls from the entry).
    Recursion is approximated by matched pairs of a {e recursive} node
    (where the fixed point runs) and an {e approximate} leaf (which
    reuses the stored approximation), linked by [partner]. Function
    pointers add children during the analysis (§5). *)

module Ir = Simple_ir.Ir

type kind =
  | Ordinary
  | Recursive
  | Approximate

(** Map information deposited by the points-to analysis (§4.1): each
    symbolic name with the caller locations it represents in this
    context — the basis for later interprocedural analyses (§6.1). *)
type map_info = (Loc.t * Loc.t list) list

type node = {
  id : int;
  func : string;
  parent : node option;
  mutable kind : kind;
  mutable partner : node option;  (** approximate -> its recursive ancestor *)
  mutable children : (int * node) list;
      (** (call statement id, child); indirect sites may map one id to
          several children *)
  mutable stored_input : Pts.state;
      (** memoized IN (Figure 4): the engine's working state, bottom
          again once {!Analysis.run} ends *)
  mutable stored_output : Pts.state;  (** memoized OUT, likewise *)
  mutable pending : Pts.t list;  (** unresolved recursive inputs *)
  mutable in_flight : bool;
  mutable map_info : map_info;
}

type t = {
  root : node;
  mutable n_nodes : int;
      (** node count of the finished graph: {!build} counts the direct
          call graph, and {!Analysis.run} recounts once indirect call
          sites have grown it *)
}

(** Nearest ancestor (or the node itself) running [fname]. *)
val ancestor_with : node -> string -> node option

val children_at : node -> int -> node list
val child_at_for : node -> int -> string -> node option

(** Direct call sites (stmt id, callee) of a function body, in textual
    order. *)
val direct_call_sites : Ir.func -> (int * string) list

(** Extend the graph at an indirect call site (Figure 5's
    updateInvocGraph); reuses an existing child for the same target. *)
val add_indirect_child : Tenv.t -> node -> int -> string -> node

(** Build the graph by depth-first traversal of direct calls from
    [entry], cutting recursion with approximate nodes. [within] gates
    the descent: a direct callee for which it returns [false] gets no
    child (demand mode builds the graph of a {!Demand.plan}'s slice this
    way — the skipped call is answered without an invocation context).
    Defaults to everything. The root is built regardless of [within]. *)
val build : ?within:(string -> bool) -> Tenv.t -> entry:string -> t

val fold : ('a -> node -> 'a) -> 'a -> t -> 'a
val n_nodes : t -> int

(** Nodes allocated on this domain since the last {!build} — tracks the
    graph as indirect calls grow it mid-analysis, so {!Guard} can bound
    it without a traversal. *)
val node_count : unit -> int
val n_recursive : t -> int
val n_approximate : t -> int

(** Functions that appear in the graph (actually invoked). *)
val called_funcs : t -> string list

val pp : Format.formatter -> t -> unit
