(** Call-graph construction strategies in the presence of function
    pointers (paper §5–6, the 'livc' study): the precise points-to-based
    binding versus the naive (all functions) and address-taken
    approximations, compared by invocation-graph size. *)

module Ir = Simple_ir.Ir

type strategy =
  | Precise of Pointsto.Analysis.result
      (** the paper's integrated algorithm: the bindings of an analyzed
          result *)
  | Naive  (** every defined function *)
  | Address_taken  (** every function whose address is taken *)

val strategy_name : strategy -> string

(** Call sites of a function: statement id plus resolution kind. *)
val sites_of : Ir.program -> Ir.func -> (int * [ `Direct of string | `Indirect ]) list

(** Invocation-graph node count when indirect sites bind to a fixed
    target list (DFS with the same recursion cutting as the real
    builder). *)
val ig_size_with : Ir.program -> entry:string -> indirect_targets:string list -> int

(** Invocation-graph size under a strategy ([Precise] reads its
    result's graph; [entry] roots the other strategies' count). *)
val ig_size : ?entry:string -> Ir.program -> strategy -> int

(** Functions bound to each indirect call site under a strategy (the
    paper reports 24 / 82 / 72 for livc). *)
val indirect_fanout : Ir.program -> strategy -> int list

(** The call multigraph (caller, callee) edges of an analyzed invocation
    graph. *)
val edges_of_result : Pointsto.Analysis.result -> (string * string) list
