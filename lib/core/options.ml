(** Analysis options.

    The defaults match the configuration the paper's experiments ran
    under (§6): pointer arithmetic assumed to stay within the pointed-to
    object (with a warning), full context sensitivity, and definite
    relationships enabled. The other settings exist for the ablation
    benchmarks (see DESIGN.md). *)

type t = {
  max_sym_depth : int;
      (** bound on the nesting of symbolic names for invisible variables;
          beyond it, chains are summarized by the enclosing symbolic
          location (needed for recursive structure types on the stack) *)
  pointer_arith_stays : bool;
      (** paper §6 flag: non-array pointer arithmetic stays within the
          presently pointed-to object (true, the experimental setting) or
          may target any location (false) *)
  context_sensitive : bool;
      (** true: full invocation-graph context sensitivity (the paper);
          false: one merged IN/OUT pair per function (ablation) *)
  use_definite : bool;
      (** true: track definite relationships and use them for strong
          updates (the paper); false: everything possible, weak updates
          only (ablation) *)
  share_contexts : bool;
      (** the paper's §6 proposal for large invocation graphs: memoize
          IN/OUT pairs per function across contexts, so a node whose
          mapped input has already been analyzed at another node of the
          same function reuses that result (sub-tree sharing). On by
          default; produces bit-identical results, so the switch exists
          only for ablation ([--no-share-contexts]) *)
  heap_by_site : bool;
      (** name heap storage by allocation site instead of the single
          [heap] location — the refinement underlying the companion heap
          analyses (paper §8, [Ghiya 93]); consumed by
          [Heap_analysis.Connection] *)
}

let default =
  {
    max_sym_depth = 5;
    pointer_arith_stays = true;
    context_sensitive = true;
    use_definite = true;
    share_contexts = true;
    heap_by_site = false;
  }
