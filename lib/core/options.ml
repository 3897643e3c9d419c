(** Analysis options.

    The defaults match the configuration the paper's experiments ran
    under (§6): full context sensitivity and definite relationships
    enabled. The other settings exist for the ablation benchmarks (see
    DESIGN.md). Pointer arithmetic is not an option: a shifted non-array
    target always stays within the pointed-to object, the paper's
    experimental setting. *)

type t = {
  max_sym_depth : int;
      (** bound on the nesting of symbolic names for invisible variables;
          beyond it, chains are summarized by the enclosing symbolic
          location (needed for recursive structure types on the stack) *)
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
          only for ablation ([--no-share-contexts]). Incremental replay
          is this memo carried across runs, so without it an
          incremental run re-runs in full ({!Persist}) *)
  heap_by_site : bool;
      (** name heap storage by allocation site instead of the single
          [heap] location — the refinement underlying the companion heap
          analyses (paper §8, [Ghiya 93]); consumed by
          [Heap_analysis.Connection] *)
}

let default =
  {
    max_sym_depth = 5;
    context_sensitive = true;
    use_definite = true;
    share_contexts = true;
    heap_by_site = false;
  }
