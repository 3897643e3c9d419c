(** Points-to sets: maps from (source, target) abstract-location pairs to
    a certainty (paper Definitions 3.1–3.3).

    The representation is source-indexed and carries the pair count
    plus a lazily computed, memoized reverse (target → sources) index,
    so cardinality is O(1) and target-directed operations cost one
    transposition per set value instead of per query; {!merge},
    {!equal} and {!covered_by} run identity / cardinality / subsumption
    pre-checks so fixed-point steady states cost O(1)–O(pairs) without
    allocation.

    The interprocedural fixed point (Figure 4) uses the lattice defined
    by {!covered_by} (safe generalization) and {!merge} (least upper
    bound); {!state} adds the Bottom element for unreachable code. *)

(** Definite or possible (paper §3.1). *)
type cert = D | P

(** Conjunction: definite only when both are (Table 1's [d1 ∧ d2]). *)
val cert_and : cert -> cert -> cert

val cert_to_string : cert -> string

type t

val empty : t
val is_empty : t -> bool

(** Add a pair, overriding any existing certainty (gen sets replace). *)
val add : Loc.t -> Loc.t -> cert -> t -> t

(** Add a pair, weakening on conflict (independent facts accumulate). *)
val add_weak : Loc.t -> Loc.t -> cert -> t -> t

val find : Loc.t -> Loc.t -> t -> cert option
val mem : Loc.t -> Loc.t -> t -> bool

(** All targets of a source, with certainties. *)
val targets : Loc.t -> t -> (Loc.t * cert) list

(** The target map of a source (empty when it has no relationships);
    the set's own submap, shared, not a copy. *)
val tgt_map : Loc.t -> t -> cert Loc.Map.t

(** Bind each (source, target map) row's source to exactly that map,
    replacing the row it had (an empty map unbinds the source), with
    one repack at the end. Rows are shared, not copied; a row
    physically equal to the current one costs no update. *)
val add_rows : (Loc.t * cert Loc.Map.t) list -> t -> t

(** Remove every relationship of a source (Figure 1's kill). *)
val kill_src : Loc.t -> t -> t

(** Demote every relationship of a source to possible (Figure 1's
    change set). *)
val weaken_src : Loc.t -> t -> t

(** Remove every relationship with the given target, via the reverse
    index (touches only the sources actually pointing at it). *)
val remove_tgt : Loc.t -> t -> t

(** All sources pointing at a target (the reverse index). *)
val sources : Loc.t -> t -> Loc.Set.t

val fold : (Loc.t -> Loc.t -> cert -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (Loc.t -> Loc.t -> cert -> unit) -> t -> unit

(** Iterate sources in {!Loc.compare} order, passing each source's
    target map — the set's own submaps, shared, not copies. Functional
    updates preserve the submaps of untouched sources, so consumers
    (e.g. the serializer's row-dedup table) can exploit physical
    equality across related sets. *)
val iter_srcs : (Loc.t -> cert Loc.Map.t -> unit) -> t -> unit
val exists : (Loc.t -> Loc.t -> cert -> bool) -> t -> bool
val filter : (Loc.t -> Loc.t -> cert -> bool) -> t -> t

(** Keep only the relationships whose source satisfies the predicate
    (evaluated once per source, not per pair). *)
val filter_src : (Loc.t -> bool) -> t -> t
val cardinal : t -> int

(** Cheap bounded-traversal fingerprint for bucketing interning tables:
    physically shared sets fingerprint equally in O(1); equal but
    separately built sets may not (callers must still compare with
    {!equal} inside a bucket). Contrast {!hash}, which is canonical but
    walks every pair. *)
val fingerprint : t -> int

val to_list : t -> (Loc.t * Loc.t * cert) list
val of_list : (Loc.t * Loc.t * cert) list -> t
val equal : t -> t -> bool

(** Canonical structural digest, consistent with {!equal}: equal sets
    hash equal, regardless of construction order or interning domain.
    Backs the hash-indexed sub-tree-sharing memo in {!Engine}. *)
val hash : t -> int

(** Force the lazy reverse index now. Required before read-only
    parallel querying of a shared set ({!Pool} workers racing to force
    one suspension is a runtime error in OCaml 5). *)
val prime : t -> unit

(** Least upper bound: union of pairs, definite only when definite on
    both sides (a one-sided definite becomes possible — some execution
    paths do not establish it). *)
val merge : t -> t -> t

(** [covered_by s1 s2]: is [s2] a safe generalization of [s1]? Requires
    every pair of [s1] in [s2], and every definite claim of [s2] definite
    in [s1] (Figure 4's [isSubsetOf]). *)
val covered_by : t -> t -> bool

(** Every location mentioned as source or target. *)
val all_locs : t -> Loc.Set.t

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** Analysis states: [None] is Figure 4's Bottom (unreachable / not yet
    computed), the identity of {!merge_state}. *)
type state = t option

val bot : state
val merge_state : state -> state -> state
val state_equal : state -> state -> bool
val state_covered_by : state -> state -> bool
val pp_state : Format.formatter -> state -> unit
