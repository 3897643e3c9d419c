(** Points-to sets: maps from (source, target) abstract-location pairs to
    a certainty (paper Definitions 3.1–3.3).

    The representation is two source-indexed maps plus the pair count,
    so cardinality is O(1): the {e global part}, the rows whose source
    is a global variable or a field or array part of one with no
    symbolic name on the path, and the {e frame part}, every other row
    (locals, parameters, return slots, symbolic names — a global-rooted
    one such as [1_gq] included —, the heap and allocation sites). The
    split serves {!Map_unmap} alone, which hands a callee the caller's
    global part whole and translates only its {!global_index} rows: no
    other reader sees it. Every observable walk ({!iter_srcs}, {!rows},
    {!fold}, {!iter}, {!to_list}, {!pp}) goes in {!Loc.compare} order of
    the sources across both parts, and {!hash} folds them in that order,
    so it has the value it had over one map.

    {!merge}, {!equal} and {!covered_by} run identity / cardinality /
    subsumption pre-checks, per part, so fixed-point steady states cost
    O(1)–O(pairs) without allocation. A set is immutable data with no
    closure or suspension inside, plus two caches, its {!hash} and its
    {!global_index}: any number of domains may read one at once, and it
    marshals as it is.

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

(** Remove every relationship with the given target, by filtering the
    map. Rows without the target stay shared; a set in which no source
    points at the target is returned physically unchanged. *)
val remove_tgt : Loc.t -> t -> t

val fold : (Loc.t -> Loc.t -> cert -> 'a -> 'a) -> t -> 'a -> 'a
val iter : (Loc.t -> Loc.t -> cert -> unit) -> t -> unit

(** Iterate sources in {!Loc.compare} order, passing each source's
    target map — the set's own submaps, shared, not copies. Functional
    updates preserve the submaps of untouched sources, so consumers
    (e.g. the serializer's row-dedup table) can exploit physical
    equality across related sets. *)
val iter_srcs : (Loc.t -> cert Loc.Map.t -> unit) -> t -> unit

(** The (source, target map) rows in {!Loc.compare} order of the
    sources, the submaps shared as {!iter_srcs} passes them. *)
val rows : t -> (Loc.t * cert Loc.Map.t) list

(** {2 The global part and its index}

    What {!Map_unmap} reads to make a call cost the rows it translates,
    not the program's global state. *)

(** [global_index ~cells s]: the sources of the global rows a call must
    visit, given the program's declared global pointer cells, the keys
    of [cells] (its values, the cells' declaration positions, are not
    read here): the rows that name something — a target that is not
    visible, is symbolic or is the heap blob — and the rows whose source
    is none of [cells] (made through a cast, which a call drops). Every
    other global row names nothing: a call keeps each of its targets as
    it is, explores none and demotes none, so it passes through
    unchanged. (A symbolic name rooted at a global is visible, but a
    call may mint it for several caller invisibles and then demote the
    rows pointing at it, so it names something.)

    The set keeps the index of the [cells] it was last asked for
    (compared physically, so one per {!Tenv}), like {!hash}: the first
    call walks the global part, later calls read it. An operation that
    leaves the global part physically unchanged passes the index on, and
    one that changes global rows ({!add}, {!add_rows}, {!kill_src},
    filters, {!merge}) updates it per changed row, so along an analysis
    the walk happens about once per program. Domains may race on the
    cache: it is one pointer to immutable data, and a reader that finds
    another [cells] there recomputes. *)
val global_index : cells:int Loc.Map.t -> t -> Loc.Set.t

(** Iterate the frame part's rows in {!Loc.compare} order. *)
val iter_frame : (Loc.t -> cert Loc.Map.t -> unit) -> t -> unit

(** {!filter_src} over the frame part only: every global row is kept,
    the global part and its index shared. *)
val filter_frame : (Loc.t -> bool) -> t -> t

(** [splice ~globals ~frame]: [globals]'s global part (shared, with its
    index) with [frame]'s frame part. *)
val splice : globals:t -> frame:t -> t

val filter : (Loc.t -> Loc.t -> cert -> bool) -> t -> t

(** Keep only the relationships whose source satisfies the predicate
    (evaluated once per source, not per pair). *)
val filter_src : (Loc.t -> bool) -> t -> t
val cardinal : t -> int

val to_list : t -> (Loc.t * Loc.t * cert) list
val of_list : (Loc.t * Loc.t * cert) list -> t
val equal : t -> t -> bool

(** Canonical structural digest, consistent with {!equal}: equal sets
    hash equal, regardless of construction order or interning domain.
    It folds the pairs of both parts in {!Loc.compare} order of their
    sources, so it has the value a fold over one source-indexed map
    gives, which the persisted set tables' record order depends on.

    The set keeps it: the first call computes it, later calls read it.
    Every operation that returns a new set builds it with the digest
    unset, so a digest never outlives the pairs it digests. Domains may
    race on the cache: it is one int, written whole and only ever with
    the one value, so a reader sees "unset" (and computes the same
    value) or the digest — unlike a lazy suspension, which raises when
    a second domain forces it mid-computation.

    The cached field makes polymorphic [=], [compare] and
    [Hashtbl.hash] unreliable on sets and on values holding them: use
    {!equal}, {!hash} and {!Tbl}. *)
val hash : t -> int

(** Hash tables keyed by a set: the summary store's and the persisted
    set table's. A probe asks {!equal} only of keys with the same
    digest. *)
module Tbl : Hashtbl.S with type key = t

(** A no-op, kept only because the frozen [perf/] harness still calls
    it: a set holds no suspension, so nothing needs forcing before
    domains share it. Delete it together with that call. *)
val prime : t -> unit

(** Least upper bound: union of pairs, definite only when definite on
    both sides (a one-sided definite becomes possible — some execution
    paths do not establish it). *)
val merge : t -> t -> t

(** A mutable least-upper-bound accumulator: the {!merge} of every set
    added to it, built in place. It backs the per-statement recording
    tables, where one row receives a visit per context and most visits
    change nothing.

    The first visit is kept as it is. From the second on, the bound is a
    source-sorted array of target maps that {!Acc.add} walks in step with
    the visit's sources, so equal sources meet by a pointer check and a
    physically shared row costs one [==]; a row is rebuilt only when the
    visit grows it. {!Acc.freeze} returns a visited set physically
    whenever one covers all the others (so at least whenever folding
    the visits with {!merge} would have returned an operand), and
    otherwise builds the bound once and caches it until the next
    change.

    Accumulators that received the same sets in the same order share
    one bound: a {!Acc.chain} remembers the latest add, and an add of
    the same set to an accumulator holding that add's old bound adopts
    its result without a walk. Consecutive statements that change no
    pointer see the same set in every context, so along such a run only
    the first statement walks. A shared bound is copied before it
    changes. *)
module Acc : sig
  type set := t
  type t

  (** The memory of the latest {!add} that did its own work. *)
  type chain

  val create : unit -> t
  val chain : unit -> chain

  (** [add chain acc s]: merge a visit into the bound, adopting the
      result of [chain]'s latest add when it applies. Any number of
      accumulators may share one chain. Counts [Metrics.records] when
      the accumulator already held a visit, and times an add that walks
      the bound into [Metrics.t_record]. *)
  val add : chain -> t -> set -> unit

  (** The bound: [List.fold_left merge v1 [v2; ...]] over the visits so
      far, {!empty} before the first. Adding more after a freeze is
      allowed. *)
  val freeze : t -> set
end

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
