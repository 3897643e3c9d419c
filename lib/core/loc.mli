(** Abstract stack locations (paper §3.1).

    The analysis abstracts the set of all accessible real stack locations
    with a finite set of named abstract locations, obeying the paper's
    two properties: every real location involved in a points-to
    relationship is represented by exactly one abstract location
    (Property 3.1), and an abstract location represents one or more real
    locations (Property 3.2). *)

(** How a named variable is bound in the function under analysis; drives
    visibility across calls and the Table 4 categorization. *)
type var_kind =
  | Kglobal
  | Klocal
  | Kparam

type t =
  | Var of string * var_kind  (** a named variable *)
  | Fld of t * string  (** structure field of a location (nestable) *)
  | Head of t  (** element 0 of an array location (paper §3.2) *)
  | Tail of t  (** elements 1..n of an array location *)
  | Sym of t
      (** symbolic name for an invisible variable: [Sym l] is the location
          reached by dereferencing [l] when the real target is out of
          scope; printed "1_x", "2_x", ... (paper §4.1) *)
  | Heap  (** the single abstract heap location (paper §3.1) *)
  | Site of int
      (** a heap allocation site (statement id), under the
          [heap_by_site] option — the refinement behind the companion
          heap analyses (paper §8) *)
  | Null  (** the NULL target *)
  | Str  (** string-literal storage *)
  | Fun of string  (** a function, as the target of function pointers (§5) *)
  | Ret of string  (** the return-value pseudo-location of a function *)

(** Total order identical to the structural [Stdlib.compare] on this
    type (iteration order of {!Map}/{!Set} is engine-observable and must
    not change), with physical-equality fast paths that make comparisons
    of {!intern}ed locations O(1). *)
val compare : t -> t -> int

val equal : t -> t -> bool

(** {2 Interning}

    Every location can be interned into a domain-local id-stamped table;
    structurally equal locations then share one physical representative,
    so comparisons and [Map]/[Set] operations on the engine's hot path
    reduce to pointer checks. The table is per-domain ([Domain.DLS]):
    parallel {!Pool} workers intern without locks, and since physical
    equality is only a fast path, values interned on one domain stay
    correct when consumed on another. All smart constructors below
    return interned locations; the bare variant constructors remain
    available for pattern matching and cold code. *)

(** Canonical physical representative in the calling domain
    (sub-locations canonicalized too). Idempotent. *)
val intern : t -> t

(** Stamp of a location in the calling domain's intern table (interning
    on demand). Equal locations have equal ids within one domain. *)
val id : t -> int

(** Number of distinct locations interned so far on the calling domain. *)
val interned_count : unit -> int

(** Structural hash, consistent with {!equal} (equal locations hash
    equal, on any domain). *)
val hash : t -> int

val var : string -> var_kind -> t
val fld : t -> string -> t
val head : t -> t
val tail : t -> t
val sym : t -> t
val site : int -> t

(** Interned [Fun f]. *)
val func : string -> t

(** Interned [Ret f]. *)
val ret : string -> t

(** The base variable or special location a location is built from. *)
val root : t -> t

(** Number of [Sym] constructors on the path — the level of indirection
    of a symbolic name (the k of "k_x"). *)
val sym_depth : t -> int

(** Visible inside every procedure: globals (and their parts), heap,
    allocation sites, NULL, strings and functions. Locations rooted at
    locals, parameters or return slots are procedure-specific, and
    symbolic names are name-space-local. *)
val is_global_visible : t -> bool

(** Does the location represent exactly one real stack location?
    Non-singular locations (array tails, heap, strings) only receive weak
    updates, and relationships generated from them are demoted to
    possible (see DESIGN.md on the strong-update refinement). *)
val singular : t -> bool

(** Table 4 categorization of the root: local / global / formal
    parameter / symbolic; [None] for special locations. *)
val category : t -> [ `Lo | `Gl | `Fp | `Sy ] option

val is_null : t -> bool
val is_fun : t -> bool

(** On the stack for the Table 3/5 stack/heap split: rooted at a named
    variable, symbolic name or return slot. *)
val is_stack : t -> bool

(** Prints with the paper's conventions: [a_head], [a_tail], [1_x],
    [2_x], [heap], [s.f]. *)
val pp : Format.formatter -> t -> unit

val to_string : t -> string

module Set : Stdlib.Set.S with type elt = t
module Map : Stdlib.Map.S with type key = t
