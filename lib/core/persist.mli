(** Persisted analysis results: the analyze-once / query-many layer.

    The whole point of a context-sensitive summary (paper §5–6) is that
    one interprocedural fixed point pays for many downstream consumers —
    alias queries, pointer replacement, call-graph construction. This
    module makes the fixed point a durable artifact: a {!result} is
    serialized to a compact, versioned binary file and later {!load}ed
    and queried without re-running the analysis.

    {2 Format}

    A saved file carries a magic string, a {!version} number, a 16-byte
    key digesting the analyzed source text together with the
    {!Options.t} record and the entry-function name, and an index with
    its own digest. The index lists the sections that follow, each with
    a name, an offset, a length and a digest, so a reader verifies and
    decodes only the sections it uses. The {e result section} holds an
    interned {!Loc.t} table (each location written once, referenced by
    index), the per-statement {!Pts.t} sets as one block per function
    (keyed by the statement's index in its function, and listing the
    summary records whose frames made them), the entry output state,
    the invocation-graph shape (nodes, kinds, recursive back-edges,
    stored IN/OUT pairs and map information), and the run's
    {!Metrics.t} record (every field of {!Metrics.fields}). It also carries the
    marshalled SIMPLE program, so loading neither parses nor lowers the
    source: it unmarshals the program and rebuilds only the typing
    environment from it. Only the incremental rekey path (an edit that
    leaves the program's fingerprint, its environment digest and every
    function hash, unchanged) re-lowers the edited source, so source
    positions track the edit; it skips the saved program. An incremental entry's index also holds
    the fingerprint, and one {e summary segment} per function follows
    the result section (see below).

    A load returns [None] — never a wrong answer — when the file is
    missing, truncated or corrupt, was written by a different {!version}
    of the format, or keys a different source text, option record or
    entry function.

    {2 Cache}

    {!analyze_cached} keys files by digest under a cache directory
    (default [$XDG_CACHE_HOME/ptan] or [~/.cache/ptan]) and is the
    backend of every [ptan] subcommand; cache traffic is surfaced via
    {!Metrics} ([cache_hits], [cache_misses], [t_serialize],
    [t_deserialize]).

    {2 Incremental re-analysis}

    With [~incremental:true], {!analyze_cached} keeps one
    {e stable-named} entry per (source path, options, entry) that also
    carries a content hash per function (position-normalized, so edits
    elsewhere in the file do not disturb it) and, per function, a
    self-contained segment of replayable summaries, one per evaluated
    (function, input) pair: its input, output, rows and calls. On
    re-analysis after an edit, the hashes are diffed, only the kept
    functions' segments are read, the dirty slice (edited functions and
    their transitive callers, over direct calls and the indirect targets
    the index lists) is re-run live, and everything else replays from
    the summaries, finding or growing the invocation-graph nodes their
    recorded calls name — bit-identically to a cold run. Replay is the
    §6 sub-tree sharing memo carried across runs, so summaries are
    recorded and replayed only under sharing. A replayed function with
    no body pass whose saved block lists exactly the summaries it
    replayed, and nothing else, takes the block's rows instead of
    folding the summaries' rows: the same least upper bound. The save
    encodes the result section afresh and copies the segment of a kept
    function that gained no summary, bytes and digest unchanged. See
    docs/INCREMENTAL.md for the layout, the dirty rule and the soundness
    argument. *)

(** Format version; bumped on any change to the encoding. A version
    mismatch invalidates a cache file (the reader returns [None]). *)
val version : int

(** Hex digest keying a saved result: source text content, the full
    {!Options.t} record, the entry name, and the format {!version}.
    [source] is the path of the C file. *)
val key : source:string -> opts:Options.t -> entry:string -> string

(** [save ~source ?entry result file] writes [result] (obtained by
    analyzing [source] with entry [entry], default ["main"]) to [file]
    in the versioned binary format. The options are taken from the
    result's typing environment. The header carries {!key} of [source]
    as it reads now. Creates parent directories as needed; writes
    atomically (temp file + rename). Adds its cost to the result's
    [metrics.t_serialize], after the record is written. The entry is a
    plain one: no fingerprint and no summary segments, whatever
    summaries the result recorded. *)
val save : source:string -> ?entry:string -> Analysis.result -> string -> unit

(** Why a load produced no result. *)
type load_error =
  | Missing  (** no file at that path *)
  | Stale
      (** well-formed entry keying a different source text, option
          record or entry function — not corrupt, just not ours *)
  | Corrupt
      (** truncation, bit damage, version skew, or any decode failure:
          the entry can never load again; {!analyze_cached} quarantines
          it *)

val load_error_name : load_error -> string
(** ["missing"], ["stale"], ["corrupt"]. *)

(** [load_checked ~source ?opts ?entry file] reads a result saved by
    {!save}, classifying failure: never raises, never returns a wrong
    table. An entry whose key cannot be checked because [source] is
    unreadable is [Stale]. On success the program comes from the
    entry's marshalled SIMPLE program (the source is read only to check
    the key) and the result is equivalent to the one originally saved: same
    per-statement points-to sets, entry output, invocation graph
    (shape, stored IN/OUT, map information), warnings and counters.
    Records its cost in the loaded result's [metrics.t_deserialize]. It
    reads the header, the index and the result section only. *)
val load_checked :
  source:string ->
  ?opts:Options.t ->
  ?entry:string ->
  string ->
  (Analysis.result, load_error) result

(** {!load_checked} with the failure reason dropped. *)
val load :
  source:string -> ?opts:Options.t -> ?entry:string -> string -> Analysis.result option

(** The default cache directory: [$XDG_CACHE_HOME/ptan] when
    [XDG_CACHE_HOME] is set, else [$HOME/.cache/ptan], else
    [.ptan-cache] in the working directory. *)
val default_cache_dir : unit -> string

(** The cache file a (source, options, entry) triple maps to under a
    cache directory: [dir/<basename>-<key>.ptc]. *)
val cache_file : cache_dir:string -> source:string -> opts:Options.t -> entry:string -> string

(** The {e stable-named} incremental entry for a (source path, options,
    entry) triple: [dir/<basename>-<digest>.pti]. Unlike {!cache_file},
    the name does not involve the source content, so the entry written
    before an edit remains reachable after it — the header's content key
    then distinguishes a full hit from a partial (summary-replay) one. *)
val cache_file_incr :
  cache_dir:string -> source:string -> opts:Options.t -> entry:string -> string

(** Position-normalized content hash of one function's lowered IR
    (statement ids and source locations blanked): equal iff the
    function's code is unchanged, no matter what was edited elsewhere in
    the translation unit. The diff oracle of the incremental path. *)
val func_hash : Simple_ir.Ir.func -> Digest.t

(** The functions of the program whose persisted summaries may be
    replayed after an edit, given the saved run's {!func_hash} table and
    the program's own, by function name: those whose whole closure over
    direct calls and recorded indirect targets is unchanged (equal
    digests), and that, when that closure holds an indirect call site,
    lie on no cycle through another function (docs/INCREMENTAL.md).
    [targets f] lists the targets [f]'s indirect calls resolved to in
    the saved run. The complement is the dirty set. *)
val eligible_funcs :
  targets:(string -> string list) ->
  Simple_ir.Ir.program ->
  old_hashes:(string, string) Hashtbl.t ->
  new_hashes:(string, string) Hashtbl.t ->
  (string, unit) Hashtbl.t

(** The replayable summaries of the incremental cache entry for
    [source], restricted to {!eligible_funcs} against [prog] (the
    current lowering of [source]), read from their segments only — what
    a demand-driven run replays at
    calls it skips ({!Analysis.analyze_demand}; docs/DEMAND.md). [None]
    when there is no usable entry: missing or corrupt file, changed
    environment (globals, layouts, options), or a non-seedable engine
    mode (context-insensitive, no sub-tree sharing, [heap_by_site]).
    Unlike [analyze_cached] this never runs the analysis and never
    writes. *)
val load_summaries :
  cache_dir:string ->
  source:string ->
  opts:Options.t ->
  ?entry:string ->
  Simple_ir.Ir.program ->
  Engine.store option

(** [analyze_cached ?cache_dir ?opts ?entry source] serves the analysis
    result for [source] from the disk cache when a valid entry exists,
    and otherwise runs {!Analysis.of_file} and populates the cache. The
    boolean is [true] on a cache hit. The returned result's metrics
    carry this invocation's cache counters ([cache_hits] /
    [cache_misses] / [t_serialize] / [t_deserialize] /
    [cache_quarantined], and [t_parse] when it lowered the source)
    alongside the counters of the run that originally produced the
    result. [t_deserialize] covers this lookup's reads: the result
    section on a hit, the kept segments on a partial hit. Cache I/O
    failures degrade to a
    fresh analysis, never to an error. An unreadable [source] raises
    [Sys_error] and leaves every entry in place. A {!Corrupt} entry is
    renamed to [<file>.bad] (kept for post-mortem; a pre-existing
    [.bad] is never clobbered — subsequent victims get [.bad.1],
    [.bad.2], ...) and re-analyzed cold.

    [budget] is forwarded to {!Analysis.analyze} on a miss. A degraded
    result is returned but {e never} saved to the cache — its key
    promises the full-precision answer.

    [incremental] switches to the stable-named entry
    ({!cache_file_incr}) with summary recording and replay: an unchanged
    source is a full hit as before; after an edit, only the dirty slice
    re-runs and the rest replays from the persisted summaries
    (bit-identical tables outside direct-call cycles — see
    docs/INCREMENTAL.md — and [incr_funcs_dirty] / [incr_funcs_reused]
    / [incr_funcs_adopted] metrics). Without sub-tree sharing, context sensitivity, or with
    [heap_by_site], nothing replays: an edit re-runs in full, and the
    entry is kept as a plain cache. An edit that leaves the fingerprint
    unchanged is served
    from the old result and saved under the new key with every section
    copied. Only this mode computes and saves the fingerprint. Defaults
    to [false]. *)
val analyze_cached :
  ?cache_dir:string ->
  ?opts:Options.t ->
  ?entry:string ->
  ?budget:Guard.budget ->
  ?incremental:bool ->
  string ->
  Analysis.result * bool
