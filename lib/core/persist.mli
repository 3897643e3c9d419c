(** Persisted analysis results: the analyze-once / query-many layer.

    The whole point of a context-sensitive summary (paper §5–6) is that
    one interprocedural fixed point pays for many downstream consumers —
    alias queries, pointer replacement, call-graph construction. This
    module makes the fixed point a durable artifact: {!analyze_cached}
    serializes a result to a compact, versioned binary cache entry and
    later serves it back, to be queried without re-running the
    analysis.

    {2 Format}

    An entry carries a magic string, a {!version} number, a 16-byte
    key digesting the analyzed source text together with the
    {!Options.t} record and the entry-function name, and an index with
    its own digest. The index holds the program's fingerprint (an
    environment digest and one {!func_hash} per function) and lists the
    sections that follow, each with
    a name, an offset, a length and a digest, so a reader verifies and
    decodes only the sections it uses. The {e result section} holds an
    interned {!Loc.t} table (each location written once, referenced by
    index), the per-statement {!Pts.t} sets as one block per function
    (keyed by the statement's index in its function, and listing the
    summary records whose frames made them), the entry output state,
    the run's {!Metrics.t} counts (the [Count] fields of
    {!Metrics.fields}; no timer), and the invocation graph: its shape (nodes, kinds, recursive
    back-edges, call sites) and map information. The nodes' IN/OUT
    pairs, the fixed point's working memo, are not saved: a finished
    result holds none ({!Analysis.result}), so a loaded graph is the
    cold one. It also carries the
    marshalled SIMPLE program, so a full hit neither parses nor lowers
    the source: it unmarshals the program and rebuilds only the typing
    environment from it. A SIMPLE statement holds no source position,
    so an entry depends only on the lowered program and the options:
    two saves of one answer write the same bytes, and the rekey path
    (an edit that leaves the program's fingerprint unchanged) publishes
    the entry's own sections under the new key, every other byte as it
    was. An
    incremental entry's result section is followed by one {e summary
    segment} per function (see below).

    A lookup never serves a wrong answer: an entry that is missing,
    truncated or corrupt, was written by a different {!version} of the
    format, or keys a different source text, option record or entry
    function, is a miss.

    {2 Cache}

    {!analyze_cached} keeps one {e stable-named} entry per (source
    path, options, entry) and kind under a cache directory (default
    [$XDG_CACHE_HOME/ptan] or [~/.cache/ptan]): {!cache_file} for a
    plain entry, {!cache_file_incr} for an incremental one. An edit
    overwrites the entry instead of adding one beside it, and the
    header's content key tells a full hit from a rekey or a re-run. It
    is the backend of every [ptan] subcommand; cache traffic is surfaced
    via {!Metrics} ([cache_hits], [cache_misses], [t_serialize],
    [t_deserialize]).

    {2 Incremental re-analysis}

    With [~incremental:true], {!analyze_cached}'s entry also carries,
    per function, a
    self-contained segment of replayable summaries, one per evaluated
    (function, input) pair: its input, output, rows and calls, each
    call with the map information its invocation-graph child held. On
    re-analysis after an edit, the hashes are diffed, only the kept
    functions' segments are read, the dirty slice (edited functions and
    their transitive callers, over direct calls and the indirect targets
    the index lists) is re-run live, and everything else replays from
    the summaries, finding or growing the invocation-graph nodes their
    recorded calls name and giving them the calls' map information —
    bit-identically to a cold run. Replay is the
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
    mismatch invalidates a cache entry (the lookup quarantines it and
    misses). *)
val version : int

(** The default cache directory: [$XDG_CACHE_HOME/ptan] when
    [XDG_CACHE_HOME] is set, else [$HOME/.cache/ptan], else
    [.ptan-cache] in the working directory. *)
val default_cache_dir : unit -> string

(** The plain entry for a (source path, options, entry) triple under a
    cache directory: [dir/<basename>-<digest>.ptc], the digest being of
    the path, the options and the entry name. The name does not involve
    the source content, so the entry written before an edit remains
    reachable after it, and the edit's save replaces it. *)
val cache_file : cache_dir:string -> source:string -> opts:Options.t -> entry:string -> string

(** The incremental entry for the same triple: {!cache_file}'s name
    with the extension [.pti]. *)
val cache_file_incr :
  cache_dir:string -> source:string -> opts:Options.t -> entry:string -> string

(** Numbering-normalized content hash of one function's lowered IR
    (statement ids zeroed): equal iff the
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
    result for [source] from its cache entry ({!cache_file}, or
    {!cache_file_incr} under [incremental]) when the entry keys the
    source's current text, and otherwise runs {!Analysis.analyze} and
    saves the result over the entry. The boolean is [true] on a cache
    hit. A hit's metrics carry the counts of the run that originally
    produced the result, and this invocation's own cache counters
    ([cache_hits] / [cache_misses] / [cache_quarantined]), incremental
    counters (nothing dirty, every defined function replayed, no graph
    node rebuilt, no function adopted) and timers: [t_serialize] /
    [t_deserialize], and [t_parse] when it lowered the source; no
    analysis time. [t_deserialize] covers this lookup's reads: the
    result section on a hit, the kept segments on a partial hit. Cache I/O failures degrade to a fresh analysis, never
    to an error. An unreadable [source] raises [Sys_error] and leaves
    every entry in place.

    A lookup ends one of three ways. An entry keying the current text
    is a full hit. An entry keying other text, or none, is a miss that
    quarantines nothing; but when the stored fingerprint equals the
    fresh lowering's (a comment or whitespace edit, which leaves the
    lowered program as it was), the miss is a {e rekey}: the old result
    is served as a hit without running the engine, in every engine
    mode, and the entry is saved under the new key, every other byte as
    it was.
    An entry that cannot be read (truncated, damaged, another
    {!version}) is renamed to [<file>.bad] (kept for post-mortem; a
    pre-existing [.bad] is never clobbered: subsequent victims get
    [.bad.1], [.bad.2], ...) and the source is analyzed cold.

    [budget] is forwarded to {!Analysis.analyze} on a miss. A degraded
    result is returned but {e never} saved to the cache — its key
    promises the full-precision answer.

    [incremental] decides only whether a miss records summaries and
    replays them: after an edit, only the dirty slice re-runs and the
    rest replays from the persisted summaries (bit-identical tables
    outside direct-call cycles — see docs/INCREMENTAL.md — and
    [incr_funcs_dirty] / [incr_funcs_reused] / [incr_funcs_adopted]
    metrics). Without sub-tree sharing, context sensitivity, or with
    [heap_by_site], nothing replays: an edit re-runs in full, as a plain
    entry's does. Defaults to [false].

    The calling domain keeps, per cache file, the decoded sections of
    the entry it last read or wrote there (summary records, and the
    result section's location and row tables), keyed by section digest.
    A later lookup of that file, this one or {!load_summaries}, verifies
    every section it uses as always, then takes a held section's decoded
    form instead of decoding it, so an edit loop in one process decodes
    only the sections another writer changed. A quarantine drops the
    file's sections (docs/INCREMENTAL.md, "Resident sections"). *)
val analyze_cached :
  ?cache_dir:string ->
  ?opts:Options.t ->
  ?entry:string ->
  ?budget:Guard.budget ->
  ?incremental:bool ->
  string ->
  Analysis.result * bool
