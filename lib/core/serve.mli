(** The resident analysis daemon: analyze (or load) once, serve many
    queries — the serving half of the analyze-once / query-many story.

    [ptan serve] keeps analysis results for a whole corpus in memory and
    answers alias/pts/calls queries over a line-oriented protocol, on
    standard input/output or a Unix-domain socket. This module is the
    daemon core — protocol parsing, batching, admission control,
    per-request budgets, dispatch over a {!Pool} of domains — and is
    deliberately ignorant of how queries are {e answered}: the driver
    supplies a {!handler} (built on the [alias] library's query
    language, which lives above this library), so the core stays
    unit-testable and free of dependency cycles.

    {2 Protocol}

    Requests are single LF-terminated lines (a trailing CR is
    stripped); empty lines are ignored; every other line gets exactly
    one reply line, in request order per connection:

    {v
    q <file> <query...>   answer <query...> against corpus entry <file>
    ping                  liveness probe
    files                 the corpus: ok <n> <name...>
    stats                 traffic counters since startup
    health                ok uptime-ms=_ restarts=_ heap-mb=_ queue-depth=_
    reload <file>         re-analyze one corpus entry in place
    watch                 start mtime polling; changed files auto-reload
    quit                  stop the daemon (reply: ok bye)
    v}

    Replies are [ok <answer>], [degraded <answer>] (the corpus entry
    was analyzed under an exhausted budget: the answer is a sound
    superset, see docs/ROBUSTNESS.md), [error <reason>] (malformed
    request, unknown corpus file, query error, or a tripped per-request
    deadline — the daemon itself never dies on a request), or
    [busy retry-after-ms=<n> <reason>] (shed by admission control;
    [retry-after-ms] is the shedding batch's own measured latency — a
    client that backs off by at least that long will usually find the
    queue drained). See docs/SERVE.md for the client contract.

    {2 Execution model}

    The calling domain runs the event loop: it accepts connections,
    reads whatever complete request lines are available, and processes
    them as one batch. Control requests ([ping]/[files]/[stats]/[quit])
    are answered inline; query requests are fanned out over the
    {!Pool} ([jobs] domains) and their replies reassembled in request
    order. Each query's handler runs under its own task deadline
    ({!Guard.with_task_deadline}, [request_deadline_ms]), which every
    guard check of the analysis behind the answer reads; a trip —
    including the {!Fault.Expired_deadline} injection — becomes an
    [error deadline …] reply.
    Admission control is a per-batch bound: at most [queue_max]
    requests are dispatched per cycle and the excess is answered
    [busy] immediately, so a flooding client degrades service
    gracefully instead of growing an unbounded queue.

    {2 Reload and watch}

    [reload <file>] calls the driver's [h_reload] — typically
    {!Persist.analyze_cached}[ ~incremental:true], so only the edited
    functions re-analyze (docs/INCREMENTAL.md) — and swaps the corpus
    entry in place. It runs inline on the event-loop domain: no query is
    in flight between batches, so the driver may mutate its corpus table
    without locking. [watch] turns on mtime polling of the corpus
    sources ([h_paths], checked at most every 250 ms on the event-loop
    tick); a changed file is reloaded exactly as if [reload] had been
    requested, while queries keep flowing. Both answer
    [error ... not supported] when the driver supplies no [h_reload]. *)

(** How the driver answers one query against one corpus entry. *)
type answer =
  | Ans of string  (** full-precision answer *)
  | Ans_degraded of string
      (** answer from a degraded (widened) corpus entry — sound
          superset of the precise answer *)
  | Ans_error of string  (** unknown file, query parse/semantic error *)

type handler = {
  h_files : string list;  (** corpus names, for the [files] request *)
  h_answer : file:string -> query:string -> answer;
      (** must be safe to call from several {!Pool} domains at once
          (query dispatch over immutable results is) *)
  h_reload : (file:string -> (string, string) result) option;
      (** re-analyze one corpus entry in place; called only on the
          event-loop domain, between batches, so it may mutate the
          driver's corpus table. [Ok summary] becomes the [ok] reply.
          [None] disables [reload] and [watch]. *)
  h_paths : (string * string) list;
      (** (corpus name, filesystem path) pairs the [watch] request
          polls; empty disables [watch] *)
}

(** Where the daemon talks. *)
type transport =
  | Stdio  (** requests on stdin, replies on stdout *)
  | Fds of Unix.file_descr * Unix.file_descr
      (** explicit descriptor pair — the bench and tests drive the
          daemon in-process over pipes *)
  | Socket of string
      (** Unix-domain socket at this path (created at startup, a stale
          file is replaced, unlinked on shutdown); multiple concurrent
          clients, per-connection reply order *)
  | Listening of Unix.file_descr
      (** an already-bound, already-listening socket inherited from
          {!supervise} — the daemon accepts on it but neither closes
          nor unlinks it (the supervisor owns its lifecycle) *)

type config = {
  jobs : int;  (** {!Pool} width for query dispatch *)
  queue_max : int;  (** admission bound: max requests dispatched per batch *)
  request_deadline_ms : float option;  (** per-request task deadline, milliseconds *)
  restarts : int;
      (** how many times the supervisor has restarted this worker;
          echoed by the [health] reply *)
  journal : string option;
      (** reload journal path: successful reloads append the corpus
          name, and {!run} replays the journal through [h_reload]
          before serving — how a {!supervise}d worker restored after a
          crash catches up with the reloads its predecessor served *)
}

val default_config : config
(** [jobs = 1], [queue_max = 1024], no per-request deadline,
    [restarts = 0], no journal. *)

(** Traffic counters, returned by {!run} and rendered by the [stats]
    request ([ok requests=... ok=... degraded=... error=... shed=...
    batches=... reloads=...]; the [stats] request counts itself).
    The only record of daemon traffic: {!Metrics} holds analysis
    counters, owned by the results the daemon serves. *)
type stats = {
  mutable s_requests : int;  (** non-empty request lines received *)
  mutable s_ok : int;
  mutable s_degraded : int;
  mutable s_errors : int;
  mutable s_shed : int;  (** [busy] replies *)
  mutable s_batches : int;  (** dispatch cycles that served at least one request *)
  mutable s_reloads : int;
      (** successful corpus reloads ([reload] requests and [watch]
          triggers) *)
}

(** {2 Parsing} — exposed for tests. *)

type request =
  | Query of { file : string; query : string }
  | Ping
  | Files
  | Stats
  | Health
  | Quit
  | Watch
  | Reload of string

val parse_request : string -> (request, string) result

(** {2 Running} *)

val run : ?stop:bool Atomic.t -> config -> handler -> transport -> stats
(** Serve until [quit], end-of-input (stdio/fds), or [stop] is set
    (checked at least every 250 ms — the driver's signal handlers set
    it for clean SIGTERM shutdown). Returns the final counters. The
    daemon never raises on a malformed or failing request; transport
    errors on one connection only close that connection. *)

(** {2 Supervision}

    [ptan serve --supervise] splits the daemon in two processes: a
    tiny supervisor that owns the listening socket, and a worker
    (forked child) that does everything else. When the worker dies —
    crash, uncaught signal, the kernel OOM killer — the supervisor
    forks a replacement onto the {e same} socket, so clients observe a
    reset connection and reconnect; they never see ECONNREFUSED or a
    stale socket file. Restarts back off exponentially (100 ms doubling
    up to 5 s, reset after a healthy stretch) and fail fast when more
    than [max_restarts] deaths land within 30 seconds — a crash-looping
    corpus should page an operator, not flap forever. See
    docs/ROBUSTNESS.md. *)

val supervise :
  ?stop:bool Atomic.t ->
  max_restarts:int ->
  socket:string ->
  (restarts:int -> Unix.file_descr -> int) ->
  int
(** [supervise ~max_restarts ~socket worker] binds [socket], listens,
    and runs [worker ~restarts fd] in a forked child, restarting it
    until it exits 0 (clean [quit]), [stop] is set, or the fail-fast
    bound trips (supervisor exit 1). The worker callback runs only in
    the child: it should {!run} the daemon on [Listening fd] (passing
    [restarts] through [config] for the [health] reply) and return the
    process exit code. Returns the supervisor's exit code; the socket
    is unlinked on the way out. Must be called before any domain is
    spawned — the supervisor forks, and only the worker may create
    pools. *)
