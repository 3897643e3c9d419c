(** Resident analysis daemon core (see serve.mli).

    The calling domain owns the event loop and every mutable piece of
    daemon state (connections, counters); only the pure per-query
    closure crosses onto {!Pool} domains. Replies are classified and
    counted back on the event-loop domain, so the traffic counters
    ({!stats}) never race. *)

type answer =
  | Ans of string
  | Ans_degraded of string
  | Ans_error of string

type handler = {
  h_files : string list;
  h_answer : file:string -> query:string -> answer;
  h_reload : (file:string -> (string, string) result) option;
  h_paths : (string * string) list;
}

type transport =
  | Stdio
  | Fds of Unix.file_descr * Unix.file_descr
  | Socket of string
  | Listening of Unix.file_descr

type config = {
  jobs : int;
  queue_max : int;
  request_deadline_ms : float option;
  restarts : int;
  journal : string option;
}

let default_config =
  { jobs = 1; queue_max = 1024; request_deadline_ms = None; restarts = 0; journal = None }

type stats = {
  mutable s_requests : int;
  mutable s_ok : int;
  mutable s_degraded : int;
  mutable s_errors : int;
  mutable s_shed : int;
  mutable s_batches : int;
  mutable s_reloads : int;
}

(* ------------------------------------------------------------------ *)
(* Requests and replies                                               *)
(* ------------------------------------------------------------------ *)

type request =
  | Query of { file : string; query : string }
  | Ping
  | Files
  | Stats
  | Health
  | Quit
  | Watch
  | Reload of string

let parse_request line : (request, string) result =
  match
    String.split_on_char ' ' line
    |> List.concat_map (String.split_on_char '\t')
    |> List.filter (fun s -> s <> "")
  with
  | [] -> Error "empty request"
  | "q" :: file :: (_ :: _ as query) -> Ok (Query { file; query = String.concat " " query })
  | [ "q" ] | [ "q"; _ ] -> Error "q expects: q <file> <query...>"
  | [ "ping" ] -> Ok Ping
  | [ "files" ] -> Ok Files
  | [ "stats" ] -> Ok Stats
  | [ "health" ] -> Ok Health
  | [ "quit" ] -> Ok Quit
  | [ "watch" ] -> Ok Watch
  | [ "reload"; file ] -> Ok (Reload file)
  | [ "reload" ] -> Error "reload expects: reload <file>"
  | kw :: _ ->
      Error
        (Printf.sprintf
           "unknown request '%s' (expected q, ping, files, stats, health, watch, reload \
            or quit)"
           kw)

(* Replies are one line each; a payload must not be able to break the
   framing, so embedded newlines become spaces. *)
let sanitize s = String.map (function '\n' | '\r' -> ' ' | c -> c) s

let reply_error e = "error " ^ sanitize e

let stats_reply st =
  Printf.sprintf "ok requests=%d ok=%d degraded=%d error=%d shed=%d batches=%d reloads=%d"
    st.s_requests st.s_ok st.s_degraded st.s_errors st.s_shed st.s_batches st.s_reloads

let files_reply h =
  Printf.sprintf "ok %d %s" (List.length h.h_files) (String.concat " " h.h_files)

(* The health probe: daemon uptime, how many times the supervisor has
   restarted this worker, a heap sample, and how many requests arrived
   in the batch carrying the probe. All gathered inline on the
   event-loop domain — a health check must answer even when the pool is
   saturated with queries. *)
let health_reply cfg ~t0 ~depth =
  let heap_mb = (Gc.quick_stat ()).Gc.heap_words / (1024 * 1024 / (Sys.word_size / 8)) in
  Printf.sprintf "ok uptime-ms=%.0f restarts=%d heap-mb=%d queue-depth=%d"
    ((Mono.now_s () -. t0) *. 1e3)
    cfg.restarts heap_mb depth

(* ------------------------------------------------------------------ *)
(* Reload journal                                                     *)
(* ------------------------------------------------------------------ *)

(* Under a supervisor, reloads mutate only the worker's in-memory
   corpus — state a crash would silently lose. Each successful reload
   appends the corpus name to [cfg.journal]; a restarted worker replays
   the journal (each name once, in first-reload order) before serving,
   so its tables match the corpus the previous worker was answering
   from. Append and replay are best-effort: a broken journal degrades
   to a cold corpus, never a dead daemon. *)
let journal_append cfg ~file =
  match cfg.journal with
  | None -> ()
  | Some path -> (
      try
        let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
        output_string oc (file ^ "\n");
        close_out oc
      with Sys_error _ -> ())

let journal_replay cfg handler stats =
  match (cfg.journal, handler.h_reload) with
  | Some path, Some f when Sys.file_exists path ->
      let ic = open_in path in
      let rec lines acc =
        match input_line ic with
        | l -> lines (if String.trim l = "" then acc else String.trim l :: acc)
        | exception End_of_file -> List.rev acc
      in
      let files = lines [] in
      close_in ic;
      let seen = Hashtbl.create 8 in
      List.iter
        (fun file ->
          if not (Hashtbl.mem seen file) then begin
            Hashtbl.add seen file ();
            match f ~file with
            | Ok _ -> stats.s_reloads <- stats.s_reloads + 1
            | Error _ -> ()
            | exception _ -> ()
          end)
        files
  | _ -> ()

(* Re-analyze one corpus entry in place, on the event-loop domain: no
   query is in flight between batches, so the driver's mutable corpus
   table can be swapped without a race. *)
let do_reload cfg handler stats ~file =
  match handler.h_reload with
  | None -> reply_error "reload not supported by this driver"
  | Some f -> (
      match f ~file with
      | Ok summary ->
          stats.s_reloads <- stats.s_reloads + 1;
          journal_append cfg ~file;
          "ok " ^ sanitize summary
      | Error e -> reply_error e
      | exception e -> reply_error ("reload failed: " ^ Printexc.to_string e))

(* One query request, executed on whichever pool domain picked it up:
   the handler runs under the request's own deadline (so the
   {!Fault.Expired_deadline} injection and genuinely slow handlers trip
   per-request, not per-daemon, at the analysis's next {!Guard.check}),
   and every failure is folded into an [error] reply — a request can
   never take the daemon down. *)
let do_query cfg handler (file, query) =
  let t0 = Trace.start () in
  let started = Mono.now_s () in
  let answer () = handler.h_answer ~file ~query in
  let reply =
    match
      match cfg.request_deadline_ms with
      | None -> answer ()
      | Some ms ->
          Guard.with_task_deadline ~ms (fun () ->
              (* a request arriving out of budget never reaches the handler *)
              if Fault.enabled Fault.Expired_deadline then raise Guard.Cancelled;
              answer ())
    with
    | Ans a -> "ok " ^ sanitize a
    | Ans_degraded a -> "degraded " ^ sanitize a
    | Ans_error e -> reply_error e
    | exception Guard.Exhausted trip -> reply_error (Fmt.str "%a" Guard.pp_trip trip)
    | exception Guard.Cancelled when Option.is_some cfg.request_deadline_ms ->
        let after_ms = (Mono.now_s () -. started) *. 1e3 in
        reply_error
          (Fmt.str "%a" Guard.pp_trip
             { Guard.t_reason = Guard.Deadline; t_where = None; t_after_ms = after_ms })
    | exception e -> reply_error ("request failed: " ^ Printexc.to_string e)
  in
  if Trace.on () then Trace.emit Trace.Request ~name:file ~t0 ();
  reply

(* ------------------------------------------------------------------ *)
(* Connections                                                        *)
(* ------------------------------------------------------------------ *)

type conn = {
  c_in : Unix.file_descr;
  c_out : Unix.file_descr;
  c_buf : Buffer.t;  (** bytes read but not yet framed into lines *)
  c_owned : bool;  (** close the descriptors on teardown (accepted sockets) *)
  mutable c_eof : bool;
  mutable c_dead : bool;  (** write side failed; drop without replying *)
}

let mk_conn ~owned c_in c_out =
  { c_in; c_out; c_buf = Buffer.create 4096; c_owned = owned; c_eof = false; c_dead = false }

let read_chunk c =
  let bytes = Bytes.create 65536 in
  match Unix.read c.c_in bytes 0 (Bytes.length bytes) with
  | 0 -> c.c_eof <- true
  | n -> Buffer.add_subbytes c.c_buf bytes 0 n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EBADF | Unix.EPIPE), _, _) ->
      c.c_eof <- true

(* Complete lines buffered on [c], leaving a partial trailing line in
   place — except at EOF, where the unterminated remainder is the final
   line. *)
let take_lines c =
  let s = Buffer.contents c.c_buf in
  let n = String.length s in
  let lines = ref [] in
  let start = ref 0 in
  (try
     while true do
       let i = String.index_from s !start '\n' in
       lines := String.sub s !start (i - !start) :: !lines;
       start := i + 1
     done
   with Not_found -> ());
  Buffer.clear c.c_buf;
  if !start < n then
    if c.c_eof then lines := String.sub s !start (n - !start) :: !lines
    else Buffer.add_substring c.c_buf s !start (n - !start);
  List.rev_map (fun l ->
      let len = String.length l in
      if len > 0 && l.[len - 1] = '\r' then String.sub l 0 (len - 1) else l)
    !lines

let write_all c s =
  let n = String.length s in
  let rec go off =
    if off < n && not c.c_dead then
      match Unix.write_substring c.c_out s off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go off
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET | Unix.EBADF), _, _) ->
          c.c_dead <- true
  in
  go 0

let close_conn c =
  if c.c_owned then begin
    (try Unix.close c.c_in with Unix.Unix_error _ -> ());
    if c.c_out != c.c_in then try Unix.close c.c_out with Unix.Unix_error _ -> ()
  end

(* ------------------------------------------------------------------ *)
(* Batch processing                                                   *)
(* ------------------------------------------------------------------ *)

(* A batch is every complete request line that arrived this cycle, in
   arrival order. Admission: the first [queue_max] are served, the rest
   get an immediate [busy] — the queue is bounded by construction.
   Control requests are answered inline on the event-loop domain;
   queries fan out over the pool and come back in submission order, so
   per-connection reply order always matches request order. *)
let process pool cfg handler stats quit watching ~t0 pending =
  (* the {!Fault.Worker_kill} site: an OOM-killed worker dies right as
     it picks up a batch — requests in flight, reply unsent — which is
     the worst case its supervisor and clients must absorb *)
  Fault.maybe_worker_kill ();
  let t_batch0 = Mono.now_s () in
  stats.s_batches <- stats.s_batches + 1;
  let rec split_at n = function
    | [] -> ([], [])
    | l when n = 0 -> ([], l)
    | x :: tl ->
        let a, b = split_at (n - 1) tl in
        (x :: a, b)
  in
  let admitted, shed = split_at cfg.queue_max pending in
  let n_pending = List.length pending in
  let items =
    List.map
      (fun (c, line) ->
        stats.s_requests <- stats.s_requests + 1;
        match parse_request line with
        | Error e -> (c, Either.Left (reply_error e))
        | Ok Ping -> (c, Either.Left "ok pong")
        | Ok Files -> (c, Either.Left (files_reply handler))
        | Ok Stats -> (c, Either.Left (stats_reply stats))
        | Ok Health -> (c, Either.Left (health_reply cfg ~t0 ~depth:n_pending))
        | Ok Quit ->
            quit := true;
            (c, Either.Left "ok bye")
        | Ok Watch ->
            if handler.h_reload = None || handler.h_paths = [] then
              (c, Either.Left (reply_error "watch not supported by this driver"))
            else begin
              watching := true;
              ( c,
                Either.Left
                  (Printf.sprintf "ok watching %d files" (List.length handler.h_paths))
              )
            end
        | Ok (Reload file) -> (c, Either.Left (do_reload cfg handler stats ~file))
        | Ok (Query { file; query }) -> (c, Either.Right (file, query)))
      admitted
  in
  let queries = List.filter_map (fun (_, i) -> Either.find_right i) items in
  let answers =
    match queries with
    | [] -> []
    | [ one ] -> [ do_query cfg handler one ]  (* skip the pool: round-trip latency *)
    | many ->
        (* chunk the batch so per-task pool overhead (queueing, domain
           wake-up) is amortized over many queries instead of paid per
           query; order is preserved chunk-by-chunk *)
        let n = List.length many in
        let per_chunk = max 1 ((n + (4 * cfg.jobs) - 1) / (4 * cfg.jobs)) in
        let rec chunk = function
          | [] -> []
          | l ->
              let rec take k acc = function
                | rest when k = 0 -> (List.rev acc, rest)
                | [] -> (List.rev acc, [])
                | x :: tl -> take (k - 1) (x :: acc) tl
              in
              let c, rest = take per_chunk [] l in
              c :: chunk rest
        in
        let chunks = chunk many in
        Pool.map_result pool (List.map (do_query cfg handler)) chunks
        |> List.map2
             (fun c res ->
               match res with
               | Ok rs -> rs
               | Error e ->
                   (* a whole chunk failed before per-query isolation
                      could catch it (only injected pool faults do
                      this): every query of the chunk gets the error *)
                   List.map
                     (fun _ -> reply_error ("request failed: " ^ Printexc.to_string e))
                     c)
             chunks
        |> List.concat
  in
  (* reassemble in request order, then account and route the replies *)
  let replies =
    let rec zip items answers =
      match (items, answers) with
      | [], _ -> []
      | (c, Either.Left r) :: tl, answers -> (c, r) :: zip tl answers
      | (c, Either.Right _) :: tl, a :: answers -> (c, a) :: zip tl answers
      | (_, Either.Right _) :: _, [] -> assert false
    in
    (* the admitted queries have already run by this point, so the
       batch's own latency is known — it is the best available estimate
       of when the daemon will take requests again, and becomes the
       shed replies' retry hint (floored at 1 ms so a client backing
       off by the hint never busy-loops) *)
    let retry_after_ms =
      max 1 (int_of_float (ceil ((Mono.now_s () -. t_batch0) *. 1e3)))
    in
    zip items answers
    @ List.map
        (fun (c, _) ->
          stats.s_requests <- stats.s_requests + 1;
          stats.s_shed <- stats.s_shed + 1;
          ( c,
            Printf.sprintf "busy retry-after-ms=%d queue full (%d pending, max %d per \
                            batch)"
              retry_after_ms n_pending cfg.queue_max ))
        shed
  in
  List.iter
    (fun (_, r) ->
      if String.length r >= 2 && String.sub r 0 2 = "ok" then stats.s_ok <- stats.s_ok + 1
      else if String.length r >= 8 && String.sub r 0 8 = "degraded" then
        stats.s_degraded <- stats.s_degraded + 1
      else if String.length r >= 5 && String.sub r 0 5 = "error" then
        stats.s_errors <- stats.s_errors + 1)
    replies;
  (* one write per connection per batch *)
  let outs : (conn * Buffer.t) list ref = ref [] in
  List.iter
    (fun (c, r) ->
      let buf =
        match List.find_opt (fun (c', _) -> c' == c) !outs with
        | Some (_, b) -> b
        | None ->
            let b = Buffer.create 1024 in
            outs := !outs @ [ (c, b) ];
            b
      in
      Buffer.add_string buf r;
      Buffer.add_char buf '\n')
    replies;
  List.iter (fun (c, b) -> if not c.c_dead then write_all c (Buffer.contents b)) !outs

(* ------------------------------------------------------------------ *)
(* Event loop                                                         *)
(* ------------------------------------------------------------------ *)

(* [watch] support: poll the corpus sources' mtimes (cheap stats, at
   most every 250 ms) and reload an entry in place when its file
   changed. The first sighting of a file only records the baseline. *)
let poll_watch cfg handler stats mtimes =
  List.iter
    (fun (name, path) ->
      match Unix.stat path with
      | exception Unix.Unix_error _ -> ()
      | st -> (
          let mt = st.Unix.st_mtime in
          match Hashtbl.find_opt mtimes path with
          | None -> Hashtbl.replace mtimes path mt
          | Some old when old <> mt ->
              Hashtbl.replace mtimes path mt;
              ignore (do_reload cfg handler stats ~file:name)
          | Some _ -> ()))
    handler.h_paths

let run ?(stop = Atomic.make false) cfg handler transport =
  (* a client closing mid-write must be a dropped connection, not a
     fatal SIGPIPE *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let stats =
    {
      s_requests = 0;
      s_ok = 0;
      s_degraded = 0;
      s_errors = 0;
      s_shed = 0;
      s_batches = 0;
      s_reloads = 0;
    }
  in
  let listen_fd, conns =
    match transport with
    | Stdio -> (None, ref [ mk_conn ~owned:false Unix.stdin Unix.stdout ])
    | Fds (i, o) -> (None, ref [ mk_conn ~owned:false i o ])
    | Socket path ->
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        (try Unix.unlink path with Unix.Unix_error _ -> ());
        Unix.bind fd (Unix.ADDR_UNIX path);
        Unix.listen fd 64;
        (Some fd, ref [])
    | Listening fd ->
        (* pre-bound by the supervisor, which owns its lifecycle *)
        (Some fd, ref [])
  in
  let cleanup () =
    List.iter close_conn !conns;
    match (listen_fd, transport) with
    | Some fd, Socket path ->
        (try Unix.close fd with Unix.Unix_error _ -> ());
        (try Unix.unlink path with Unix.Unix_error _ -> ())
    | _ -> ()
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  Pool.with_pool ~jobs:cfg.jobs @@ fun pool ->
  let t0 = Mono.now_s () in
  journal_replay cfg handler stats;
  let quit = ref false in
  let watching = ref false in
  let mtimes = Hashtbl.create 16 in
  let last_poll = ref 0. in
  while not (!quit || Atomic.get stop) do
    (if !watching then
       let now = Mono.now_s () in
       if now -. !last_poll >= 0.25 then begin
         last_poll := now;
         poll_watch cfg handler stats mtimes
       end);
    let live = List.filter (fun c -> not (c.c_eof || c.c_dead)) !conns in
    let rfds =
      (match listen_fd with Some l -> [ l ] | None -> [])
      @ List.map (fun c -> c.c_in) live
    in
    if rfds = [] then quit := true
    else begin
      (* the timeout bounds how stale a [stop] (SIGTERM) can go
         unnoticed; EINTR from the signal itself just re-polls *)
      let ready =
        try
          let r, _, _ = Unix.select rfds [] [] 0.25 in
          r
        with Unix.Unix_error (Unix.EINTR, _, _) -> []
      in
      (match listen_fd with
      | Some l when List.memq l ready -> (
          match Unix.accept l with
          | fd, _ -> conns := !conns @ [ mk_conn ~owned:true fd fd ]
          | exception Unix.Unix_error _ -> ())
      | _ -> ());
      List.iter (fun c -> if List.memq c.c_in ready then read_chunk c) live;
      let pending =
        List.concat_map
          (fun c ->
            if c.c_dead then []
            else
              take_lines c
              |> List.filter_map (fun line ->
                     if String.trim line = "" then None else Some (c, line)))
          !conns
      in
      if pending <> [] then process pool cfg handler stats quit watching ~t0 pending;
      conns :=
        List.filter
          (fun c ->
            if c.c_dead || (c.c_eof && Buffer.length c.c_buf = 0) then begin
              close_conn c;
              false
            end
            else true)
          !conns;
      (* on stdio/fds, end-of-input ends the daemon *)
      if listen_fd = None && !conns = [] then quit := true
    end
  done;
  stats

(* ------------------------------------------------------------------ *)
(* Supervisor                                                         *)
(* ------------------------------------------------------------------ *)

(* Worker deaths count against [max_restarts] within this sliding
   window; a restart waits [backoff_ms], doubling up to
   [backoff_max_ms]. *)
let window_s = 30.

let backoff_ms = 100.

let backoff_max_ms = 5_000.

(* OCaml signal numbers are negative for portability; name the ones a
   dying worker actually produces. *)
let signal_name s =
  if s = Sys.sigkill then "SIGKILL"
  else if s = Sys.sigsegv then "SIGSEGV"
  else if s = Sys.sigabrt then "SIGABRT"
  else if s = Sys.sigterm then "SIGTERM"
  else if s = Sys.sigint then "SIGINT"
  else if s = Sys.sigbus then "SIGBUS"
  else string_of_int s

let describe_status = function
  | Unix.WEXITED c -> Printf.sprintf "exited %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "killed by signal %s" (signal_name s)
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by signal %s" (signal_name s)

(* The self-healing wrapper around {!run}. The supervisor owns the
   listening socket: it binds and listens exactly once, then forks a
   worker that accepts on the inherited descriptor ({!Listening}).
   Because the socket outlives any worker, a client connecting while
   the worker is down does not get ECONNREFUSED — the connection sits
   in the kernel backlog until the replacement worker accepts it.

   The supervisor itself must stay fork-safe: it runs no analysis,
   spawns no domains, and allocates almost nothing. All real work —
   corpus load, pool creation, query dispatch — happens in the worker,
   after the fork. *)
let supervise ?(stop = Atomic.make false) ~max_restarts ~socket worker =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore with Invalid_argument _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink socket with Unix.Unix_error _ -> ());
  Unix.bind fd (Unix.ADDR_UNIX socket);
  Unix.listen fd 64;
  let cleanup () =
    (try Unix.close fd with Unix.Unix_error _ -> ());
    try Unix.unlink socket with Unix.Unix_error _ -> ()
  in
  Fun.protect ~finally:cleanup @@ fun () ->
  let restarts = ref 0 in
  let recent = ref [] in
  (* deaths within the window *)
  let backoff = ref backoff_ms in
  let rec loop () =
    if Atomic.get stop then 0
    else
      match Unix.fork () with
      | 0 ->
          (* the worker; exits instead of returning to the loop *)
          let code =
            try worker ~restarts:!restarts fd
            with e ->
              prerr_endline ("ptan serve worker: " ^ Printexc.to_string e);
              1
          in
          Stdlib.exit code
      | pid -> (
          let rec wait () =
            match Unix.waitpid [] pid with
            | _, st -> st
            | exception Unix.Unix_error (Unix.EINTR, _, _) ->
                (* a signal landed (SIGTERM/SIGINT set [stop]): pass
                   the shutdown on to the worker, keep waiting for it *)
                if Atomic.get stop then
                  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
                wait ()
          in
          match wait () with
          | Unix.WEXITED c when Atomic.get stop -> c
          | Unix.WEXITED 0 -> 0 (* clean [quit] — the daemon is done *)
          | st ->
              let now = Mono.now_s () in
              recent := now :: List.filter (fun t -> now -. t <= window_s) !recent;
              if List.length !recent > max_restarts then begin
                Printf.eprintf
                  "ptan serve: worker %s; %d deaths within %.0fs — giving up\n%!"
                  (describe_status st) (List.length !recent) window_s;
                1
              end
              else begin
                (* a long healthy stretch (every earlier death aged out
                   of the window) earns a fresh backoff *)
                if List.length !recent = 1 then backoff := backoff_ms;
                incr restarts;
                Printf.eprintf "ptan serve: worker %s; restart #%d in %.0fms\n%!"
                  (describe_status st) !restarts !backoff;
                Unix.sleepf (!backoff /. 1e3);
                backoff := Float.min backoff_max_ms (!backoff *. 2.);
                loop ()
              end)
  in
  loop ()
