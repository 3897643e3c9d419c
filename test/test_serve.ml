(** Tests for {!Pointsto.Serve}, the resident daemon core: protocol
    parsing, per-connection line framing, reply ordering, admission
    control ([busy]), per-request deadlines (a tripped request is an
    [error] reply, never a dead daemon), and the Unix-socket transport
    with concurrent clients answered bit-identically to cold
    {!Alias.Query.run} calls. *)

open Test_util
module Serve = Pointsto.Serve
module Guard = Pointsto.Guard
module Fault = Pointsto.Fault

(* ------------------------------------------------------------------ *)
(* Harness: drive the daemon in-process over a pipe pair              *)
(* ------------------------------------------------------------------ *)

(** A handler that needs no analysis at all — protocol tests care about
    framing and dispatch, not answers. *)
let echo_handler =
  {
    Serve.h_files = [ "f" ];
    Serve.h_answer = (fun ~file:_ ~query -> Serve.Ans ("echo " ^ query));
    Serve.h_reload = None;
    Serve.h_paths = [];
  }

let write_all fd s =
  let n = String.length s in
  let rec go off = if off < n then go (off + Unix.write_substring fd s off (n - off)) in
  go 0

(** Spawn the daemon on a pipe pair and hand [f] the request fd and a
    reply channel; closing the request fd (done here after [f]) is the
    daemon's end-of-input. Returns (f's result, final stats). *)
let with_daemon ?(cfg = Serve.default_config) ?(handler = echo_handler) f =
  let req_r, req_w = Unix.pipe () in
  let rep_r, rep_w = Unix.pipe () in
  let daemon =
    Domain.spawn (fun () -> Serve.run cfg handler (Serve.Fds (req_r, rep_w)))
  in
  let ic = Unix.in_channel_of_descr rep_r in
  let v = f req_w ic in
  (try Unix.close req_w with Unix.Unix_error _ -> ());
  let stats = Domain.join daemon in
  List.iter Unix.close [ req_r; rep_w; rep_r ];
  (v, stats)

(** One request, one reply. *)
let round_trip req_w ic line =
  write_all req_w (line ^ "\n");
  input_line ic

(* ------------------------------------------------------------------ *)
(* parse_request                                                      *)
(* ------------------------------------------------------------------ *)

let parse_tests =
  let ok = Alcotest.(check bool) "parses" true in
  let err = Alcotest.(check bool) "rejected" true in
  [
    case "well-formed requests parse" (fun () ->
        ok (Serve.parse_request "ping" = Ok Serve.Ping);
        ok (Serve.parse_request "files" = Ok Serve.Files);
        ok (Serve.parse_request "stats" = Ok Serve.Stats);
        ok (Serve.parse_request "health" = Ok Serve.Health);
        ok (Serve.parse_request "quit" = Ok Serve.Quit);
        ok (Serve.parse_request "watch" = Ok Serve.Watch);
        ok (Serve.parse_request "reload hash" = Ok (Serve.Reload "hash"));
        ok
          (Serve.parse_request "q hash pts main s1 p"
          = Ok (Serve.Query { file = "hash"; query = "pts main s1 p" })));
    case "whitespace is collapsed, tabs accepted" (fun () ->
        ok
          (Serve.parse_request "q  hash \t pts  main s1 p"
          = Ok (Serve.Query { file = "hash"; query = "pts main s1 p" })));
    case "malformed requests are rejected with a reason" (fun () ->
        err (Result.is_error (Serve.parse_request ""));
        err (Result.is_error (Serve.parse_request "   "));
        err (Result.is_error (Serve.parse_request "q"));
        err (Result.is_error (Serve.parse_request "q onlyfile"));
        err (Result.is_error (Serve.parse_request "reload"));
        err (Result.is_error (Serve.parse_request "frobnicate x y")));
  ]

(* ------------------------------------------------------------------ *)
(* Protocol over pipes                                                *)
(* ------------------------------------------------------------------ *)

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.equal (String.sub hay i nn) needle || go (i + 1)) in
  go 0

let protocol_tests =
  [
    case "ping, files and query round-trip in order" (fun () ->
        let replies, stats =
          with_daemon (fun req_w ic ->
              write_all req_w "ping\nfiles\nq f pts main s1 p\n";
              List.init 3 (fun _ -> input_line ic))
        in
        Alcotest.(check (list string))
          "replies"
          [ "ok pong"; "ok 1 f"; "ok echo pts main s1 p" ]
          replies;
        Alcotest.(check int) "requests counted" 3 stats.Serve.s_requests;
        Alcotest.(check int) "all ok" 3 stats.Serve.s_ok);
    case "a malformed line gets an error reply; the daemon lives on" (fun () ->
        let replies, stats =
          with_daemon (fun req_w ic ->
              [
                round_trip req_w ic "frobnicate";
                round_trip req_w ic "q";
                round_trip req_w ic "ping";
              ])
        in
        (match replies with
        | [ e1; e2; ok ] ->
            Alcotest.(check bool) "error 1" true (starts_with "error " e1);
            Alcotest.(check bool) "error 2" true (starts_with "error " e2);
            Alcotest.(check string) "still serving" "ok pong" ok
        | _ -> Alcotest.fail "wrong arity");
        Alcotest.(check int) "errors counted" 2 stats.Serve.s_errors);
    case "a raising handler is an error reply, not a dead daemon" (fun () ->
        let boom =
          {
            Serve.h_files = [ "f" ];
            Serve.h_answer =
              (fun ~file:_ ~query ->
                if String.equal query "boom" then failwith "handler exploded"
                else Serve.Ans "fine");
            Serve.h_reload = None;
            Serve.h_paths = [];
          }
        in
        let replies, _ =
          with_daemon ~handler:boom (fun req_w ic ->
              [ round_trip req_w ic "q f boom"; round_trip req_w ic "q f ok" ])
        in
        match replies with
        | [ e; ok ] ->
            Alcotest.(check bool) "folded to error" true (starts_with "error " e);
            Alcotest.(check string) "daemon alive" "ok fine" ok
        | _ -> Alcotest.fail "wrong arity");
    case "CRLF and split writes frame correctly; empty lines ignored" (fun () ->
        let replies, stats =
          with_daemon (fun req_w ic ->
              write_all req_w "ping\r\n\n\npi";
              let first = input_line ic in
              Unix.sleepf 0.02;
              write_all req_w "ng\n";
              [ first; input_line ic ])
        in
        Alcotest.(check (list string)) "both pongs" [ "ok pong"; "ok pong" ] replies;
        Alcotest.(check int) "empty lines not counted" 2 stats.Serve.s_requests);
    case "stats reports counters and counts itself" (fun () ->
        let reply, _ =
          with_daemon (fun req_w ic ->
              ignore (round_trip req_w ic "ping");
              round_trip req_w ic "stats")
        in
        Alcotest.(check bool) "shape" true (starts_with "ok requests=2 " reply));
    case "quit replies ok bye and stops the daemon" (fun () ->
        let reply, stats = with_daemon (fun req_w ic -> round_trip req_w ic "quit") in
        Alcotest.(check string) "bye" "ok bye" reply;
        Alcotest.(check int) "one request" 1 stats.Serve.s_requests);
    case "health reports uptime, restarts, heap and queue depth" (fun () ->
        let reply, _ = with_daemon (fun req_w ic -> round_trip req_w ic "health") in
        Alcotest.(check bool) "shape" true (starts_with "ok uptime-ms=" reply);
        Alcotest.(check bool) "restarts" true (contains reply " restarts=0 ");
        Alcotest.(check bool) "heap sample" true (contains reply " heap-mb=");
        Alcotest.(check bool) "queue depth" true (contains reply " queue-depth=1"));
    case "health echoes the supervisor's restart count from the config" (fun () ->
        let cfg = { Serve.default_config with Serve.restarts = 7 } in
        let reply, _ = with_daemon ~cfg (fun req_w ic -> round_trip req_w ic "health") in
        Alcotest.(check bool) "restarts=7" true (contains reply " restarts=7 "));
    case "a degraded corpus entry is flagged in the reply" (fun () ->
        let h =
          {
            Serve.h_files = [ "f" ];
            Serve.h_answer = (fun ~file:_ ~query:_ -> Serve.Ans_degraded "wide answer");
            Serve.h_reload = None;
            Serve.h_paths = [];
          }
        in
        let reply, stats =
          with_daemon ~handler:h (fun req_w ic -> round_trip req_w ic "q f x")
        in
        Alcotest.(check string) "degraded reply" "degraded wide answer" reply;
        Alcotest.(check int) "counted" 1 stats.Serve.s_degraded);
    case "a newline in an answer cannot break the framing" (fun () ->
        let h =
          {
            Serve.h_files = [ "f" ];
            Serve.h_answer = (fun ~file:_ ~query:_ -> Serve.Ans "two\nlines");
            Serve.h_reload = None;
            Serve.h_paths = [];
          }
        in
        let replies, _ =
          with_daemon ~handler:h (fun req_w ic ->
              [ round_trip req_w ic "q f x"; round_trip req_w ic "ping" ])
        in
        Alcotest.(check (list string)) "sanitized" [ "ok two lines"; "ok pong" ] replies);
  ]

(* ------------------------------------------------------------------ *)
(* Reload and watch                                                   *)
(* ------------------------------------------------------------------ *)

let reload_tests =
  [
    case "reload swaps the corpus entry in place" (fun () ->
        (* the handler answers from mutable state only reload changes:
           the reply sequence proves the swap happened between batches *)
        let version = Atomic.make "v1" in
        let h =
          {
            Serve.h_files = [ "f" ];
            Serve.h_answer = (fun ~file:_ ~query:_ -> Serve.Ans (Atomic.get version));
            Serve.h_reload =
              Some
                (fun ~file ->
                  if String.equal file "f" then begin
                    Atomic.set version "v2";
                    Ok "swapped f"
                  end
                  else Error ("unknown file '" ^ file ^ "'"));
            Serve.h_paths = [];
          }
        in
        let replies, stats =
          with_daemon ~handler:h (fun req_w ic ->
              let before = round_trip req_w ic "q f x" in
              let rel = round_trip req_w ic "reload f" in
              let after = round_trip req_w ic "q f x" in
              let unknown = round_trip req_w ic "reload g" in
              [ before; rel; after; unknown ])
        in
        (match replies with
        | [ before; rel; after; unknown ] ->
            Alcotest.(check string) "before" "ok v1" before;
            Alcotest.(check string) "reload reply" "ok swapped f" rel;
            Alcotest.(check string) "after" "ok v2" after;
            Alcotest.(check bool) "unknown file" true (starts_with "error " unknown)
        | _ -> Alcotest.fail "wrong arity");
        Alcotest.(check int) "one successful reload" 1 stats.Serve.s_reloads);
    case "successful reloads are journaled; a fresh daemon replays them" (fun () ->
        (* model of a supervised worker crash: daemon 1 serves a reload
           and dies (end-of-input); daemon 2 starts with the same
           journal and must replay the reload before serving *)
        let journal = Filename.temp_file "ptan-serve" ".journal" in
        Sys.remove journal;
        Fun.protect
          ~finally:(fun () -> if Sys.file_exists journal then Sys.remove journal)
          (fun () ->
            let reloaded = ref [] in
            let h =
              {
                Serve.h_files = [ "f"; "g" ];
                Serve.h_answer = (fun ~file:_ ~query:_ -> Serve.Ans "x");
                Serve.h_reload =
                  Some
                    (fun ~file ->
                      reloaded := file :: !reloaded;
                      Ok ("swapped " ^ file));
                Serve.h_paths = [];
              }
            in
            let cfg = { Serve.default_config with Serve.journal = Some journal } in
            let replies, stats1 =
              with_daemon ~cfg ~handler:h (fun req_w ic ->
                  [
                    round_trip req_w ic "reload f";
                    round_trip req_w ic "reload g";
                    round_trip req_w ic "reload f";
                  ])
            in
            Alcotest.(check (list string))
              "reload replies"
              [ "ok swapped f"; "ok swapped g"; "ok swapped f" ]
              replies;
            Alcotest.(check int) "three reloads served" 3 stats1.Serve.s_reloads;
            (* the replacement daemon: no requests at all, yet it must
               have replayed each journaled file exactly once *)
            reloaded := [];
            let _, stats2 = with_daemon ~cfg ~handler:h (fun _ _ -> ()) in
            Alcotest.(check int) "replayed on boot" 2 stats2.Serve.s_reloads;
            Alcotest.(check (list string))
              "each file once, first-reload order" [ "f"; "g" ]
              (List.rev !reloaded)));
    case "reload and watch without h_reload are errors, not crashes" (fun () ->
        let replies, stats =
          with_daemon (fun req_w ic ->
              [
                round_trip req_w ic "reload f";
                round_trip req_w ic "watch";
                round_trip req_w ic "ping";
              ])
        in
        (match replies with
        | [ r; w; p ] ->
            Alcotest.(check bool) "reload refused" true (starts_with "error " r);
            Alcotest.(check bool) "watch refused" true (starts_with "error " w);
            Alcotest.(check string) "still serving" "ok pong" p
        | _ -> Alcotest.fail "wrong arity");
        Alcotest.(check int) "no reload counted" 0 stats.Serve.s_reloads);
    case "watch auto-reloads when a corpus source's mtime changes" (fun () ->
        let tmp = Filename.temp_file "ptan-watch" ".c" in
        Fun.protect
          ~finally:(fun () -> try Sys.remove tmp with Sys_error _ -> ())
          (fun () ->
            let reloaded = Atomic.make 0 in
            let h =
              {
                Serve.h_files = [ "f" ];
                Serve.h_answer = (fun ~file:_ ~query:_ -> Serve.Ans "x");
                Serve.h_reload =
                  Some
                    (fun ~file ->
                      Atomic.incr reloaded;
                      Ok ("reloaded " ^ file));
                Serve.h_paths = [ ("f", tmp) ];
              }
            in
            let (), stats =
              with_daemon ~handler:h (fun req_w ic ->
                  let r = round_trip req_w ic "watch" in
                  Alcotest.(check string) "watching" "ok watching 1 files" r;
                  (* let the baseline poll record the current mtime,
                     then move it and wait for the next poll to notice *)
                  Unix.sleepf 0.4;
                  let future = Unix.gettimeofday () +. 60. in
                  Unix.utimes tmp future future;
                  let rec wait n =
                    if Atomic.get reloaded = 0 && n > 0 then begin
                      Unix.sleepf 0.1;
                      wait (n - 1)
                    end
                  in
                  wait 30)
            in
            Alcotest.(check int) "one auto-reload" 1 stats.Serve.s_reloads));
  ]

(* ------------------------------------------------------------------ *)
(* Admission control and per-request deadlines                        *)
(* ------------------------------------------------------------------ *)

let robustness_tests =
  [
    case "a flood beyond queue_max is shed with busy replies" (fun () ->
        (* all lines are in the pipe before the daemon's first read, so
           they arrive as one batch: 1 admitted, 2 shed, in order *)
        let cfg = { Serve.default_config with Serve.queue_max = 1 } in
        let replies, stats =
          with_daemon ~cfg (fun req_w ic ->
              write_all req_w "q f a\nq f b\nq f c\n";
              List.init 3 (fun _ -> input_line ic))
        in
        (match replies with
        | [ ok; b1; b2 ] ->
            Alcotest.(check string) "first admitted" "ok echo a" ok;
            Alcotest.(check bool) "second shed" true (starts_with "busy " b1);
            Alcotest.(check bool) "third shed" true (starts_with "busy " b2);
            (* the shed replies carry a retry hint derived from the
               shedding batch's own latency, and it is at least 1 ms so
               an obedient client never busy-loops *)
            Alcotest.(check bool) "retry hint present" true
              (starts_with "busy retry-after-ms=" b1);
            let hint =
              let rest =
                String.sub b1 (String.length "busy retry-after-ms=")
                  (String.length b1 - String.length "busy retry-after-ms=")
              in
              int_of_string (List.hd (String.split_on_char ' ' rest))
            in
            Alcotest.(check bool) "hint is positive" true (hint >= 1)
        | _ -> Alcotest.fail "wrong arity");
        Alcotest.(check int) "shed counted" 2 stats.Serve.s_shed;
        Alcotest.(check int) "all requests counted" 3 stats.Serve.s_requests);
    case "an expired per-request deadline is an error reply, then service resumes"
      (fun () ->
        let cfg = { Serve.default_config with Serve.request_deadline_ms = Some 10_000. } in
        let replies, stats =
          with_daemon ~cfg (fun req_w ic ->
              let tripped =
                Fault.with_point Fault.Expired_deadline (fun () -> round_trip req_w ic "q f a")
              in
              [ tripped; round_trip req_w ic "q f b" ])
        in
        (match replies with
        | [ e; ok ] ->
            Alcotest.(check bool) "deadline trip reported" true (starts_with "error " e);
            Alcotest.(check string) "daemon survived the trip" "ok echo b" ok
        | _ -> Alcotest.fail "wrong arity");
        Alcotest.(check int) "one error" 1 stats.Serve.s_errors;
        Alcotest.(check int) "one ok" 1 stats.Serve.s_ok);
    case "a slow request is cut at its deadline, then service resumes" (fun () ->
        (* the handler polls a guard for up to 5 s, as an analysis
           does: the 50 ms request deadline must end it at a poll *)
        let slow ~file:_ ~query =
          let g = Guard.unlimited () in
          let t0 = Unix.gettimeofday () in
          while query = "slow" && Unix.gettimeofday () -. t0 < 5. do
            Guard.check g;
            Unix.sleepf 0.002
          done;
          Serve.Ans ("echo " ^ query)
        in
        let handler = { echo_handler with Serve.h_answer = slow } in
        let cfg = { Serve.default_config with Serve.request_deadline_ms = Some 50. } in
        let (cut, ms, next), stats =
          with_daemon ~cfg ~handler (fun req_w ic ->
              let t0 = Unix.gettimeofday () in
              let cut = round_trip req_w ic "q f slow" in
              let ms = (Unix.gettimeofday () -. t0) *. 1e3 in
              (cut, ms, round_trip req_w ic "q f b"))
        in
        Alcotest.(check bool) ("deadline reply: " ^ cut) true (starts_with "error deadline " cut);
        Alcotest.(check bool) (Printf.sprintf "cut within 1 s (%.0f ms)" ms) true (ms < 1000.);
        Alcotest.(check string) "the connection still answers" "ok echo b" next;
        Alcotest.(check int) "one error" 1 stats.Serve.s_errors);
  ]

(* ------------------------------------------------------------------ *)
(* Socket transport: concurrent clients, bit-identity                 *)
(* ------------------------------------------------------------------ *)

let fixture_src =
  {|int g1; int g2;
    void set(int **q, int *v) { *q = v; }
    int main() {
      int *p; int *r;
      p = &g1;
      set(&p, &g2);
      r = p;
      return 0;
    }|}

(** A mixed workload against the fixture: valid pts/alias/calls
    queries, plus malformed ones — each paired with the reply a cold
    {!Alias.Query.run} implies. *)
let fixture_workload r =
  let qs =
    [
      "pts main s1 p";
      "pts main s2 p";
      "pts main s3 r";
      "alias main s3 p r";
      "calls s2";
      "pts set s1 q";
      "pts main s1 nosuchvar";
      "utter garbage";
    ]
  in
  List.map
    (fun q ->
      let expect =
        match Alias.Query.run r q with Ok a -> "ok " ^ a | Error e -> "error " ^ e
      in
      ("q prog " ^ q, expect))
    qs

let socket_tests =
  [
    case "concurrent socket clients get ordered, bit-identical replies" (fun () ->
        let r = analyze fixture_src in
        let handler =
          {
            Serve.h_files = [ "prog" ];
            Serve.h_answer =
              (fun ~file ~query ->
                if not (String.equal file "prog") then Serve.Ans_error "unknown file"
                else
                  match Alias.Query.run r query with
                  | Ok a -> Serve.Ans a
                  | Error e -> Serve.Ans_error e);
            Serve.h_reload = None;
            Serve.h_paths = [];
          }
        in
        let path = Filename.temp_file "ptan-serve" ".sock" in
        Sys.remove path;
        let stop = Atomic.make false in
        let cfg = { Serve.default_config with Serve.jobs = 2; queue_max = 4096 } in
        let daemon =
          Domain.spawn (fun () -> Serve.run ~stop cfg handler (Serve.Socket path))
        in
        let rec await n =
          if Sys.file_exists path then ()
          else if n = 0 then Alcotest.fail "socket never appeared"
          else begin
            Unix.sleepf 0.01;
            await (n - 1)
          end
        in
        await 500;
        let workload = fixture_workload r in
        (* each client sends the workload many times; replies must come
           back in its own request order whatever the interleaving *)
        let reps = 30 in
        let client () =
          Domain.spawn (fun () ->
              let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
              Unix.connect fd (Unix.ADDR_UNIX path);
              let lines =
                List.concat (List.init reps (fun _ -> List.map fst workload))
              in
              write_all fd (String.concat "" (List.map (fun l -> l ^ "\n") lines));
              let ic = Unix.in_channel_of_descr fd in
              let replies = List.init (List.length lines) (fun _ -> input_line ic) in
              Unix.close fd;
              replies)
        in
        let c1 = client () and c2 = client () in
        let r1 = Domain.join c1 and r2 = Domain.join c2 in
        Atomic.set stop true;
        let stats = Domain.join daemon in
        let expected = List.concat (List.init reps (fun _ -> List.map snd workload)) in
        List.iter
          (fun replies ->
            List.iteri
              (fun i got ->
                let want = List.nth expected i in
                if not (String.equal got want) then
                  Alcotest.failf "reply %d: got %S, want %S (not bit-identical)" i got want)
              replies)
          [ r1; r2 ];
        Alcotest.(check int)
          "every request of both clients served"
          (2 * reps * List.length workload)
          stats.Serve.s_requests;
        Alcotest.(check int) "nothing shed" 0 stats.Serve.s_shed;
        Alcotest.(check bool) "socket unlinked on shutdown" false (Sys.file_exists path));
  ]

let suite =
  ("serve", parse_tests @ protocol_tests @ reload_tests @ robustness_tests @ socket_tests)
