(** Per-analysis resource governor (see guard.mli).

    A guard is a small mutable record consulted from the engine's
    fixed-point boundaries. The checks are deliberately cheap: an
    unlimited guard costs a few loads per call; a deadline costs one
    monotonic-clock read ({!Mono.now_s}) per fixpoint iteration.
    Deadlines deliberately do {e not} use [Unix.gettimeofday]: the
    system clock can step (NTP, manual changes) mid-analysis, which
    would trip a deadline spuriously or extend it indefinitely —
    fatal for a long-running {!Serve} daemon creating one guard per
    request.

    Cooperative cancellation rides on the same polling sites: a timed
    {!Pool} task, or a {!Serve} request, runs under a deadline kept in
    domain-local storage, and every {!check} — budgeted or not — reads
    it, so any analysis can be unwound without the driver knowing
    anything about guards. *)

type budget = {
  b_deadline_ms : float option;
  b_fuel : int option;
  b_max_locs : int option;
  b_max_heap_mb : int option;
}

let no_budget =
  { b_deadline_ms = None; b_fuel = None; b_max_locs = None; b_max_heap_mb = None }

let is_no_budget b =
  b.b_deadline_ms = None && b.b_fuel = None && b.b_max_locs = None
  && b.b_max_heap_mb = None

type reason = Deadline | Fuel | Size | Nodes | Heap

let reason_name = function
  | Deadline -> "deadline"
  | Fuel -> "fuel"
  | Size -> "set-size"
  | Nodes -> "ig-nodes"
  | Heap -> "heap"

type trip = {
  t_reason : reason;
  t_where : string option;  (** innermost function under evaluation *)
  t_after_ms : float;  (** elapsed wall-clock when the budget blew *)
}

exception Exhausted of trip
exception Cancelled

type t = {
  g_budget : budget;
  g_deadline : float option;  (** absolute {!Mono.now_s} bound *)
  g_t0 : float;  (** {!Mono.now_s} at creation *)
  mutable g_where : string option;
  g_heap_words : int option;  (** [b_max_heap_mb] as a word count *)
  mutable g_heap_tick : int;
      (** {!check} calls since the last heap sample — {!Gc.quick_stat}
          is cheap but not free, so the ceiling is sampled every
          [heap_sample_every] checks (the {!Gc.alarm} backstop covers
          growth between samples) *)
  g_heap_blown : bool Atomic.t;
      (** set by the {!Gc.alarm} backstop at the end of a major
          collection whose heap exceeds the ceiling; {!check} trips on
          it at the next boundary. Atomic: the alarm may run during a
          collection triggered on any domain *)
  mutable g_alarm : Gc.alarm option;
}

let heap_sample_every = 64

let heap_words_now () = (Gc.quick_stat ()).Gc.heap_words

let make_at ?(expired = false) budget =
  let now = Mono.now_s () in
  let deadline =
    match budget.b_deadline_ms with
    | None -> None
    | Some ms -> Some (if expired then now else now +. (ms /. 1e3))
  in
  let heap_words =
    Option.map (fun mb -> mb * 1024 * 1024 / (Sys.word_size / 8)) budget.b_max_heap_mb
  in
  let g =
    {
      g_budget = budget;
      g_deadline = deadline;
      g_t0 = now;
      g_where = None;
      g_heap_words = heap_words;
      g_heap_tick = 0;
      g_heap_blown = Atomic.make false;
      g_alarm = None;
    }
  in
  (match heap_words with
  | None -> ()
  | Some limit ->
      (* backstop between sampled checks: at the end of every major
         cycle, flag a blown ceiling so the next {!check} trips even if
         its sampling counter has not come around. The alarm itself
         must not raise (it runs inside the GC), so it only flips the
         flag; {!dispose} removes it *)
      g.g_alarm <-
        Some
          (Gc.create_alarm (fun () ->
               if heap_words_now () > limit then Atomic.set g.g_heap_blown true)));
  g

(** Remove the {!Gc.alarm} backstop, if any. Must be called when a
    heap-budgeted guard's analysis ends (normally or by unwinding) —
    a leaked alarm would run at every later major collection. *)
let dispose g =
  match g.g_alarm with
  | None -> ()
  | Some a ->
      g.g_alarm <- None;
      Gc.delete_alarm a

let make budget = make_at ~expired:(Fault.enabled Fault.Expired_deadline) budget

let unlimited () = make_at no_budget

let of_budget = function None -> unlimited () | Some b -> make b

(** The degradation path's guard: same wall-clock allowance, measured
    afresh, no fuel or size ceilings — the widened mode has no
    exponential context machinery for them to bound, and the deadline
    stays as the backstop. Constructed directly so the
    [Expired_deadline] injection (a request {e arriving} out of budget)
    does not also starve the fallback that answers it. *)
let widened g =
  make_at ~expired:false { no_budget with b_deadline_ms = g.g_budget.b_deadline_ms }

let budget g = g.g_budget

let limited g = not (is_no_budget g.g_budget)

let at g where = g.g_where <- Some where

let elapsed_ms g = (Mono.now_s () -. g.g_t0) *. 1e3

let trip g reason =
  raise (Exhausted { t_reason = reason; t_where = g.g_where; t_after_ms = elapsed_ms g })

(* ------------------------------------------------------------------ *)
(* Cooperative cancellation                                           *)
(* ------------------------------------------------------------------ *)

(* The {!Mono.now_s} bound of the task running on this domain;
   [infinity] when it has none. Only the owning domain reads or writes
   it, so an untimed {!check} costs one domain-local read. *)
let task_deadline : float Domain.DLS.key = Domain.DLS.new_key (fun () -> Float.infinity)

let with_task_deadline ~ms f =
  let prev = Domain.DLS.get task_deadline in
  Domain.DLS.set task_deadline (Mono.now_s () +. (ms /. 1e3));
  Fun.protect ~finally:(fun () -> Domain.DLS.set task_deadline prev) f

(* ------------------------------------------------------------------ *)
(* Checks                                                             *)
(* ------------------------------------------------------------------ *)

(* The heap ceiling, polled from {!check}: the {!Gc.alarm} flag first
   (the backstop caught a blown major heap between samples), then a
   direct sample every [heap_sample_every] calls. The {!Fault.Alloc_spike}
   injection makes every sample read an impossibly large heap, so any
   ceiling trips deterministically at the first boundary. *)
let check_heap g =
  match g.g_heap_words with
  | None -> ()
  | Some limit ->
      if Atomic.get g.g_heap_blown then trip g Heap;
      g.g_heap_tick <- g.g_heap_tick + 1;
      if g.g_heap_tick >= heap_sample_every || g.g_heap_tick = 1 then begin
        g.g_heap_tick <- if g.g_heap_tick = 1 then g.g_heap_tick else 0;
        let words =
          if Fault.enabled Fault.Alloc_spike then max_int else heap_words_now ()
        in
        if words > limit then trip g Heap
      end

let check g =
  let td = Domain.DLS.get task_deadline in
  if td < Float.infinity && Mono.now_s () >= td then raise Cancelled;
  check_heap g;
  match g.g_deadline with
  | Some d when Mono.now_s () >= d -> trip g Deadline
  | _ -> ()

let check_fuel g spent =
  match g.g_budget.b_fuel with
  | Some fuel when spent > fuel -> trip g Fuel
  | _ -> ()

let check_size g n =
  match g.g_budget.b_max_locs with
  | Some m when n > m -> trip g Size
  | _ -> ()

let check_nodes g n =
  match g.g_budget.b_max_locs with
  | Some m when n > m -> trip g Nodes
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Printing                                                           *)
(* ------------------------------------------------------------------ *)

let pp_budget ppf b =
  let parts =
    List.filter_map Fun.id
      [
        Option.map (Fmt.str "deadline %gms") b.b_deadline_ms;
        Option.map (Fmt.str "fuel %d") b.b_fuel;
        Option.map (Fmt.str "max-locs %d") b.b_max_locs;
        Option.map (Fmt.str "max-heap %dMB") b.b_max_heap_mb;
      ]
  in
  match parts with
  | [] -> Fmt.pf ppf "unlimited"
  | _ -> Fmt.pf ppf "%s" (String.concat ", " parts)

let pp_trip ppf t =
  Fmt.pf ppf "%s budget exhausted after %.1f ms%a" (reason_name t.t_reason) t.t_after_ms
    (Fmt.option (fun ppf fn -> Fmt.pf ppf " in '%s'" fn))
    t.t_where
