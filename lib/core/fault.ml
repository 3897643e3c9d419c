(** Deterministic fault injection (see fault.mli).

    Each injection point is one [Atomic.t bool]; the environment is read
    exactly once, lazily, so [PTAN_FAULTS] set before the first query
    configures a whole process (the CI chaos job) while tests flip the
    switches programmatically with {!set} / {!with_point}. The flags are
    atomics because pool workers consult them from their own domains;
    the configuration itself is expected to be quiescent while tasks
    run. *)

type point =
  | Slow_fixpoint
  | Corrupt_cache
  | Task_exn
  | Expired_deadline
  | Alloc_spike
  | Worker_kill

exception Injected of string

let point_name = function
  | Slow_fixpoint -> "slow-fixpoint"
  | Corrupt_cache -> "corrupt-cache"
  | Task_exn -> "task-exn"
  | Expired_deadline -> "expired-deadline"
  | Alloc_spike -> "alloc-spike"
  | Worker_kill -> "worker-kill"

let all_points =
  [ Slow_fixpoint; Corrupt_cache; Task_exn; Expired_deadline; Alloc_spike; Worker_kill ]

let point_of_name n = List.find_opt (fun p -> String.equal (point_name p) n) all_points

let idx = function
  | Slow_fixpoint -> 0
  | Corrupt_cache -> 1
  | Task_exn -> 2
  | Expired_deadline -> 3
  | Alloc_spike -> 4
  | Worker_kill -> 5

let flags = Array.init (List.length all_points) (fun _ -> Atomic.make false)

(* [Slow_fixpoint] scoping: when set, only fixpoints of this function
   sleep — how one pathological file is simulated inside a multi-file
   suite. *)
let fault_fn : string option Atomic.t = Atomic.make None

(* seconds slept per injected fixpoint pass *)
let fault_sleep : float Atomic.t = Atomic.make 0.05

(* The environment is read once, on first use. Not with a [lazy]: the
   pool's workers consult the flags as their first tasks start, and two
   domains forcing one suspension at once raise
   [CamlinternalLazy.Undefined]. *)
let env_read = Atomic.make false
let env_lock = Mutex.create ()

let read_env () =
  (match Sys.getenv_opt "PTAN_FAULTS" with
  | None | Some "" -> ()
  | Some spec ->
      String.split_on_char ',' spec
      |> List.iter (fun n ->
             match point_of_name (String.trim n) with
             | Some p -> Atomic.set flags.(idx p) true
             | None ->
                 (* a typo silently injecting nothing would make a chaos
                    run vacuously green; fail loudly instead *)
                 Fmt.failwith "PTAN_FAULTS: unknown injection point %S" n));
  (match Sys.getenv_opt "PTAN_FAULT_FN" with
  | None | Some "" -> ()
  | Some fn -> Atomic.set fault_fn (Some fn));
  match Sys.getenv_opt "PTAN_FAULT_SLEEP_MS" with
  | None | Some "" -> ()
  | Some ms -> (
      match float_of_string_opt ms with
      | Some ms when ms >= 0. -> Atomic.set fault_sleep (ms /. 1e3)
      | _ -> Fmt.failwith "PTAN_FAULT_SLEEP_MS: not a non-negative number: %S" ms)

let from_env () =
  if not (Atomic.get env_read) then
    Mutex.protect env_lock (fun () ->
        if not (Atomic.get env_read) then begin
          read_env ();
          Atomic.set env_read true
        end)

let enabled p =
  from_env ();
  Atomic.get flags.(idx p)

let set ?fn ?sleep_ms p v =
  from_env ();
  Atomic.set flags.(idx p) v;
  (match fn with None -> () | Some _ -> Atomic.set fault_fn fn);
  match sleep_ms with
  | None -> ()
  | Some ms -> Atomic.set fault_sleep (ms /. 1e3)

let with_point ?fn ?sleep_ms p f =
  let old_flag = enabled p in
  let old_fn = Atomic.get fault_fn in
  let old_sleep = Atomic.get fault_sleep in
  set ?fn ?sleep_ms p true;
  Fun.protect
    ~finally:(fun () ->
      Atomic.set flags.(idx p) old_flag;
      Atomic.set fault_fn old_fn;
      Atomic.set fault_sleep old_sleep)
    f

let target_fn () =
  from_env ();
  Atomic.get fault_fn

let sleep_s () =
  from_env ();
  Atomic.get fault_sleep

(** The slow-fixpoint site, called by the engine once per body pass of a
    context-sensitive node evaluation: sleeps when the injection is on
    and [fn] matches the configured target (or no target is set). *)
let maybe_slow_fixpoint ~fn =
  if enabled Slow_fixpoint then
    match target_fn () with
    | Some target when not (String.equal target fn) -> ()
    | _ -> Unix.sleepf (sleep_s ())

(** The task-exception site, called by the pool before running each
    task. *)
let maybe_task_exn () =
  if enabled Task_exn then raise (Injected "task-exn")

(* [Worker_kill] arming: when [PTAN_FAULT_KILL_FILE] names a path, the
   injection fires only while that file exists, and consumes it
   (unlink) on firing — so a test controls exactly which request dies
   across worker restarts, which would otherwise re-read the same
   environment and die forever. Without an arm file the kill is
   unconditional. *)
let kill_file =
  (* an eager read: the variable is only consulted when the injection
     is already on *)
  match Sys.getenv_opt "PTAN_FAULT_KILL_FILE" with None | Some "" -> None | Some p -> Some p

(** The worker-kill site, called by {!Serve} as a request batch starts:
    SIGKILL the current process — an OOM-killed or crashed daemon
    worker, as seen by its supervisor. *)
let maybe_worker_kill () =
  if enabled Worker_kill then
    let armed =
      match kill_file with
      | None -> true
      | Some p ->
          if Sys.file_exists p then begin
            (try Sys.remove p with Sys_error _ -> ());
            true
          end
          else false
    in
    if armed then Unix.kill (Unix.getpid ()) Sys.sigkill

(** The cache-corruption site: flip one byte in the middle of [file]
    when the injection is on. Called by a {!Persist} cache save after
    the atomic rename, so a corrupt entry looks exactly like torn storage
    under a complete, well-formed name. *)
let maybe_corrupt_file file =
  if enabled Corrupt_cache then begin
    let data = In_channel.with_open_bin file In_channel.input_all in
    let n = String.length data in
    if n > 0 then begin
      let b = Bytes.of_string data in
      let i = n / 2 in
      Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
      Out_channel.with_open_bin file (fun oc -> Out_channel.output_bytes oc b)
    end
  end
