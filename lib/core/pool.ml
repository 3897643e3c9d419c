(** Fixed-size domain pool (see pool.mli).

    One mutex guards the queue, the shutdown flag and each call's
    completion counter. Workers block on [nonempty]; the caller of
    [run_list] both feeds the queue and drains it, then blocks on a
    per-call condition until the last task (wherever it ran) reports
    completion.

    Timeouts need no domain of their own: a timed task runs under a
    {!Guard.with_task_deadline} set when it starts, on whichever domain
    runs it, and the analysis reads that deadline at its next
    {!Guard.check}. The pool spawns its [jobs - 1] workers and nothing
    else, however many timed calls it serves. *)

type t = {
  jobs : int;
  mutex : Mutex.t;
  nonempty : Condition.t;
  queue : (unit -> unit) Queue.t;
  mutable shutting_down : bool;
  mutable workers : unit Domain.t list;
}

let jobs t = t.jobs

let worker t () =
  let rec next () =
    match Queue.take_opt t.queue with
    | Some task ->
        Mutex.unlock t.mutex;
        Some task
    | None ->
        if t.shutting_down then begin
          Mutex.unlock t.mutex;
          None
        end
        else begin
          Condition.wait t.nonempty t.mutex;
          next ()
        end
  in
  let rec loop () =
    Mutex.lock t.mutex;
    match next () with
    | Some task ->
        task ();
        loop ()
    | None -> ()
  in
  loop ()

let create ~jobs =
  let jobs = max 1 jobs in
  let t =
    {
      jobs;
      mutex = Mutex.create ();
      nonempty = Condition.create ();
      queue = Queue.create ();
      shutting_down = false;
      workers = [];
    }
  in
  (* the caller participates in run_list, so [jobs] concurrency needs
     only [jobs - 1] spawned domains *)
  if jobs > 1 then
    t.workers <- List.init (jobs - 1) (fun _ -> Domain.spawn (worker t));
  t

(* Trace each task as a span on the domain that ran it, so pool
   scheduling is visible on the timeline. *)
let traced f () =
  let tr0 = Trace.start () in
  let finally () = if Trace.on () then Trace.emit Trace.Task ~name:"pool-task" ~t0:tr0 () in
  Fun.protect ~finally f

(* Run one task, under its deadline when the call is timed, and fold
   any exception — injected, cancellation, or the task's own — into
   [Error]. An untimed task leaves the running domain's deadline as it
   found it. *)
let exec ?timeout_ms f =
  let run () =
    try
      Fault.maybe_task_exn ();
      Ok (traced f ())
    with e -> Error e
  in
  match timeout_ms with None -> run () | Some ms -> Guard.with_task_deadline ~ms run

let run_list ?timeout_ms t tasks =
  match tasks with
  | [] -> []
  | _ when t.jobs = 1 -> List.map (exec ?timeout_ms) tasks
  | _ ->
      let n = List.length tasks in
      let results = Array.make n None in
      let remaining = ref n in
      let all_done = Condition.create () in
      let wrap i f () =
        let r = exec ?timeout_ms f in
        Mutex.lock t.mutex;
        results.(i) <- Some r;
        decr remaining;
        if !remaining = 0 then Condition.broadcast all_done;
        Mutex.unlock t.mutex
      in
      Mutex.lock t.mutex;
      List.iteri (fun i f -> Queue.push (wrap i f) t.queue) tasks;
      Condition.broadcast t.nonempty;
      (* drain alongside the workers, then wait for the stragglers *)
      let rec drive () =
        if !remaining = 0 then Mutex.unlock t.mutex
        else
          match Queue.take_opt t.queue with
          | Some task ->
              Mutex.unlock t.mutex;
              task ();
              Mutex.lock t.mutex;
              drive ()
          | None ->
              Condition.wait all_done t.mutex;
              drive ()
      in
      drive ();
      Array.to_list results |> List.map (function Some r -> r | None -> assert false)

let map_result ?timeout_ms t f xs =
  run_list ?timeout_ms t (List.map (fun x () -> f x) xs)

let map t f xs =
  List.map (function Ok y -> y | Error e -> raise e) (map_result t f xs)

let shutdown t =
  Mutex.lock t.mutex;
  t.shutting_down <- true;
  Condition.broadcast t.nonempty;
  Mutex.unlock t.mutex;
  List.iter Domain.join t.workers;
  t.workers <- []

let with_pool ~jobs f =
  let t = create ~jobs in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> f t)
