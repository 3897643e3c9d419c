(** Harness spans: the benchmark's own record of where a run's time
    went, taken around its calls into each layer of [ptan] — the
    program itself is not instrumented for this. A span has a name, a
    start and an end on the monotonic clock the program's {!Trace}
    sink also uses, the span that encloses it on its domain, and the id
    of the operation it belongs to. Spans are kept in memory and only
    recorded while {!on} is set (the traced run). *)

module Mono = Pointsto.Mono
module Trace = Pointsto.Trace

type t = { id : int; name : string; parent : int; op : int; dom : int; t0 : float; t1 : float }

let enabled = Atomic.make false
let on () = Atomic.get enabled
let set_on b = Atomic.set enabled b
let next_id = Atomic.make 0

(** One domain's spans, in flat arrays (a traced daemon run records
    about a million): written only by that domain, read only once it
    has stopped recording. *)
type buf = {
  bdom : int;
  mutable len : int;
  mutable ids : int array;
  mutable names : string array;
  mutable parents : int array;
  mutable ops : int array;
  mutable t0s : float array;
  mutable t1s : float array;
  mutable parent : int;  (** innermost open span *)
  mutable op : int;  (** current operation *)
}

let lock = Mutex.create ()
let bufs : buf list ref = ref []

let dkey =
  Domain.DLS.new_key (fun () ->
      let b =
        {
          bdom = (Domain.self () :> int);
          len = 0;
          ids = [||];
          names = [||];
          parents = [||];
          ops = [||];
          t0s = [||];
          t1s = [||];
          parent = -1;
          op = -1;
        }
      in
      Mutex.lock lock;
      bufs := b :: !bufs;
      Mutex.unlock lock;
      b)

let push b ~id ~name ~parent ~t0 ~t1 =
  if b.len = Array.length b.ids then begin
    let grow a fill = Array.append a (Array.make (max 1024 (Array.length a)) fill) in
    b.ids <- grow b.ids 0;
    b.names <- grow b.names "";
    b.parents <- grow b.parents 0;
    b.ops <- grow b.ops 0;
    b.t0s <- grow b.t0s 0.;
    b.t1s <- grow b.t1s 0.
  end;
  let i = b.len in
  b.ids.(i) <- id;
  b.names.(i) <- name;
  b.parents.(i) <- parent;
  b.ops.(i) <- b.op;
  b.t0s.(i) <- t0;
  b.t1s.(i) <- t1;
  b.len <- i + 1

(** Run [f] inside a span named [name]. *)
let with_ name f =
  if not (on ()) then f ()
  else begin
    let b = Domain.DLS.get dkey in
    let id = Atomic.fetch_and_add next_id 1 in
    let parent = b.parent in
    b.parent <- id;
    let t0 = Mono.now_s () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Mono.now_s () in
        b.parent <- parent;
        push b ~id ~name ~parent ~t0 ~t1)
      f
  end

(** Run [f] as operation [op]: spans opened inside carry its id. *)
let with_op op f =
  let b = Domain.DLS.get dkey in
  let saved = b.op in
  b.op <- op;
  Fun.protect ~finally:(fun () -> b.op <- saved) f

let all_bufs () =
  Mutex.lock lock;
  let l = !bufs in
  Mutex.unlock lock;
  l

let clear () = List.iter (fun b -> b.len <- 0) (all_bufs ())

(** [f name domain t0 t1] on every recorded span. *)
let iter f =
  List.iter
    (fun b ->
      for i = 0 to b.len - 1 do
        f b.names.(i) b.bdom b.t0s.(i) b.t1s.(i)
      done)
    (all_bufs ())

let count () = List.fold_left (fun acc b -> acc + b.len) 0 (all_bufs ())

(** Up to [cap] recorded spans, for export. *)
let sample ~cap =
  let out = ref [] and n = ref 0 in
  List.iter
    (fun b ->
      for i = 0 to b.len - 1 do
        if !n < cap then begin
          incr n;
          out :=
            {
              id = b.ids.(i);
              name = b.names.(i);
              parent = b.parents.(i);
              op = b.ops.(i);
              dom = b.bdom;
              t0 = b.t0s.(i);
              t1 = b.t1s.(i);
            }
            :: !out
        end
      done)
    (all_bufs ());
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Layers and self time                                               *)
(* ------------------------------------------------------------------ *)

(** The layer a harness span's time belongs to. Spans wrapping a call
    into a module are named after it; the rest (["op"], ["gen"],
    ["check"], the daemon's client side) are the harness's own time. *)
let layer_of_name = function
  | "cfront.parse" -> "cfront"
  | "simplify.lower" -> "simplify"
  | "analysis.analyze" -> "engine.driver"
  | "persist.analyze_cached" -> "persist"
  | "demand.prepare" -> "demand.prepare"
  | "demand.analyze" -> "demand.driver"
  | "query.answer" -> "query"
  | "pool.map" -> "pool.wait"
  | "serve.run" -> "serve.loop"
  | _ -> "harness"

(** The layer of one of the program's own {!Trace} spans. *)
let layer_of_kind = function
  | Trace.Analysis | Trace.Demand | Trace.Widen | Trace.Checkpoint | Trace.Oom -> "engine.driver"
  | Trace.Node -> "engine.node"
  | Trace.Body -> "engine.body"
  | Trace.Loop -> "engine.loop"
  | Trace.Map -> "map_unmap.map"
  | Trace.Unmap -> "map_unmap.unmap"
  | Trace.Cache_load -> "persist.load"
  | Trace.Cache_store -> "persist.store"
  | Trace.Dirty -> "persist.dirty"
  | Trace.Replay -> "persist.replay"
  | Trace.Task -> "pool.task"
  | Trace.Request -> "serve.request"
  | Trace.Slice -> "demand.plan"

(** Self seconds per layer over the window [w0, w1]: each span's
    duration minus the part of it its directly nested spans cover,
    nesting recovered per domain from the intervals (spans on one
    domain nest properly, whichever source recorded them). The spans
    are held in flat arrays: a traced daemon run records millions. *)
let self_times ~w0 ~w1 ~program =
  let layers = Hashtbl.create 32 in
  let layer_id l =
    match Hashtbl.find_opt layers l with
    | Some i -> i
    | None ->
        let i = Hashtbl.length layers in
        Hashtbl.replace layers l i;
        i
  in
  let cap = count () + List.length program in
  let layer = Array.make cap 0 and dom = Array.make cap 0 in
  let s0 = Array.make cap 0. and s1 = Array.make cap 0. in
  let n = ref 0 in
  let add l d t0 t1 =
    let a = Float.max t0 w0 and b = Float.min t1 w1 in
    if b > a then begin
      layer.(!n) <- layer_id l;
      dom.(!n) <- d;
      s0.(!n) <- a;
      s1.(!n) <- b;
      incr n
    end
  in
  iter (fun name d t0 t1 -> add (layer_of_name name) d t0 t1);
  List.iter
    (fun (s : Trace.span) ->
      add (layer_of_kind s.Trace.sp_kind) s.Trace.sp_dom s.Trace.sp_t0 s.Trace.sp_t1)
    program;
  let order = Array.init !n Fun.id in
  Array.sort
    (fun x y ->
      match compare dom.(x) dom.(y) with
      | 0 -> ( match Float.compare s0.(x) s0.(y) with 0 -> Float.compare s1.(y) s1.(x) | c -> c)
      | c -> c)
    order;
  let self = Array.make (Hashtbl.length layers) 0. in
  (* stack of (enclosing span, its self time so far) *)
  let stack = ref [] in
  let close (i, t) = self.(layer.(i)) <- self.(layer.(i)) +. t in
  Array.iter
    (fun i ->
      let rec unwind () =
        match !stack with
        | ((top, _) as e) :: rest when s1.(top) <= s0.(i) || dom.(top) <> dom.(i) ->
            close e;
            stack := rest;
            unwind ()
        | _ -> ()
      in
      unwind ();
      (match !stack with
      | (top, t) :: rest -> stack := (top, t -. (s1.(i) -. s0.(i))) :: rest
      | [] -> ());
      stack := (i, s1.(i) -. s0.(i)) :: !stack)
    order;
  List.iter close !stack;
  let tbl = Hashtbl.create 32 in
  Hashtbl.iter (fun l i -> Hashtbl.replace tbl l self.(i)) layers;
  tbl

(** The harness spans as JSON: name, start and end (seconds from
    [base]), parent id and op id. *)
let to_json ~base spans =
  Json.Arr
    (List.map
       (fun s ->
         Json.Obj
           [
             ("id", Json.Num (float_of_int s.id));
             ("name", Json.Str s.name);
             ("start_s", Json.Num (s.t0 -. base));
             ("end_s", Json.Num (s.t1 -. base));
             ("parent", Json.Num (float_of_int s.parent));
             ("op", Json.Num (float_of_int s.op));
             ("domain", Json.Num (float_of_int s.dom));
           ])
       spans)
