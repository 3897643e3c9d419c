(** The host's speed, so that timings measure [ptan] and not its
    neighbours.

    The benchmark runs on a shared host. For seconds to minutes at a
    time it runs everything 1.3 to 1.7 times slower than at its best,
    with CPU time growing as much as wall time: the cores are slowed,
    not taken away. Medians over a run cannot average that out, since
    one run sees only a few such spells; fastest repeats fail as soon
    as a run has no fast spell at all. Over ten runs of 20 s in a busy
    hour, either left quartile spreads of 0.1 to 0.25.

    So a run also times a fixed reference computation, {!kernel},
    between its ops (at least once every {!every_s} of the timed
    phase), and scales each timing by how fast the kernel ran around it:
    [t *. nominal_ms /. kernel_ms], with [kernel_ms] the median of the
    kernel's times within {!window_s} of the timing. A scaled timing
    reads as the time on this host in its fast spells.

    The kernel looks up keys in a fixed integer map: it chases pointers
    and branches as the analysis does, and allocates nothing. A kernel
    that allocated (building small maps) followed the host as well in a
    one-domain process, but in [fixpoint]'s and [serve]'s two-domain
    processes every minor collection it triggered waited for the other
    domain, and its time jumped between runs by a factor of two. Over
    ten runs of 20 s per workload in a busy hour, scaling by this kernel
    brought the quartile spread of the timing metrics to 0.025 to 0.08,
    from 0.06 to 0.23 unscaled. *)

module Mono = Pointsto.Mono
module M = Map.Make (Int)

let table =
  let m = ref M.empty in
  for i = 0 to 4095 do
    m := M.add ((i * 7919) land 8191) i !m
  done;
  !m

let kernel () =
  let hits = ref 0 in
  for round = 0 to 9 do
    for i = 0 to 4095 do
      if M.mem (((i * 7919) + round) land 8191) table then incr hits
    done
  done;
  !hits

(** About the kernel's fastest time on the reference host (2-core VM,
    Xeon at 2.1 GHz): 3.4 to 3.7 ms over two trials of 20 000 runs. *)
let nominal_ms = 3.5

(** Longest stretch of the timed phase without a kernel sample. *)
let every_s = 0.1

(** Half-width of the window of kernel samples that scales a timing. *)
let window_s = 1.0

(** Time the kernel once: (midpoint, milliseconds). *)
let sample () =
  let t0 = Mono.now_s () in
  ignore (Sys.opaque_identity (kernel ()));
  let t1 = Mono.now_s () in
  ((t0 +. t1) /. 2., (t1 -. t0) *. 1e3)

(** The factor that brings a timing taken over [t0, t1] to full speed,
    from the run's kernel samples. *)
let scaler samples =
  let a = Array.of_list samples in
  Array.sort (fun (x, _) (y, _) -> Float.compare x y) a;
  let n = Array.length a in
  (* first sample at or after [t] *)
  let first t =
    let rec go lo hi =
      if lo >= hi then lo
      else
        let mid = (lo + hi) / 2 in
        if fst a.(mid) < t then go (mid + 1) hi else go lo mid
    in
    go 0 n
  in
  fun ~t0 ~t1 ->
    let lo = first (t0 -. window_s) and hi = first (t1 +. window_s) in
    let ms =
      if hi > lo then Sample.median (List.init (hi - lo) (fun i -> snd a.(lo + i)))
      else
        (* none within the window: the nearest one *)
        let d i = Float.abs (fst a.(i) -. t0) in
        if lo = 0 then snd a.(0) else if lo = n || d (lo - 1) < d lo then snd a.(lo - 1) else snd a.(lo)
    in
    nominal_ms /. ms
