(** [perf.exe compare PARENT_DIR CHANGE_DIR]: the verdict on a change
    from two sets of run files (written by [run --out] or [all]), with
    the bounds of BENCHMARK.json. *)

(** Per (workload, metric): each run's (seed, value). *)
type side = { values : (string * string, (int * float) list) Hashtbl.t; fails : (string, int * int) Hashtbl.t }

let load_dir dir =
  let side = { values = Hashtbl.create 64; fails = Hashtbl.create 4 } in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".json")
  |> List.sort String.compare
  |> List.iter (fun f ->
         let j = Json.of_file (Filename.concat dir f) in
         match Json.member "workload" j with
         | None -> ()
         | Some w ->
             let w = Json.to_str w in
             let num k = int_of_float (Json.to_num (Json.get k j)) in
             let seed = num "seed" in
             let a, fl = Option.value ~default:(0, 0) (Hashtbl.find_opt side.fails w) in
             Hashtbl.replace side.fails w (a + num "attempted", fl + num "failed");
             (match Json.get "metrics" j with
             | Json.Obj kvs ->
                 List.iter
                   (fun (m, v) ->
                     let x = Json.to_num (Json.get "value" v) in
                     let key = (w, m) in
                     Hashtbl.replace side.values key
                       ((seed, x) :: Option.value ~default:[] (Hashtbl.find_opt side.values key)))
                   kvs
             | _ -> ()));
  side

type bound = { bound : float; better : Spec.better }

let bounds_of bench =
  Json.to_list (Json.get "end_to_end" bench)
  |> List.map (fun m ->
         ( Json.to_str (Json.get "name" m),
           {
             bound = Json.to_num (Json.get "bound" m);
             better = (if Json.to_str (Json.get "better" m) = "higher" then Spec.Higher else Spec.Lower);
           } ))

(** Runs a gain needs on each side, paired. *)
let min_pairs = 10

(** Verdict for one (workload, metric) pair, from each side's runs in
    seed order. [worse] is the change's median shift in the metric's bad
    direction, as a share of the parent's median. Where either side's
    quartile spread exceeds the bound, the pair is unresolved unless
    every change run beats every parent run. A gain needs both: the
    change wins at least nine in ten of the pairs (the i-th run of each
    side; a tie wins for neither), over at least {!min_pairs} pairs, and
    the medians differ by more than the parent's own spread. *)
let verdict b ~parent ~change =
  let values l = List.map snd (List.sort compare l) in
  let parent = values parent and change = values change in
  let med = Sample.median in
  let sign = match b.better with Spec.Lower -> 1. | Spec.Higher -> -1. in
  let worse = sign *. (med change -. med parent) /. Float.abs (med parent) in
  let spread = Float.max (Sample.spread parent) (Sample.spread change) in
  let beats x y = sign *. (x -. y) < 0. in
  let all_better = List.for_all (fun c -> List.for_all (fun p -> beats c p) parent) change in
  let pairs = min (List.length parent) (List.length change) in
  let take l = List.filteri (fun i _ -> i < pairs) l in
  let wins = List.length (List.filter Fun.id (List.map2 beats (take change) (take parent))) in
  let gain = pairs >= min_pairs && 10 * wins >= 9 * pairs && -.worse > Sample.spread parent in
  if spread > b.bound && not all_better then "unresolved"
  else if worse > b.bound then "worse"
  else if gain then "better"
  else "no worse"

let run ~bench parent_dir change_dir =
  let bounds = bounds_of (Json.of_file bench) in
  let parent = load_dir parent_dir and change = load_dir change_dir in
  let worse = ref 0 in
  let quart l =
    let l = List.map snd l in
    let q1, q3 = Sample.quartiles l in
    Fmt.str "%.4g [%.4g, %.4g]" (Sample.median l) q1 q3
  in
  Fmt.pr "%-9s %-26s %-32s %-32s %s@." "workload" "metric" "parent median [q1, q3]"
    "change median [q1, q3]" "verdict";
  List.iter
    (fun w ->
      List.iter
        (fun (m : Spec.metric) ->
          match
            (Hashtbl.find_opt parent.values (w, m.Spec.name), Hashtbl.find_opt change.values (w, m.Spec.name))
          with
          | Some p, Some c ->
              let v =
                match List.assoc_opt m.Spec.name bounds with
                | Some b -> verdict b ~parent:p ~change:c
                | None -> "-"
              in
              if v = "worse" then incr worse;
              Fmt.pr "%-9s %-26s %-32s %-32s %s@." w m.Spec.name (quart p) (quart c) v
          | _ -> ())
        (Spec.end_to_end @ Spec.per_layer);
      match (Hashtbl.find_opt parent.fails w, Hashtbl.find_opt change.fails w) with
      | Some (pa, pf), Some (ca, cf) ->
          let ratio f a = float_of_int f /. float_of_int (max 1 a) in
          let higher = ratio cf ca > ratio pf pa in
          if higher then incr worse;
          Fmt.pr "%-9s %-26s %-32s %-32s %s@." w "fail_ratio"
            (Fmt.str "%d/%d" pf pa) (Fmt.str "%d/%d" cf ca)
            (if higher then "worse" else "no worse")
      | _ -> ())
    Spec.workloads;
  if !worse > 0 then begin
    Fmt.pr "@.%d regression(s)@." !worse;
    1
  end
  else 0
