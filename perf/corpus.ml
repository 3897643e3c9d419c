(** The programs the workloads analyze.

    Generated members come from {!Gen} with the knobs and seeds of the
    bench corpus (web 11, deep 23, knot 37; docs/CORPUS.md), whatever
    the run's seed. Analysis cost varies with the generator seed far
    more than with anything a change to [ptan] would do — over 16 seeds
    a program's analysis time has a coefficient of variation of 0.5 to
    0.9 — so a seeded corpus would drown every regression bound in
    input noise. The run's seed instead drives every choice a workload
    makes over this fixed corpus: edit sites and kinds, query targets,
    the daemon's query mix. *)

type shape = Web | Deep | Knot

let shape_name = function Web -> "web" | Deep -> "deep" | Knot -> "knot"

let knobs shape size =
  match shape with
  | Web -> { Gen.default with Gen.seed = 11; size; depth = 4; fnptr_density = 30 }
  | Deep -> { Gen.default with Gen.seed = 23; size; depth = 7; fnptr_density = 0; structs = 50 }
  | Knot -> { Gen.default with Gen.seed = 37; size; depth = 4; fnptr_density = 15; recursion = 30 }

type program = { name : string; text : string }

let generate shape size =
  {
    name = Printf.sprintf "%s-%d" (shape_name shape) size;
    text = Span.with_ "gen" (fun () -> Gen.program (knobs shape size));
  }

(** The paper's benchmark programs, read from [benchmarks/] in the
    working directory (the repository root). *)
let paper_benchmarks () =
  let dir = "benchmarks" in
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".c")
  |> List.sort String.compare
  |> List.map (fun f ->
         {
           name = Filename.chop_suffix f ".c";
           text = In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all;
         })

(** Defined functions the generator emitted ([f<layer>_<index>]), in
    program order. *)
let generated_funcs (p : Simple_ir.Ir.program) =
  List.filter_map
    (fun (f : Simple_ir.Ir.func) ->
      let n = f.Simple_ir.Ir.fn_name in
      if String.length n > 1 && n.[0] = 'f' && n.[1] >= '0' && n.[1] <= '9' then Some f else None)
    p.Simple_ir.Ir.funcs

(** Pointer variables a query may name in a generated function. *)
let pointer_vars (f : Simple_ir.Ir.func) =
  List.filter_map
    (fun (v, _) -> if List.mem v [ "p"; "lp"; "np"; "fp" ] then Some v else None)
    (f.Simple_ir.Ir.fn_params @ f.Simple_ir.Ir.fn_locals)

let call_ids (f : Simple_ir.Ir.func) =
  List.rev
    (Simple_ir.Ir.fold_func
       (fun acc s ->
         match s.Simple_ir.Ir.s_desc with Simple_ir.Ir.Scall _ -> s.Simple_ir.Ir.s_id :: acc | _ -> acc)
       [] f)

(** The direct-call graph: each defined function's direct callees. *)
let callees (p : Simple_ir.Ir.program) =
  let module Ir = Simple_ir.Ir in
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (f : Ir.func) ->
      Hashtbl.replace tbl f.Ir.fn_name
        (Ir.fold_func
           (fun acc s -> match s.Ir.s_desc with Ir.Scall (_, Ir.Cdirect g, _) -> g :: acc | _ -> acc)
           [] f))
    p.Ir.funcs;
  tbl

(** Functions reachable from [f] through direct calls in [graph]. *)
let reach graph f =
  let seen = Hashtbl.create 16 in
  let rec go g =
    List.iter
      (fun h ->
        if not (Hashtbl.mem seen h) then begin
          Hashtbl.replace seen h ();
          go h
        end)
      (Option.value ~default:[] (Hashtbl.find_opt graph g))
  in
  go f;
  seen

(** Functions that can reach themselves through direct calls (the
    generator's guarded self calls and mutual pairs). *)
let recursive_funcs p =
  let g = callees p in
  List.filter_map
    (fun (f : Simple_ir.Ir.func) ->
      let n = f.Simple_ir.Ir.fn_name in
      if Hashtbl.mem (reach g n) n then Some n else None)
    p.Simple_ir.Ir.funcs

(** Transitive direct callers of each function: the functions an edit
    to it makes dirty, so a proxy for what re-analyzing the edit
    costs. *)
let caller_counts p =
  let g = callees p in
  let counts = Hashtbl.create 64 in
  Hashtbl.iter
    (fun f _ ->
      Hashtbl.iter
        (fun h () -> Hashtbl.replace counts h (1 + Option.value ~default:0 (Hashtbl.find_opt counts h)))
        (reach g f))
    g;
  fun name -> Option.value ~default:0 (Hashtbl.find_opt counts name)

(** [n] indices in an order that strides through [0, n) by a step
    coprime with [n] near [n] times the golden ratio's fractional part:
    consecutive picks land far apart, so any window of the cyclic order
    samples the whole range evenly. *)
let stride_order n =
  let rec gcd a b = if b = 0 then a else gcd b (a mod b) in
  let rec step s = if gcd s n = 1 then s else step (s + 1) in
  let s = if n <= 2 then 1 else step (int_of_float (float_of_int n *. 0.618)) in
  Array.init n (fun k -> k * s mod n)
