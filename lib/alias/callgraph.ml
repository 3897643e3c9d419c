(** Call-graph construction strategies in the presence of function
    pointers (paper §5–6, the 'livc' study).

    Three ways to bind an indirect call site to callees:

    - [Precise]: the points-to analysis itself — the invocable functions
      are exactly those the function pointer can point to at the site
      (the paper's integrated algorithm);
    - [Naive]: every function defined in the program;
    - [Address_taken]: every function whose address is taken somewhere.

    For the two approximations the invocation-graph size is computed by
    the same DFS-with-recursion-cutting used by the real graph builder,
    so the node counts are directly comparable (livc: 203 precise vs 619
    naive vs 589 address-taken in the paper). *)

module Ir = Simple_ir.Ir
module Ig = Pointsto.Invocation_graph

type strategy =
  | Precise of Pointsto.Analysis.result
  | Naive
  | Address_taken

let strategy_name = function
  | Precise _ -> "points-to (precise)"
  | Naive -> "all functions (naive)"
  | Address_taken -> "address-taken"

(** Call sites of a function: statement id plus how to resolve it. *)
let sites_of (prog : Ir.program) (fn : Ir.func) : (int * [ `Direct of string | `Indirect ]) list
    =
  List.rev
    (Ir.fold_func
       (fun acc s ->
         match s.Ir.s_desc with
         | Ir.Scall (_, Ir.Cdirect f, _) when Ir.is_defined prog f ->
             (s.Ir.s_id, `Direct f) :: acc
         | Ir.Scall (_, Ir.Cindirect _, _) -> (s.Ir.s_id, `Indirect) :: acc
         | _ -> acc)
       [] fn)

(** Size (node count) of the invocation graph built with a fixed rule for
    indirect sites: DFS from the entry, one node per invocation context,
    recursion cut with an approximate node exactly as in
    {!Pointsto.Invocation_graph.grow}. *)
let ig_size_with (prog : Ir.program) ~(entry : string) ~(indirect_targets : string list) : int
    =
  let rec count path fname =
    let n = 1 in
    match Ir.find_func prog fname with
    | None -> n
    | Some fn ->
        List.fold_left
          (fun acc (_, site) ->
            let targets =
              match site with `Direct f -> [ f ] | `Indirect -> indirect_targets
            in
            List.fold_left
              (fun acc callee ->
                if not (Ir.is_defined prog callee) then acc
                else if List.mem callee (fname :: path) then acc + 1 (* approximate leaf *)
                else acc + count (fname :: path) callee)
              acc targets)
          n (sites_of prog fn)
  in
  count [] entry

(** Invocation-graph size under each strategy. [Precise] reports its
    analyzed graph; the approximations are counted hypothetically. *)
let ig_size ?(entry = "main") (prog : Ir.program) (s : strategy) : int =
  match s with
  | Precise r -> Ig.n_nodes r.Pointsto.Analysis.graph
  | Naive ->
      let all = List.map (fun f -> f.Ir.fn_name) prog.Ir.funcs in
      ig_size_with prog ~entry ~indirect_targets:all
  | Address_taken ->
      ig_size_with prog ~entry ~indirect_targets:(Ir.address_taken_funcs prog)

(** How many functions each strategy binds to each indirect site (the
    paper reports 24 / 82 / 72 for livc). *)
let indirect_fanout (prog : Ir.program) (s : strategy) : int list =
  match s with
  | Naive -> (
      let n = List.length prog.Ir.funcs in
      match
        List.concat_map
          (fun fn ->
            List.filter_map (fun (_, k) -> if k = `Indirect then Some n else None)
              (sites_of prog fn))
          prog.Ir.funcs
      with
      | l -> l)
  | Address_taken ->
      let n = List.length (Ir.address_taken_funcs prog) in
      List.concat_map
        (fun fn ->
          List.filter_map (fun (_, k) -> if k = `Indirect then Some n else None)
            (sites_of prog fn))
        prog.Ir.funcs
  | Precise r ->
      (* per indirect site: the number of distinct functions bound to it
         anywhere in the invocation graph *)
      let site_targets : (int, string list) Hashtbl.t = Hashtbl.create 16 in
      let indirect_sites =
        List.concat_map
          (fun fn ->
            List.filter_map (fun (id, k) -> if k = `Indirect then Some id else None)
              (sites_of prog fn))
          prog.Ir.funcs
      in
      Ig.fold
        (fun () node ->
          List.iter
            (fun (sid, child) ->
              if List.mem sid indirect_sites then begin
                let old = Option.value ~default:[] (Hashtbl.find_opt site_targets sid) in
                if not (List.mem child.Ig.func old) then
                  Hashtbl.replace site_targets sid (child.Ig.func :: old)
              end)
            node.Ig.children)
        () r.Pointsto.Analysis.graph;
      List.map
        (fun sid -> List.length (Option.value ~default:[] (Hashtbl.find_opt site_targets sid)))
        indirect_sites

(** The call multigraph (caller, callee) edges derivable from an analyzed
    invocation graph — the artifact later interprocedural analyses
    consume (§6.1). *)
let edges_of_result (r : Pointsto.Analysis.result) : (string * string) list =
  let out = ref [] in
  Ig.fold
    (fun () node ->
      List.iter
        (fun ((_ : int), child) ->
          let e = (node.Ig.func, child.Ig.func) in
          if not (List.mem e !out) then out := e :: !out)
        node.Ig.children)
    () r.Pointsto.Analysis.graph;
  List.sort compare !out
