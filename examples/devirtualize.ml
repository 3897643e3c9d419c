(** Devirtualization scenario (paper §5-6): an event-handler dispatch
    table of function pointers. The analysis binds each indirect call
    site to exactly the functions it can invoke, which a compiler can use
    to devirtualize or inline; the naive and address-taken call-graph
    strategies are shown for comparison.

    Run with [dune exec examples/devirtualize.exe]. *)

module Cg = Alias.Callgraph

let program =
  {|
/* a small event loop with a handler table */
int log_count;
int quit_requested;

void on_key(void)   { log_count = log_count + 1; }
void on_mouse(void) { log_count = log_count + 2; }
void on_timer(void) { log_count = log_count + 3; }
void on_quit(void)  { quit_requested = 1; }

/* never put in the table: its address is taken but it is wired to a
   different dispatch path */
void on_debug(void) { log_count = -1; }

/* address never taken at all */
void helper(void) { log_count = 0; }

void (*handlers[4])(void);
void (*debug_hook)(void);

void install(void) {
  handlers[0] = on_key;
  handlers[1] = on_mouse;
  handlers[2] = on_timer;
  handlers[3] = on_quit;
  debug_hook = on_debug;
}

void dispatch(int event) {
  void (*h)(void);
  h = handlers[event];
  h();
}

int main() {
  int e;
  helper();
  install();
  for (e = 0; e < 4; e++)
    dispatch(e);
  return quit_requested;
}
|}

let () =
  let prog = Simple_ir.Simplify.of_string program in
  let result = Pointsto.Analysis.analyze prog in
  Fmt.pr "Indirect call fanout under the three strategies of paper section 5:@.@.";
  List.iter
    (fun strategy ->
      let nodes = Cg.ig_size prog strategy in
      let fanout = Cg.indirect_fanout prog strategy in
      Fmt.pr "  %-26s invocation graph: %3d nodes; callees per indirect site: %a@."
        (Cg.strategy_name strategy) nodes
        Fmt.(list ~sep:(any ", ") int)
        fanout)
    [ Cg.Precise result; Cg.Naive; Cg.Address_taken ];
  Fmt.pr
    "@.The precise strategy sees through the handler table: the dispatch site can@.\
     only reach the four installed handlers -- not on_debug (address taken, but@.\
     never stored in the table) and not helper (address never taken).@.@.";
  Fmt.pr "Call multigraph from the analyzed invocation graph:@.";
  List.iter
    (fun (caller, callee) -> Fmt.pr "  %s -> %s@." caller callee)
    (Cg.edges_of_result result)
