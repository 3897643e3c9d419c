(** Demand-driven query dispatch: the glue between the textual query
    layer ({!Query}), the flow-insensitive Andersen pre-pass (the
    planning oracle), and the sliced analysis entry point
    ({!Pointsto.Analysis.analyze_demand}).

    [prepare] runs Andersen once over the program and tabulates the
    defined targets of every indirect call site; that table (with the
    address-taken fallback for empty or unknown sites) is the
    {!Pointsto.Demand.oracle} the slice planner consults. A query's
    {e seed} is the function whose body contains the query's statement —
    all three query forms read that statement's recorded row, which the
    demand run reproduces bit-identically (docs/DEMAND.md).

    One [prepare] serves any number of queries over the same program;
    callers memoize {!analyze} per seed (queries about the same function
    share a slice). *)

module Ir = Simple_ir.Ir
module Analysis = Pointsto.Analysis
module Demand = Pointsto.Demand

type t

(** Run the Andersen pre-pass and build the oracle tables. Cheap
    relative to the context-sensitive analysis (flow-insensitive, one
    worklist pass). [opts]/[entry] are stored for {!analyze}. *)
val prepare : ?opts:Pointsto.Options.t -> ?entry:string -> Ir.program -> t

(** The planning oracle: Andersen's defined targets for an indirect
    site, the defined address-taken functions when Andersen found none
    (or the site is unknown). Total. *)
val oracle : t -> Demand.oracle

(** The function whose body contains the query's statement — [None]
    when no such statement exists (the caller falls back to the
    exhaustive analysis, whose query layer reports the error). *)
val seed_of : t -> Query.t -> string option

(** The slice plan for queries about statements of [seed].
    @raise Invalid_argument when [seed] is not defined. *)
val plan_for : t -> seed:string -> Demand.plan

(** Sliced analysis for [seed]'s rows:
    {!Pointsto.Analysis.analyze_demand} over {!plan_for}, with [seeded]
    summaries replayed at skipped calls when supplied. *)
val analyze : ?seeded:Pointsto.Engine.store -> t -> seed:string -> Analysis.result
