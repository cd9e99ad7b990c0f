(** The EDS database session: the top-level façade tying together the
    catalog, the in-memory database, the extensible rewriter and the
    evaluator.  This is the API the examples and the [edsql] binary use:

    {[
      let s = Session.create () in
      Session.exec_string s "TABLE FILM (Numf : NUMERIC, …)";
      match Session.exec_string s "SELECT …" with
      | Session.Rows rel -> Fmt.pr "%a" Relation.pp rel
      | _ -> ()
    ]} *)

module Value = Eds_value.Value
module Vtype = Eds_value.Vtype
module Adt = Eds_value.Adt
module Term = Eds_term.Term
module Lera = Eds_lera.Lera
module Schema = Eds_lera.Schema
module Relation = Eds_engine.Relation
module Database = Eds_engine.Database
module Eval = Eds_engine.Eval
module Materializer = Eds_engine.Materializer
module Cancel = Eds_engine.Cancel
module Ast = Eds_esql.Ast
module Catalog = Eds_esql.Catalog
module Rule = Eds_rewriter.Rule
module Engine = Eds_rewriter.Engine
module Optimizer = Eds_rewriter.Optimizer
module Obs = Eds_obs.Obs

type t

val create : ?config:Optimizer.config -> unit -> t

val catalog : t -> Catalog.t
val database : t -> Database.t

val generation : t -> int
(** Plan-cache epoch: bumped by every change that can alter what a
    SELECT plans to — {!set_config}, {!set_rewriting}, {!set_adaptive},
    {!add_rules}, {!set_program}, catalog DDL, {!register_function},
    {!register_method}, {!add_integrity_constraint},
    {!use_enum_domains}.  A rewritten plan cached under one generation
    must be bypassed once the generation moves (the query server's
    shared plan cache keys on it).  Data changes (INSERT / DELETE /
    UPDATE) do {e not} bump it: plans are data-independent. *)

val set_config : t -> Optimizer.config -> unit
val set_rewriting : t -> bool -> unit
(** Disable/enable the rewriter entirely (queries run as translated). *)

val set_adaptive : t -> bool -> unit
(** Allocate block limits per query from its complexity
    ({!Eds_rewriter.Optimizer.adaptive_config}) — the §7 "limits adjusted
    dynamically" policy.  Off by default. *)

val set_physical : t -> Eval.Physical.t -> unit
(** Select the physical evaluation layer for subsequent statements —
    [Indexed] (the default: hash joins, set-backed relations)
    or [Naive] (full cartesian enumeration, the golden reference). *)

val physical : t -> Eval.Physical.t

val set_profile : t -> Obs.Profile.t option -> unit
(** The rule profile every subsequent rewrite of this session aggregates
    into ({!Eds_obs.Obs.Profile}); [None] (the default) turns profiling
    off.  Plans are unaffected, so the generation does not move. *)

val profile : t -> Obs.Profile.t option

(** {1 Executing ESQL} *)

type result =
  | Done  (** DDL executed *)
  | Inserted of int  (** tuples inserted *)
  | Deleted of int
  | Updated of int
  | Rows of Relation.t
  | Report of string
      (** rendered EXPLAIN / EXPLAIN ANALYZE output (never WAL-logged) *)

exception Session_error of string
(** Wraps parse, type, schema and evaluation errors with context. *)

val exec : ?deadline:Cancel.t -> t -> Ast.stmt -> result
val exec_string : ?deadline:Cancel.t -> t -> string -> result
(** One statement.  [deadline] bounds every evaluation the statement
    runs — a SELECT's, EXPLAIN ANALYZE's, a REFRESH's recompute and the
    view maintenance of DML — which raises {!Cancel.Timeout} once it
    expires.  A timed-out statement changes nothing: DML and REFRESH
    compute before they publish. *)

val exec_script : t -> string -> result list
(** A [;]-separated script. *)

val query : t -> string -> Relation.t
(** [exec_string] specialised to SELECT; raises {!Session_error} on
    anything else. *)

(** {1 Inspecting the rewriter} *)

type plan = {
  translated : Lera.rel;  (** canonical LERA straight out of translation *)
  rewritten : Lera.rel;  (** after the rule program *)
  rewrite_stats : Engine.stats;
  guards : Lera.guard list;
      (** the parameter reads the rewrite made ({!Engine.guards}): a
          template's [rewritten] plan serves exactly the bindings that
          satisfy them all; empty without parameters *)
  parse_s : float;  (** parse time, when the statement came in as text *)
  translate_s : float;
  rewrite_s : float;
}

val explain : t -> string -> plan
(** Translate and rewrite a SELECT without executing it. *)

val parse_select : string -> Ast.select * float
(** Parse a SELECT (or [EXPLAIN SELECT]) text, returning it with the
    parse time; {!explain} is [parse_select] then {!plan_ast}.  Parsing
    reads no session state. *)

val plan_ast : ?parse_s:float -> t -> Ast.select -> plan
(** Translate and rewrite a parsed SELECT.  A template carrying
    {!Eds_esql.Ast.Param} slots plans to a generic plan with
    {!Lera.Param} parameters, which must be {!Lera.bind}ed before
    evaluation.  The rewrite reads the slots' literals
    ({!Eds_esql.Template.values}) and records each read in [guards]. *)

(** {1 Observability}

    Cumulative work lives in the process-wide {!Eds_obs.Metrics}
    registry: every statement through {!exec} (and wrappers) increments
    [eds_session_statements_total], and every evaluation — a session's
    or anyone else's — adds its {!Eval.stats} to the [eds_eval_*]
    counters. *)

val last_rewrite_stats : t -> Engine.stats option
(** Rewrite statistics of the most recently planned SELECT, if any. *)

val count_statement : unit -> unit
(** Count a statement executed outside {!exec} — e.g. a cached-plan
    execution by the query server, which skips parse/translate/rewrite
    entirely — in [eds_session_statements_total]. *)

val reset_stats : t -> unit
(** Forget the last rewrite stats and zero the registry's resettable
    cells ({!Eds_obs.Metrics.reset_values}).  {!generation} and
    {!data_generation} are integrity markers and are deliberately
    untouched (the [STATS RESET] wire command and the [.stats reset]
    directive call this). *)

val snapshot_db : t -> Database.t
(** An O(1) immutable snapshot of the database ({!Eds_engine.Database.snapshot}):
    SELECTs evaluated against it need no locking at all — the query
    server's lock-free read path. *)

val data_generation : t -> int
(** The database's data epoch ({!Eds_engine.Database.data_generation}):
    bumped by every INSERT / DELETE / UPDATE / DDL / object mutation.
    Orthogonal to {!generation}, which tracks {e plan-affecting} changes
    only. *)

val run_plan :
  ?stats:Eval.stats ->
  ?db:Database.t ->
  ?deadline:Cancel.t ->
  t ->
  Lera.rel ->
  Relation.t
(** Evaluate a rewritten plan with the session's physical layer.  [db]
    (default: the live database) lets the caller evaluate against a
    {!snapshot_db} instead; [deadline] bounds the evaluation. *)

val estimate : t -> Lera.rel -> Eds_lera.Cost.t
(** Static cost estimate against the live base-relation cardinalities. *)

(** {1 Materialized views} *)

val mviews : t -> Materializer.t
(** The session's materialized-view registry.  [CREATE MATERIALIZED VIEW]
    registers a view and stores its initial extent; INSERT / DELETE /
    UPDATE maintain every dependent extent incrementally (semi-naive
    delta propagation for insertions, delete-and-rederive for deletions)
    and install base change + extents under a single atomic publish,
    falling back to a full recompute when maintenance is estimated more
    expensive than {!estimate} of the definition; [REFRESH <view>] (or
    the REPL's [.refresh]) forces the recompute. *)

val mv_stats : t -> Materializer.stats
(** Counters of the registry: maintenance runs, fallback recomputes,
    refreshes, delta tuples, last full (re)compute time. *)

val fix_cache_stats : t -> int * int
(** [(entries, invalidations)] of the session's shared closed-fixpoint
    memo (see {!Eds_engine.Eval.Shared_fix_cache}): entries currently
    cached, and entries evicted because a relation they read was
    replaced by DML. *)

(** {1 Extending the optimizer (the DBI interface, §4 / §6.1)} *)

val add_integrity_constraint : t -> string -> unit
(** Declare a Figure-10 constraint, e.g.
    ["F(x) / ISA(x, Point) --> F(x) AND ABS(x) > 0"]. *)

val use_enum_domains : t -> unit
(** Derive a domain constraint for every declared enumeration. *)

val add_rules : t -> block:string -> ?limit:int option -> string -> unit
(** Parse rule text and append it as a new block named [block] at the end
    of the current program (or extend the block if it exists). *)

val set_program : t -> Rule.program -> unit
val program : t -> Rule.program

val check_program : t -> Eds_rewriter.Rule_analysis.warning list
(** Termination warnings (§4.2) for the current rule program; also
    logged automatically by {!add_rules}. *)

val register_function : t -> Adt.entry -> unit
(** Extend the ADT function library — available immediately in queries,
    rules and constant folding. *)

val register_method : t -> string -> Engine.method_fn -> unit
(** Register an external method usable from rule text. *)

(** {1 Objects} *)

val new_object : t -> Value.t -> Value.t
(** Allocate an object in the store; returns its OID value. *)
