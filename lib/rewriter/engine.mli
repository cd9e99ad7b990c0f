(** The rewrite engine: applies rules to query terms under the block/seq
    control strategy (paper §4.2).

    The engine walks the query term top-down, leftmost first; at each
    node it tries the block's rules in order.  When a rule's left-hand
    side matches, its condition is {e checked} — constraints evaluated
    under the match substitution — and, per the paper, "each time a rule
    condition is checked, the limit of the block is decreased by one".
    If the constraints hold and every method call succeeds, the node is
    replaced by the substituted right-hand side (normalized), and the
    scan restarts from the root.  An exhausted limit stops the block; an
    infinite limit means saturation.

    Constraint terms and methods are evaluated against an extensible
    table in the {!ctx}; the database implementor extends both, exactly
    as EDS's DBI extended the optimizer's ADT library. *)

module Term = Eds_term.Term
module Subst = Eds_term.Subst
module Schema = Eds_lera.Schema

(** Schemas visible at the node being rewritten. *)
type local_env = {
  input_schemas : Schema.t list option;
      (** operand schemas of the nearest enclosing search/filter/join,
          available when rewriting its qualification or projection *)
  rvars : (string * Schema.t) list;
      (** recursion variables bound by enclosing fixpoints *)
}

type ctx = {
  schema_env : Schema.env;
  methods : (string * method_fn) list;
  constraint_preds : (string * constraint_fn) list;
      (** user-defined constraint predicates, tried before built-ins *)
  semantic_constraints : (string * Term.t) list;
      (** integrity-constraint templates: type name ↦ predicate over the
          variable [x] (paper §6.1, Figure 10) *)
  profile : Eds_obs.Obs.Profile.t option;
      (** the rule profile this rewrite aggregates into, if any *)
  params : Eds_value.Value.t array;
      (** the planning request's literals: template parameter [$i] reads
          [params.(i-1)] *)
  guards : Eds_lera.Lera.guard list ref;
      (** every read of a parameter's value so far, newest first *)
}

and method_fn = ctx -> local_env -> Subst.t -> Term.t list -> Subst.t option
(** [fn ctx env subst raw_args]: [raw_args] are the method's argument
    terms {e before} substitution, so the method can recognise its output
    variables; it returns the substitution extended with output bindings,
    or [None] to veto the rule. *)

and constraint_fn = ctx -> local_env -> Term.t list -> bool
(** Applied to the {e substituted} argument terms. *)

val ctx :
  ?methods:(string * method_fn) list ->
  ?constraint_preds:(string * constraint_fn) list ->
  ?semantic_constraints:(string * Term.t) list ->
  ?profile:Eds_obs.Obs.Profile.t ->
  ?params:Eds_value.Value.t array ->
  Schema.env ->
  ctx
(** A fresh context: no guard recorded yet.  [params] defaults to none
    (a plan without parameters). *)

val guards : ctx -> Eds_lera.Lera.guard list
(** The parameter reads made under this context, oldest first, without
    duplicates.  A template's rewrite depends on its literals only
    through these (DESIGN.md decision 17). *)

val top_env : local_env

(** One recorded rule application, for tracing/debugging rule programs. *)
type step = {
  rule_name : string;
  block_name : string;
  redex : Term.t;  (** the subterm that was rewritten *)
  replacement : Term.t;
}

val pp_step : Format.formatter -> step -> unit

(** Work accounting for one block (accumulated over every execution of
    the block under the same {!stats}). *)
type block_stats = {
  mutable time_s : float;  (** wall-clock seconds spent in the block *)
  mutable nodes : int;
  mutable conditions : int;
  mutable rewrites : int;
}

type stats = {
  mutable conditions_checked : int;
      (** substitutions whose constraints were evaluated — the unit the
          block limit counts *)
  mutable rewrites_applied : int;
  mutable nodes_visited : int;  (** nodes at which rules were considered *)
  mutable match_attempts : int;  (** (rule, node) pairs handed to the matcher *)
  mutable index_hits : int;  (** rules skipped by the head-symbol index *)
  mutable index_misses : int;  (** rules the index could not rule out *)
  mutable schema_hits : int;  (** schema derivations answered by the memo *)
  mutable schema_misses : int;
  mutable by_rule : (string * int) list;  (** rewrites per rule name *)
  mutable per_block : (string * block_stats) list;
      (** name-summed view: one entry per block {e name}, totals over
          every pass of that name (kept for backwards compatibility) *)
  mutable passes : (string * block_stats) list;
      (** one entry per block {e pass} in execution order — a block name
          re-run across rounds, or mounted twice in the program (the C2
          merge/fixpoint/merge sequence), gets one entry per execution *)
  mutable trace : step list;  (** most recent first *)
}

val fresh_stats : unit -> stats
val steps : stats -> step list
(** Applications in chronological order. *)

val block_stats : stats -> string -> block_stats
(** Name-summed accounting entry for a block name, created on first
    use.  Per-pass accounting lives in the [passes] field. *)

val pp_block_stats : Format.formatter -> string * block_stats -> unit
val pp_stats : Format.formatter -> stats -> unit

exception Rewrite_error of string

val term_type : ctx -> local_env -> Term.t -> Eds_value.Vtype.t option
(** Type of a scalar term when derivable: constants, column references
    against the local operand schemas, registered-function results. *)

val eval_constraint : ctx -> local_env -> Term.t -> bool
(** Built-in constraint forms: ground comparisons via the ADT registry,
    [isa(t, type)] (with [constant], the collection kinds and declared
    type names), [not]/[and]/[or], [notin(t, members…)],
    [distinct(a, b)], [nonempty(…)], [ground(t)], [pred(f)],
    [refer_only(list(quals), list(prefix), group)], [empty_rel(r)] and
    [not_in_domain(k, col)]; anything else is looked up in
    [ctx.constraint_preds] and is false when unknown.

    A template parameter is a constant fixed per execution: [isa(p,
    constant)] holds, and a comparison or a [distinct]/[notin] equality
    that involves one reads its value from [ctx.params] and records a
    guard in [ctx.guards].  [not_in_domain] never reads one. *)

val apply_rule_at : ctx -> local_env -> Rule.t -> Term.t -> Term.t option
(** Try one rule at the root of a term: first match whose constraints
    hold and methods succeed wins.  Returns the normalized replacement. *)

val run_block : ctx -> ?stats:stats -> Rule.block -> Term.t -> Term.t
val run : ctx -> ?stats:stats -> Rule.program -> Term.t -> Term.t
(** Runs the blocks in sequence, the whole sequence [rounds] times,
    stopping early when a full round leaves the term unchanged.

    The engine compiles each block into a head-symbol dispatch table
    ({!Rule.compile}), skips subtrees already proven redex-free for the
    block (re-established when a rewrite rebuilds the spine above them —
    {!Eds_lera.Lera_term.normalize} preserves sharing so subtree
    identity survives steps), and memoizes operand-schema derivation.
    None of this changes which rules apply where: results and traces are
    identical to {!run_reference} whenever block limits do not bind
    (with a binding limit the engines may spend the budget differently,
    because the reference engine re-checks conditions the indexed engine
    never re-visits). *)

val run_reference : ctx -> ?stats:stats -> Rule.program -> Term.t -> Term.t
(** The straightforward engine: restart from the root after every
    rewrite, consult every rule at every node, re-derive schemas on
    every visit.  Oracle for the golden-trace tests and the baseline the
    benchmarks compare work counters against. *)
