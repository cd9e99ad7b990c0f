(** The assembled query rewriter: the default block/seq program, the
    rewrite entry point over LERA expressions, and the DBA/DBI extension
    surface (paper §4.2, §6.1, §7).

    The default program is the sequence

    [merging → fixpoint → merging → permutation → semantic → simplification]

    — search merging runs {e before and after} fixpoint reduction, the
    paper's own example of a rule block worth re-running (§5.3), and
    permutation runs after so that constant selections reach the
    adornment computation first.  Per-block limits implement the §7
    trade-off: a 0 limit disables a block (cheap queries), an infinite
    limit saturates (complex queries). *)

module Term = Eds_term.Term
module Lera = Eds_lera.Lera
module Schema = Eds_lera.Schema

(** Application limits per block; [None] = saturation, [Some 0] = off.
    A limit counts condition checks: every match substitution whose
    constraints are evaluated costs one unit, so a single AC-matching
    rule over a wide conjunction may consume many units at one node. *)
type config = {
  merging_limit : int option;
  fixpoint_limit : int option;
  permutation_limit : int option;
  semantic_limit : int option;
  simplification_limit : int option;
  rounds : int;
}

val default_config : config
(** Saturation for the syntactic blocks, a finite limit (100) for the
    semantic block — whose growth rules would otherwise run long (§7) —
    and up to five rounds with early stop, so that permutation and
    merging feed each other until the query stops changing (or the cap
    is reached). *)

val zero_config : config
(** All limits 0: the "simple queries (e.g., search on a key) do not
    need sophisticated optimization: a 0 limit can then be given to all
    blocks" case of §7. *)

val complexity : Lera.rel -> int
(** Complexity measure driving {!adaptive_config}: operators + conjuncts
    + a premium per fixpoint. *)

val adaptive_config : Lera.rel -> config
(** §7's dynamic limit allocation: a key-lookup-class query gets all-zero
    limits (rewriting cannot pay off), complex queries get limits scaled
    with their complexity. *)

val program : ?config:config -> unit -> Rule.program

val make_ctx :
  ?semantic_constraints:(string * Term.t) list ->
  ?extra_methods:(string * Engine.method_fn) list ->
  ?extra_constraints:(string * Engine.constraint_fn) list ->
  ?profile:Eds_obs.Obs.Profile.t ->
  ?params:Eds_value.Value.t array ->
  Schema.env ->
  Engine.ctx
(** Context with the built-in method library; the DBI's extension point.
    With a [profile], every rule attempt of a rewrite under this context
    is aggregated into it ({!Eds_obs.Obs.Profile}).  [params] are the
    literals a template is planned with ({!Engine.ctx}). *)

val rewrite :
  ?program:Rule.program ->
  ?stats:Engine.stats ->
  Engine.ctx ->
  Lera.rel ->
  Lera.rel
(** Lower to a term, run the program, lift back.  Raises
    {!Engine.Rewrite_error} if a user rule rewrote the query into a term
    that is no longer a LERA encoding. *)

val rewrite_term :
  ?program:Rule.program -> ?stats:Engine.stats -> Engine.ctx -> Term.t -> Term.t

val rewrite_term_reference :
  ?program:Rule.program -> ?stats:Engine.stats -> Engine.ctx -> Term.t -> Term.t
(** Same program through {!Engine.run_reference} — the un-indexed,
    restart-from-root engine.  Golden-trace oracle. *)

(** {1 Declaring semantic knowledge (Figure 10)} *)

val parse_integrity_constraint : string -> string * Term.t
(** Parse a Figure-10 constraint declaration, e.g.
    ["F(x) / ISA(x, Point) --> F(x) AND ABS(x) > 0"], into the pair
    (type name, predicate template over the variable [x]) consumed by
    [make_ctx ~semantic_constraints].  Raises
    {!Rule_parser.Rule_parse_error} when the declaration does not have
    the constraint shape. *)

val enum_domain_constraints : Eds_value.Vtype.env -> (string * Term.t) list
(** One [member(x, {labels})] template per declared enumeration — the
    Category rule of Figure 10, derived from the schema. *)
