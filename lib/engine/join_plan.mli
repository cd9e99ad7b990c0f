(** Equi-join extraction and the hash-join executor of the indexed
    physical evaluator ({!Eval.Physical.Indexed}).

    A Search/Join qualification is split into equi-join conjuncts
    ([i.j = k.l] across two distinct operands) and a residual
    conjunction; execution then enumerates only the combinations
    satisfying every equi conjunct — hash-index build on each new
    operand, probe from the accumulated partials — instead of the full
    cartesian product, and tests the residual on each of them.  Hash
    indexes live in the operand tables' caches ({!Column.index}), and
    their distinct-key counts steer the operand order of joins of three
    or more. *)

module Lera = Eds_lera.Lera

type equi = {
  left : int * int;  (** (operand, column), 1-based; the lower operand *)
  right : int * int;
}

type t = {
  operands : int;
  equis : equi list;
  residual : Lera.scalar;  (** conjunction of the non-equi conjuncts *)
}

val analyze : operands:int -> Lera.scalar -> t
(** Classify the top-level conjuncts of a qualification.  Conjuncts
    whose shape is not [Col = Col] across two distinct in-range operands
    land in the residual. *)

val residual : t -> Lera.scalar
val equi_count : t -> int
val has_equis : t -> bool

(** What the executor chose for one run: EXPLAIN ANALYZE prints it on
    the search line as [order=2,3,1 reused=2]. *)
type choice = {
  order : int list;
      (** the operands (1-based) in the order they were bound; empty
          when nothing was enumerated (an empty operand, or none) *)
  reused : int;  (** hash indexes taken from the operand tables' caches *)
}

val execute :
  Database.t ->
  on_build:(unit -> unit) ->
  on_probe:(unit -> unit) ->
  on_combination:(unit -> unit) ->
  t ->
  Column.table array ->
  (Relation.tuple list -> unit) ->
  choice
(** [execute db ~on_build ~on_probe ~on_combination plan tables yield]
    enumerates the combinations of the operand tables satisfying every
    equi conjunct, firing [on_combination] once per such combination,
    and calls [yield] with the materialized tuples (original operand
    order) of each one that also satisfies the residual.  The residual
    runs as a compiled row predicate ({!Column.Pred}) when it compiles,
    and through [Expr_eval.eval_bool] over [db] on the materialized
    tuples otherwise.

    Order: two operands are bound smallest first.  Three or more are
    bound in estimated fan-out order: from the equi edge with the
    smallest estimated output |a|·|b| / max(ndv), then the connected
    operand with the smallest card/ndv on its build key, reading ndv
    ({!Column.Index.distinct}) only from indexes already cached on the
    operand tables (an edge with none cached on either side is
    estimated at |a|·|b|); with none cached on any equi edge, smallest first,
    preferring operands connected to the bound set.  The order changes
    only the enumeration order of the same combination set.

    Indexes: a build key on the operand table's own columns comes from
    {!Column.index}, so it is built once per table and reused by every
    later run on that table.  [on_build] fires once per row this run
    loads into an index (a reused index fires none), [on_probe] once
    per index lookup.  An edge joining columns of different flavors
    compares through [Values] views of both ({!Column.values}), so
    Int/Real cross-equality holds; such a key is built for the run and
    not cached.  If any operand is empty, returns before building
    anything and fires no callback; with zero operands enumerates the
    single empty combination, like the cartesian enumerator. *)
