(** Equi-join extraction and hash-join execution for the indexed
    physical evaluator ({!Eval.Physical.Indexed}).

    A Search/Join qualification is split into equi-join conjuncts
    ([i.j = k.l] across two distinct operands) and a residual
    conjunction; execution then enumerates only the combinations
    satisfying every equi conjunct — hash-index build on each new
    operand, probe from the accumulated partials — instead of the full
    cartesian product, and the caller post-filters with the residual. *)

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

val execute :
  on_build:(unit -> unit) ->
  on_probe:(unit -> unit) ->
  t ->
  Relation.t array ->
  (Relation.tuple list -> unit) ->
  unit
(** [execute ~on_build ~on_probe plan rels yield] calls [yield] once per
    operand combination satisfying every equi conjunct, with the tuples
    in original operand order (the residual is {e not} applied).
    [on_build] fires once per tuple loaded into a hash index, [on_probe]
    once per index lookup.  Short-circuits to nothing if any operand is
    empty; with zero operands yields the single empty combination, like
    the cartesian enumerator. *)

val columnar_ok : t -> Column.table array -> bool
(** Whether {!execute_columnar} may run this plan over these operand
    tables: every equi edge's two columns must be in range and share a
    flavor (the packed-int fast path cannot see [Value.compare]'s
    Int/Real cross-equality).  The caller separately guarantees that
    {e every} operand has a columnar shadow. *)

val execute_columnar :
  on_build:(unit -> unit) ->
  on_probe:(unit -> unit) ->
  t ->
  Column.table array ->
  (int array -> unit) ->
  unit
(** The vectorized executor: same combination set and the same
    [on_build]/[on_probe] {e totals} as {!execute}, but enumeration
    runs entirely over typed column arrays — probe keys hash and
    compare as packed ints, and [yield rows] hands over the per-operand
    {e row numbers} ([rows.(k)] indexes operand [k]'s table) so the
    caller materializes boxed tuples only for surviving combinations.
    [rows] is a reused cursor: read it during the callback, don't keep
    it.  Precondition: {!columnar_ok} holds and no operand table is
    empty. *)
