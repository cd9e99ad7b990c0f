(** Columnar view of a relation (the vectorized execution layer).

    Every relation is shadowed by a {!table}: one array per column.  A
    column whose cells are all [Int], all [Oid], all [Str], all [Enum]
    of one enum type, or all [Real] is {e typed}: a plain [int]/[float]
    array, strings and enum labels replaced by their
    {!Eds_value.Intern} ids.  The hot loops of the Indexed layer
    (hash-join build/probe, filter, semi-naive freshness) then run over
    plain arrays with no boxed [Value.t] in the inner loop; boxed tuples
    are materialized only at result-construction and Obs boundaries.

    Every other column — one holding a [Null], [Bool], [Tuple] or
    collection value, or mixing constructors (Int with Real, two enum
    types, an enum with a string) — is a [Values] column of the boxed
    cells, hashed by [Value.hash] and compared by [Value.compare = 0],
    the equality of {!Relation.compare_tuples}.  So {!of_tuples} never
    refuses, and the choice is per column: a relation with one
    set-valued attribute still joins on its other columns as typed
    keys.

    A table also caches the hash indexes built on it ({!index}), one
    per key-column list, so a relation version is indexed once however
    many queries join it.

    The boxed sorted tuple list of {!Relation} stays the canonical
    identity — a table is always {e derived} from it, never the other
    way around, so set semantics, rendering and storage are untouched.
    An [Enum] column keeps its type name in the column header
    ({!Enums}), so rendering-faithful values are rebuilt on
    materialization while the hot loops compare interned label ids —
    exactly [Value.compare]'s semantics, which equates [Enum (_, l)]
    with [Str l] by label. *)

module Value = Eds_value.Value

type col =
  | Ints of int array
  | Oids of int array
  | Ids of int array  (** interned [Str] labels, see {!Eds_value.Intern} *)
  | Enums of string * int array
      (** enum type name + interned labels; flavor {!F_id}, compares and
          hashes against [Ids] by id (enum/string cross-equality) *)
  | Floats of float array
  | Values of Value.t array
      (** any cells: hashed by [Value.hash], compared by
          [Value.compare = 0] *)

type flavor = F_int | F_oid | F_id | F_float | F_values

type index_cache
(** The hash indexes already built on a table (see {!index}). *)

type table = private {
  nrows : int;
  cols : col array;  (** all of length [nrows] *)
  indexes : index_cache;
      (** built on first use, one per key-column list; a table made by
          {!of_tuples} or {!values_view} starts with none *)
}
(** Private, so that every table is made with its own empty cache: a
    copy with other columns must not inherit indexes built on these
    ones. *)

val flavor : col -> flavor

val flavors_equal : table -> table -> bool
(** Same width and column-wise same flavor — the precondition for
    whole-row columnar membership (diff/inter/freshness): within equal
    flavors, cell equality coincides with [Value.compare = 0], while
    across flavors boxed cross-equalities (Int/Real) could apply. *)

val of_tuples : arity:int -> int -> Value.t list list -> table
(** [of_tuples ~arity nrows tuples] builds the columnar shadow of a
    width-[arity] tuple list of length [nrows]: typed columns where the
    cells allow, [Values] columns elsewhere (every column of an empty
    list is an empty [Values]).  Row order is preserved.  Interns every
    string cell of a typed column. *)

val values_view : table -> table
(** The same cells with every column a [Values] column ({!values}), as
    a new table with an empty index cache. *)

val value_at : table -> row:int -> col:int -> Value.t
(** Materialize one cell ([Str] cells share the interned string). *)

val tuple_at : table -> int -> Value.t list
(** Materialize one boxed row. *)

val values : nrows:int -> col -> col
(** The same cells as a [Values] column (the column itself if it is
    one): the common flavor two columns of different flavors compare
    in. *)

val cell_equal : col -> int -> col -> int -> bool
(** [cell_equal ca i cb j]: [Value.compare]-equality of two cells,
    [false] across flavors (callers gate with {!flavors_equal} or
    compare mismatched flavors through {!values} views).  Float cells
    follow [Float.compare]: NaN equals NaN, [-0. = 0.]. *)

(** Flat chained hash index over selected key columns of one table.
    Build is sequential; probes are lock-free reads, safe from any
    domain once built.  A probe key is given as parallel arrays
    [key]/[rows]: cell [e] of the key is [key.(e)] at row [rows.(e)], so
    a join key spanning several operands probes without materializing
    anything.  The cursor protocol is allocation-free:

    {[
      let r = ref (Index.first idx ~key ~rows) in
      while !r >= 0 do
        ...consume matching row !r of the indexed table...;
        r := Index.next idx ~key ~rows !r
      done
    ]}

    Probe cells must have the same flavor as the corresponding build
    key column (gate with {!flavors_equal}, or view both through
    {!values}): across flavors, cell equality is [false] while
    [Value.compare] may equate the cells (Int/Real). *)
module Index : sig
  type t

  val build : ?on_build:(unit -> unit) -> nrows:int -> col array -> t
  (** Index rows [0 .. nrows-1] on the given key columns (each of
      length [nrows]); [on_build] fires once per row inserted (the
      build-side work counter).  Counts the distinct keys on the way:
      a row adds one unless an equal key is already in its bucket
      chain. *)

  val distinct : t -> int
  (** Number of distinct build keys (the key's NDV). *)

  val first : t -> key:col array -> rows:int array -> int
  (** First indexed row whose build-key cells equal the probe cells
      (same order as [key_cols] at build), or [-1]. *)

  val next : t -> key:col array -> rows:int array -> int -> int
  (** Next match after a row returned by {!first}/[next], or [-1];
      [key]/[rows] must be unchanged since {!first}. *)
end

val index : ?on_build:(unit -> unit) -> table -> int list -> Index.t * bool
(** [index t keys]: the index of [t] on the 0-based key columns [keys]
    (in that order), and whether it came from [t]'s cache.  The first
    use builds it ([on_build] fires once per row) and publishes it in
    the cache with a compare-and-set; concurrent first users from any
    domain may each build, and all of them get the one published
    index.  The table is immutable, so a cached index never goes
    stale: a changed relation is a new table with an empty cache. *)

val cached : table -> int list -> Index.t option
(** The index {!index} would reuse, without building one. *)

val cached_keys : table -> int list list
(** The key-column lists of the cached indexes, newest first. *)

(** Compiler from LERA scalar predicates to allocation-free row
    predicates over columnar operands. *)
module Pred : sig
  type t =
    | Always  (** constant true — no per-row work at all *)
    | Rows of (int array -> bool)
        (** [rows.(k)] is the current row of operand [k+1] *)
    | Opaque
        (** not compilable (reads a [Values] column, could raise, or a
            comparison operator was overridden in the ADT registry) —
            use the boxed evaluator *)

  val compile : adts:Eds_value.Adt.registry -> table array -> Eds_lera.Lera.scalar -> t
  (** Compiles conjunctions/disjunctions/negations of the six builtin
      comparison operators over [Col]/[Cst] sides.  Semantics replicate
      the boxed path bit-for-bit ([test (Value.compare a b)] with
      [to_bool] at the top); every shape whose boxed evaluation could
      raise, touch a collection broadcast, or hit a user-overridden
      operator compiles to [Opaque] so the fallback raises or evaluates
      identically. *)
end
