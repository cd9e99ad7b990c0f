(** In-memory relations.

    Relations have set semantics: construction deduplicates tuples, which
    is what guarantees termination of the fixpoint operator (paper §3.2).
    A tuple is a list of {!Value.t}, one per schema attribute.

    Next to the canonical sorted tuple list every relation carries a
    lazily-built hash-set view (tuples keyed by a precomputed hash
    compatible with {!compare_tuples}), so {!mem}, {!diff}, {!inter} and
    the fixpoint freshness checks are O(1) per tuple instead of a scan,
    and cardinality is cached at construction. *)

module Value = Eds_value.Value
module Schema = Eds_lera.Schema

type tuple = Value.t list

(** Hashtables keyed on whole tuples ({!compare_tuples} equality,
    {!hash_tuple} hashing).  Shared by the membership view and the
    nest-grouping path of the evaluator. *)
module Tuple_tbl : Hashtbl.S with type key = tuple

type index
(** The hash-set view of a relation's tuples. *)

type 'a memo
(** A cache cell built on first use and safe to read from any number of
    threads and domains at once: concurrent first readers may each
    build the (pure) value, and one of the builds is published with a
    compare-and-set. *)

type t = private {
  schema : Schema.t;
  tuples : tuple list;  (** sorted, duplicate-free *)
  card : int;  (** [List.length tuples], cached *)
  index : index memo;  (** hash-set over [tuples], built on first use *)
  cols : Column.table memo;
      (** columnar shadow, derived from [tuples] on first use (see
          {!Column.of_tuples}); the hash indexes joins build on it stay
          cached there ({!Column.index}), once per relation version *)
}

val make : Schema.t -> tuple list -> t
(** Sorts and deduplicates.  Raises [Invalid_argument] if a tuple's width
    differs from the schema's arity. *)

val empty : Schema.t -> t

val with_schema : Schema.t -> t -> t
(** Retag under a same-arity schema, sharing tuples and the lazy
    index/columnar caches (all schema-name-independent), so the
    retagged relation also reuses the shadow's cached hash indexes.
    O(1); raises
    [Invalid_argument] on arity mismatch. *)

val cardinality : t -> int
val is_empty : t -> bool

val mem : tuple -> t -> bool
(** O(1) expected: probes the hash-set view.  Safe to call concurrently
    from several threads or domains. *)

val columns : t -> Column.table
(** The columnar shadow of the tuples, built on first use.  Safe to
    call concurrently, like {!mem}. *)

val filteri : (int -> tuple -> bool) -> t -> t
(** Subset of the tuples by position (0-based, canonical order) and
    value; keeps the schema.  O(n) with no re-sort, since a subset of
    the sorted duplicate-free list is itself sorted and duplicate-free. *)

val equal : t -> t -> bool
(** Same tuple sets (schemas are not compared beyond arity). *)

val union : t -> t -> t
(** Linear merge of the two sorted sides (keeps the left schema).
    Raises [Invalid_argument] if the operand arities differ. *)

val diff : t -> t -> t
val inter : t -> t -> t
(** Hash-probe the right side per left tuple.  Raise [Invalid_argument]
    if the operand arities differ. *)

val compare_tuples : tuple -> tuple -> int

val hash_tuple : tuple -> int
(** Hash compatible with [compare_tuples = 0] equality (numeric
    [Int]/[Real] and [Enum]/[Str] cross-equalities included). *)

val pp : Format.formatter -> t -> unit
(** Tabular dump, one tuple per line. *)
