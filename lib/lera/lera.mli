(** LERA, the extended relational algebra of the EDS server (paper §3).

    LERA is the target language of the query rewriter: an ESQL query is a
    LERA expression mapping collections into a collection.  It extends
    Codd's algebra with a fixpoint operator, nest/unnest operators and
    ADT function calls inside qualifications and projections.

    Attribute references are positional, as in the paper ([1.2] is the
    second attribute of the first operand of an n-ary operator). *)

module Value = Eds_value.Value
module Vtype = Eds_value.Vtype

(** Scalar expressions: constants, positional column references, ADT
    function calls and template parameters.  Boolean-valued scalars
    serve as qualifications; conjunction/disjunction/negation are the
    ADT functions [and]/[or]/[not] so that one expression type covers
    "possibly complex conditions" uniformly. *)
type scalar =
  | Cst of Value.t
  | Col of int * int  (** [Col (i, j)] = [i.j], both 1-based *)
  | Call of string * scalar list
  | Param of int * Vtype.t
      (** [Param (i, ty)]: literal slot [i] (1-based) of a query
          template, of type [ty].  Its value is fixed for a whole
          execution but unknown while planning: no rewrite may read it,
          and a plan holding parameters must be {!bind}ed before it is
          evaluated. *)

type rel =
  | Base of string  (** stored relation *)
  | Rvar of string  (** recursion variable bound by an enclosing [Fix] *)
  | Filter of rel * scalar
  | Project of rel * scalar list
  | Join of rel * rel * scalar
  | Union of rel list  (** the n-ary [union*] *)
  | Diff of rel * rel
  | Inter of rel * rel
  | Search of rel list * scalar * scalar list
      (** compound projection + restriction + n-ary join (paper §3.1) *)
  | Fix of string * rel
      (** [Fix (r, e)] computes the saturation R = E(R) (paper §3.2);
          [Rvar r] inside [e] denotes R *)
  | Nest of rel * int list * int list
      (** [Nest (r, group, nested)]: group on columns [group], collecting
          columns [nested] into a set-valued attribute appended last *)
  | Unnest of rel * int
      (** flatten the collection-valued column [i] *)

(** {1 Qualification helpers} *)

val conj : scalar list -> scalar
(** Conjunction, flattening nested [and]s; [conj []] is [true]. *)

val disj : scalar list -> scalar

val conjuncts : scalar -> scalar list
(** Inverse of {!conj}: top-level conjuncts ([true] yields []). *)

val tru : scalar
val fls : scalar

val eq : scalar -> scalar -> scalar
val col : int -> int -> scalar

(** {1 Structure} *)

val equal_scalar : scalar -> scalar -> bool
val equal : rel -> rel -> bool

val hash_scalar : scalar -> int
val hash : rel -> int
(** Structural hashes compatible with {!equal_scalar}/{!equal} — equal
    terms hash equally, so terms can key hashtables (the evaluator's
    closed-fixpoint memo). *)

val operator_count : rel -> int
(** Number of algebra operators — the Figure-7 "size of a LERA program"
    metric used by the merging experiments. *)

val scalar_cols : scalar -> (int * int) list
(** Column references occurring in a scalar, left to right. *)

val free_rvars : rel -> string list
(** Recursion variables not bound by an enclosing [Fix]. *)

val obviously_empty : rel -> bool
(** Conservative syntactic emptiness: true when the expression provably
    yields no tuples because a [false] qualification (produced by the
    simplification rules detecting an inconsistency, §6.2) starves it.
    A [false] answer means "don't bother executing"; [true] results are
    always sound. *)

val inputs : rel -> rel list
(** Direct relational operands of an operator. *)

val map_scalars : (scalar -> scalar) -> rel -> rel
(** Rewrite every qualification/projection scalar of the {e root} operator
    (not recursive). *)

(** {1 Template parameters} *)

val bind : Value.t array -> rel -> rel
(** [bind values r] replaces every [Param (i, _)] by [Cst values.(i-1)]. *)

val params : rel -> int list
(** The slots of the parameters occurring in [r], ascending, without
    duplicates. *)

(** {1 Pretty printing (paper concrete syntax)} *)

val pp_scalar : Format.formatter -> scalar -> unit
val pp : Format.formatter -> rel -> unit
(** Single-line, paper-style concrete syntax. *)

val pp_tree : Format.formatter -> rel -> unit
(** Indented operator tree, one operator per line — readable for the
    large plans the magic transformation produces. *)

val to_string : rel -> string
val scalar_to_string : scalar -> string
