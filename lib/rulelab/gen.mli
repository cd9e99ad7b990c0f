(** Randomized schema-correct LERA plans and instances over a fixed
    four-relation schema (R0, R1 binary; R2 ternary; EDGE binary), with
    values in a small integer domain so fixpoints stay finite.

    Extracted from the physical-layer equivalence suite so the rule
    verifier ({!Verify}) draws from the same plan distribution that
    checks Naive ≡ Indexed. *)

module Lera = Eds_lera.Lera
module Database = Eds_engine.Database

val db : ?seed:int -> unit -> Database.t
(** The canonical instance (deterministic LCG contents; the default seed
    reproduces the historical test fixture byte for byte). *)

val instance : Random.State.t -> Database.t
(** A fresh instance with randomized cardinalities and contents, same
    schema as {!db} (so one [Schema.env] covers every instance). *)

(** {1 qcheck generators}

    Plans are generated together with their arity. *)

val gen_base : (Lera.rel * int) QCheck2.Gen.t
val gen_atom : int list -> Lera.scalar QCheck2.Gen.t
(** A comparison atom over operands of the given arities; column
    references stay in range. *)

val gen_qual : int list -> Lera.scalar QCheck2.Gen.t
val coerce : Lera.rel * int -> int -> Lera.rel
(** Adjust arity with a projection. *)

val gen_rel : int -> (Lera.rel * int) QCheck2.Gen.t
val gen_plan : (Lera.rel * int) QCheck2.Gen.t

val plan : Random.State.t -> Lera.rel * int
(** Draw one plan from {!gen_plan}. *)

val print_plan : Lera.rel * int -> string
