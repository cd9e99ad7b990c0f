(** The default rule library, written in the rule language itself and
    parsed once, at load time — rules are data, not code, which is the
    paper's extensibility claim.  Every accessor returns the same
    (physically equal) immutable list on every call.  Each set mirrors
    a figure of the paper:

    - {!merging} — operation merging (§5.1, Figure 7): canonicalize
      filter/project/join into [search], merge nested searches, merge
      unions.
    - {!permutation} — operation permutation (§5.2, Figure 8): push
      searches through unions and nests, push single-operand conjuncts
      down as filters.
    - {!fixpoint} — fixpoint reduction (§5.3, Figure 9): linearize the
      composition form of transitive closure and invoke the
      Alexander/magic method on recursive predicates restricted by
      constants.
    - {!semantic} — semantic knowledge addition (§6.1, Figures 10–11):
      integrity-constraint addition, transitivity of comparisons and
      inclusion, equality substitution.
    - {!simplification} — predicate simplification (§6.2, Figure 12):
      contradictions, tautologies, neutral elements, constant folding,
      domain inconsistencies. *)

val merging : unit -> Rule.t list
val permutation : unit -> Rule.t list
val fixpoint : unit -> Rule.t list
val semantic : unit -> Rule.t list
val simplification : unit -> Rule.t list

val all : unit -> Rule.t list

val find : string -> Rule.t
(** Look up a default rule by name; raises [Not_found]. *)
