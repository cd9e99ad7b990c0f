(** Bridge between the LERA algebra and the term representation used by
    the rewriter (paper §4: "LERA operators interpreted as functions").

    Encoding:
    - relations: [rel('FILM')], [rvar('R')], [filter(r, q)], [proj(r,
      tuple(…))], [join(r1, r2, q)], [union(set(r1, …, rn))],
      [difference(r1, r2)], [intersection(r1, r2)],
      [search(list(r1, …, rn), q, tuple(e1, …, em))], [fix('R', body)],
      [nest(r, tuple(groupcols), tuple(nestcols))], [unnest(r, i)];
    - scalars: column [i.j] is [@(i, j)]; conjunction is n-ary over an
      unordered constructor, [and(bag(c1, …, cn))], so that semantic
      rules can match any pair of conjuncts with a collection variable
      (disjunction likewise);
    - a template parameter [Param (i, ty)] is the nullary application
      ["$i:ty"] (e.g. [$2:int()]): opaque to patterns, since it has no
      argument to bind, and never a [Term.Cst], so no rule mistakes it
      for a known constant.

    The unordered conjunction encoding is what makes one Figure-11 rule
    such as transitivity apply to conjuncts in any position. *)

module Term = Eds_term.Term

exception Bridge_error of string

val to_term : Lera.rel -> Term.t
val of_term : Term.t -> Lera.rel
(** Raises {!Bridge_error} if the term is not a well-formed encoding
    (e.g. after a bad user rule rewrote it into nonsense). *)

val scalar_to_term : Lera.scalar -> Term.t
val scalar_of_term : Term.t -> Lera.scalar

val is_param : Term.t -> bool
(** Is this term an encoded template parameter? *)

val has_param : Term.t -> bool
(** Does a parameter occur anywhere in the term?  Built-ins that read a
    value (ground comparisons, EVALUATE, domain checks, term
    (in)equality) veto on such terms. *)

val normalize : Term.t -> Term.t
(** Structural normalization applied after every rewrite step:
    flattens nested [and]/[or], collapses singleton and empty
    conjunctions, and evaluates the rhs constructor functions [append]
    (concatenation of list/tuple constructors) and [set_union] (union of
    set constructors) once their arguments are explicit constructors.
    Logical laws such as [f ∧ false → false] are deliberately {e not}
    applied here — they are Figure-12 rewrite rules.

    Sharing: when a subterm is already in normal form the function
    returns it physically unchanged ([normalize t == t]); after a
    rewrite step only the spine above the redex is reallocated.  The
    engine's incremental re-scan and schema memoization rely on this. *)

(** {1 Column utilities over scalar terms}

    These implement the SUBSTITUTE/SHIFT external functions of the
    Figure 7–8 rules. *)

val map_cols : (int -> int -> Term.t) -> Term.t -> Term.t
(** Replace every column reference [@(i, j)]. *)

val shift_cols : by:int -> Term.t -> Term.t
(** Add [by] to the operand index of every column reference. *)

val cols_of : Term.t -> (int * int) list
(** All column references, left to right. *)

val merge_subst : slot:int -> inner_arity:int -> proj:Term.t list -> Term.t -> Term.t
(** [merge_subst ~slot:k ~inner_arity:nz ~proj:b t] rewrites an outer
    search scalar when the inner search occupying operand [k] (with [nz]
    operands and projection list [b]) is spliced in place: references
    [@(k, j)] become [b_j] shifted by [k-1]; operands beyond [k] shift by
    [nz - 1]. *)
