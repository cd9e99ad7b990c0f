(* The default rule library.  Rule texts deliberately follow the paper's
   figures; where a paper rule leaves an external function's arguments
   implicit (SUBSTITUTE, SCHEMA, REFER), the text spells them out — see
   DESIGN.md. *)

let merging_text =
  {|
  -- canonicalization: express the basic operators as compound searches
  filter_to_search:
    filter(r, f) --> search(list(r), f, p) / schema(list(r), p) ;

  proj_to_search:
    proj(r, p) --> search(list(r), true, p) ;

  join_to_search:
    join(r, s, f) --> search(list(r, s), f, p) / schema(list(r, s), p) ;

  -- Figure 7: two successive searches merge, qualifications connected by AND
  search_merge:
    search(list(x*, search(z, g, b), v*), f, a)
    --> search(append(list(x*), z, list(v*)), and(f2, g2), a2)
    / substitute(f, x*, b, z, f2), substitute(a, x*, b, z, a2), shift(g, x*, g2) ;

  -- Figure 7: union merging
  union_merge:
    union(set(x*, union(z))) --> union(set_union(set(x*), z)) ;

  union_singleton:
    union(set(r)) --> r ;
|}

let permutation_text =
  {|
  -- Figure 8: a search over a union becomes a union of searches
  push_search_union:
    search(list(x*, union(z), y*), f, a)
    --> u
    / distribute(x*, z, y*, f, a, u) ;

  -- Figure 8: push the part of a search condition that only refers to
  -- the grouping attributes of a nest inside the nest
  push_search_nest:
    search(list(x*, nest(z, g, c), y*), q, e)
    --> search(list(x*, nest(search(list(z), qi, zp), g, c), y*), qj, e)
    / split_nest_qual(q, x*, g, qi, qj), schema(list(z), zp) ;

  -- push the part of a search condition that does not refer to the
  -- flattened column inside an unnest (nest/unnest are §3.4 operators);
  -- tried before the generic select push, which would otherwise claim
  -- the conjuncts for a filter above the unnest
  push_search_unnest:
    search(list(x*, unnest(z, i), y*), q, e)
    --> search(list(x*, unnest(filter(z, qi), i), y*), qj, e)
    / split_unnest_qual(q, x*, i, qi, qj) ;

  -- selections commute with difference and intersection on the kept
  -- side (filtering the subtrahend of a difference would be unsound)
  push_search_diff:
    search(list(x*, difference(a, b), y*), q, e)
    --> search(list(x*, difference(filter(a, qi), b), y*), qj, e)
    / split_input_qual(q, x*, difference(a, b), y*, qi, qj) ;

  push_search_inter:
    search(list(x*, intersection(a, b), y*), q, e)
    --> search(list(x*, intersection(filter(a, qi), b), y*), qj, e)
    / split_input_qual(q, x*, intersection(a, b), y*, qi, qj) ;

  -- push single-operand conjuncts down as filters on stored relations
  push_select:
    search(list(x*, r, y*), q, e)
    --> search(list(x*, filter(r, qi), y*), qj, e)
    / split_input_qual(q, x*, r, y*, qi, qj) ;

  filter_merge:
    filter(filter(r, f), g) --> filter(r, and(f, g)) ;

  -- a purely disjunctive qualification becomes a union of searches
  -- (sound under set semantics), so each disjunct pushes independently
  split_or:
    search(z, and(bag(or(bag(d*)))), e) --> u / or_to_union(z, bag(d*), e, u) ;
|}

let fixpoint_text =
  {|
  -- rewrite the Figure-5 composition arm into its right-linear form
  tc_linearize:
    fix(n, b) --> u / linearize(fix(n, b), u) ;

  -- Figure 9: invoke the Alexander method on a fixpoint restricted by
  -- constants in the enclosing search
  alexander_rule:
    search(list(x*, fix(n, b), y*), q, e)
    --> search(list(x*, u, y*), q, e)
    / adornment(x*, fix(n, b), q, sig), alexander(fix(n, b), sig, u) ;
|}

let semantic_text =
  {|
  -- Figure 10: add the integrity constraints declared for the types of
  -- the qualification's scalars
  add_constraints:
    and(bag(c*)) --> and(bag(c*, added*)) / domain_constraints(c*, added*) ;

  -- Figure 11 (1): transitivity of operations
  eq_transitivity:
    and(bag(c*, x = y, y = z))
    / notin(x = z, c*), distinct(x, z), distinct(x, y), distinct(y, z)
    --> and(bag(c*, x = y, y = z, x = z)) ;

  lt_transitivity:
    and(bag(c*, x < y, y < z)) / notin(x < z, c*), distinct(x, z)
    --> and(bag(c*, x < y, y < z, x < z)) ;

  le_transitivity:
    and(bag(c*, x <= y, y <= z)) / notin(x <= z, c*), distinct(x, z)
    --> and(bag(c*, x <= y, y <= z, x <= z)) ;

  include_transitivity:
    and(bag(c*, include(x, y), include(y, z)))
    / notin(include(x, z), c*), distinct(x, z)
    --> and(bag(c*, include(x, y), include(y, z), include(x, z))) ;

  -- Figure 11 (2): equality substitution into predicates
  eq_substitution:
    and(bag(c*, x = y, F(u*, x, v*)))
    / pred(F), distinct(x, y), notin(F(u*, y, v*), c*)
    --> and(bag(c*, x = y, F(u*, x, v*), F(u*, y, v*))) ;
|}

let simplification_text =
  {|
  -- Figure 12 and neighbours: contradictions between conjuncts
  contradiction_gt_le:  and(bag(c*, x > y, x <= y)) --> false ;
  contradiction_lt_ge:  and(bag(c*, x < y, x >= y)) --> false ;
  contradiction_lt_gt:  and(bag(c*, x < y, x > y)) --> false ;
  contradiction_eq_neq: and(bag(c*, x = y, x <> y)) --> false ;
  contradiction_eq_lt:  and(bag(c*, x = y, x < y)) --> false ;
  contradiction_eq_gt:  and(bag(c*, x = y, x > y)) --> false ;
  contradiction_lt_swap: and(bag(c*, x < y, y < x)) --> false ;
  contradiction_le_swap: and(bag(c*, x <= y, y < x)) --> false ;
  contradiction_eq_lt_swap: and(bag(c*, x = y, y < x)) --> false ;
  contradiction_eq_gt_swap: and(bag(c*, x = y, y > x)) --> false ;

  -- neutral and absorbing elements
  and_false: and(bag(c*, false)) --> false ;
  or_true:   or(bag(c*, true)) --> true ;
  and_true:  and(bag(c*, true)) / nonempty(c*) --> and(bag(c*)) ;
  or_false:  or(bag(c*, false)) / nonempty(c*) --> or(bag(c*)) ;
  not_true:  not(true) --> false ;
  not_false: not(false) --> true ;
  not_not:   not(not(x)) --> x ;

  -- reflexivity
  eq_reflexive: x = x --> true ;
  le_reflexive: x <= x --> true ;
  ge_reflexive: x >= x --> true ;
  lt_irreflexive: x < x --> false ;
  gt_irreflexive: x > x --> false ;
  neq_irreflexive: x <> x --> false ;

  -- Figure 12: x - y = 0 simplifies to x = y
  minus_zero: x - y = 0 --> x = y ;

  -- subsumption between constant bounds on the same expression: the
  -- weaker conjunct disappears (§6.2 "predicate elimination")
  subsume_gt: and(bag(c*, x > k1, x > k2)) / ISA(k1, constant), ISA(k2, constant), k1 >= k2
    --> and(bag(c*, x > k1)) ;
  subsume_ge: and(bag(c*, x >= k1, x >= k2)) / ISA(k1, constant), ISA(k2, constant), k1 >= k2
    --> and(bag(c*, x >= k1)) ;
  subsume_lt: and(bag(c*, x < k1, x < k2)) / ISA(k1, constant), ISA(k2, constant), k1 <= k2
    --> and(bag(c*, x < k1)) ;
  subsume_le: and(bag(c*, x <= k1, x <= k2)) / ISA(k1, constant), ISA(k2, constant), k1 <= k2
    --> and(bag(c*, x <= k1)) ;
  subsume_gt_ge: and(bag(c*, x > k1, x >= k2)) / ISA(k1, constant), ISA(k2, constant), k1 >= k2
    --> and(bag(c*, x > k1)) ;
  subsume_lt_le: and(bag(c*, x < k1, x <= k2)) / ISA(k1, constant), ISA(k2, constant), k1 <= k2
    --> and(bag(c*, x < k1)) ;
  -- constant bounds that cannot both hold
  bounds_empty_gt_lt: and(bag(c*, x > k1, x < k2)) / ISA(k1, constant), ISA(k2, constant), k1 >= k2
    --> false ;
  bounds_empty_ge_lt: and(bag(c*, x >= k1, x < k2)) / ISA(k1, constant), ISA(k2, constant), k1 >= k2
    --> false ;
  bounds_empty_gt_le: and(bag(c*, x > k1, x <= k2)) / ISA(k1, constant), ISA(k2, constant), k1 >= k2
    --> false ;
  bounds_empty_eq_gt: and(bag(c*, x = k1, x > k2)) / ISA(k1, constant), ISA(k2, constant), k1 <= k2
    --> false ;
  bounds_empty_eq_lt: and(bag(c*, x = k1, x < k2)) / ISA(k1, constant), ISA(k2, constant), k1 >= k2
    --> false ;

  -- §6.1: a constant outside an enumeration domain cannot be a member
  enum_inconsistency:
    member(k, s) / isa(k, constant), not_in_domain(k, s) --> false ;

  -- negation normalization: complements of the comparison operators
  not_lt: not(x < y)  --> x >= y ;
  not_le: not(x <= y) --> x > y ;
  not_gt: not(x > y)  --> x <= y ;
  not_ge: not(x >= y) --> x < y ;
  not_eq: not(x = y)  --> x <> y ;
  not_ne: not(x <> y) --> x = y ;

  -- cleanup: a restriction that became trivially true disappears
  filter_true: filter(r, true) --> r ;

  -- emptiness propagation: an operand starved by a false qualification
  -- empties the whole search; empty arms leave a union
  search_empty_input:
    search(list(x*, r, y*), q, e) / empty_rel(r), distinct(q, false)
    --> search(list(x*, r, y*), false, e) ;

  empty_union_arm:
    union(set(x*, r)) / empty_rel(r), nonempty(x*) --> union(set(x*)) ;

  -- same rule as in the merging block (§4.2 allows this): a singleton
  -- union left by arm removal collapses in place
  union_singleton: union(set(r)) --> r ;

  -- Figure 12: evaluate applications whose arguments are all constants
  const_fold:
    F(c*) --> a / evaluate(F(c*), a) ;
|}

(* Each pack is parsed once, when the module initializes: a [Rule.t] has
   no mutable field, so every program and session shares these lists.
   Eager rather than [lazy] because concurrent forcing of a lazy value
   from two threads raises [CamlinternalLazy.Undefined]. *)
let parse = Rule_parser.parse_rules
let merging_rules = parse merging_text
let permutation_rules = parse permutation_text
let fixpoint_rules = parse fixpoint_text
let semantic_rules = parse semantic_text
let simplification_rules = parse simplification_text

let all_rules =
  merging_rules @ permutation_rules @ fixpoint_rules @ semantic_rules
  @ simplification_rules

let merging () = merging_rules
let permutation () = permutation_rules
let fixpoint () = fixpoint_rules
let semantic () = semantic_rules
let simplification () = simplification_rules
let all () = all_rules

let find name =
  match List.find_opt (fun (r : Rule.t) -> r.Rule.name = name) all_rules with
  | Some r -> r
  | None -> raise Not_found
