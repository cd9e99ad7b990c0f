(** Instrumented LERA plan evaluator.

    This is the execution substrate used to {e measure} the benefit of
    each rewriting class: every operator reports the work it performs
    into a {!stats} record (combinations enumerated by joins/searches,
    base tuples scanned, fixpoint iterations, hash-index builds and
    probes), so benchmarks compare the work of a query before and after
    rewriting rather than wall time alone.

    Two physical layers share that logical evaluator
    ({!Physical.t}): the {e naive} layer applies qualifications to
    complete operand combinations of the full cartesian product — kept
    as the golden reference, and as the counter source for the
    paper-shape experiments, because the rewriter's merging/permutation
    rules are precisely what reduces {e that} enumerated space — and the
    {e indexed} layer (the default) extracts equi-join conjuncts and
    enumerates only hash-join matches.  Both produce
    {!Relation.equal} results on every plan. *)

module Lera = Eds_lera.Lera

type stats = {
  mutable combinations : int;
      (** operand combinations enumerated by filter/join/search; under
          {!Physical.Indexed} only combinations surviving every equi
          conjunct are counted, so indexed ≤ naive on any plan *)
  mutable tuples_read : int;  (** base relation tuples scanned *)
  mutable tuples_produced : int;
  mutable fix_iterations : int;
  mutable probes : int;  (** hash-index lookups (Indexed layer only) *)
  mutable builds : int;
      (** tuples loaded into hash indexes (Indexed layer only) *)
  mutable fix_cache_hits : int;
      (** closed-fixpoint memo hits — each one skips a whole fixpoint *)
  mutable fix_cache_misses : int;  (** closed fixpoints actually computed *)
  mutable columnar_ops : int;
      (** operator evaluations that took a vectorized (columnar) fast
          path.  Every {e other} field is identical between the boxed
          and columnar paths by construction, so this is pure
          provenance: it never participates in cross-layer counter
          comparisons. *)
}

val fresh_stats : unit -> stats
val add_stats : stats -> stats -> unit
val pp_stats : Format.formatter -> stats -> unit

(** Fixpoint evaluation strategy (paper §3.2). *)
type fix_mode =
  | Naive  (** recompute the whole body each cycle *)
  | Seminaive  (** differential: recursive arms join against the delta *)

(** Physical evaluation layer.  A submodule so that [Naive] does not
    collide with the {!fix_mode} constructor of the same name. *)
module Physical : sig
  type t =
    | Naive
        (** cartesian enumeration + post-filter — the golden reference *)
    | Indexed
        (** hash joins on extracted equi conjuncts ({!Join_plan}),
            set-backed relations; produces identical results *)

  val to_string : t -> string
  val of_string : string -> t option
end

exception Eval_error of string

(** {1 Term utilities} *)

val map_occurrences : string -> (int -> Lera.rel) -> Lera.rel -> Lera.rel
(** [map_occurrences n f r] replaces the [i]-th occurrence (1-based,
    left-to-right) of name [n] — written either [Rvar n] or [Base n],
    not descending into a [Fix] that rebinds [n] — by [f i].  The
    substitution step behind semi-naive differentiation, also used by
    {!Materializer} to build per-occurrence delta variants. *)

val count_occurrences : string -> Lera.rel -> int

val base_deps : Lera.rel -> string list
(** Names the term reads from the database ([Base]/[Rvar] occurrences
    not bound by an enclosing [Fix]), sorted and deduplicated. *)

(** {1 Cross-run fixpoint memoization} *)

(** A closed-fixpoint memo that survives across runs, with
    {e per-relation} invalidation: each entry records the base relations
    the fixpoint read, by physical identity.  The copy-on-write database
    replaces exactly the relation records a write touches, so a lookup
    validates an entry in O(deps) pointer comparisons — DML invalidates
    only the fixpoints that actually read the written relation, instead
    of flushing everything.  Thread-safe. *)
module Shared_fix_cache : sig
  type t

  val create : unit -> t
  val clear : t -> unit
  val size : t -> int

  val invalidations : t -> int
  (** Stale entries evicted on lookup since creation (an atomic read,
      safe from any thread). *)
end

val run :
  ?mode:fix_mode ->
  ?physical:Physical.t ->
  ?stats:stats ->
  ?rvars:(string * Relation.t) list ->
  ?fix_cache:Shared_fix_cache.t ->
  ?deadline:Cancel.t ->
  Database.t ->
  Lera.rel ->
  Relation.t
(** Evaluate an expression.  [rvars] supplies bindings for free recursion
    variables (used internally and by tests).  Default mode is
    [Seminaive]; default physical layer is [Indexed].  The Indexed layer
    runs every equi-join through the columnar executor
    ({!Join_plan.execute}), and takes the vectorized filter, project,
    diff/inter and semi-naive freshness paths wherever the predicate
    compiles and the column flavors match ({!Column}), running the boxed
    loops otherwise; {!Physical.Naive}, the counter oracle, always stays
    boxed.  Results and all {!stats} fields except
    [columnar_ops] are identical either way.  [fix_cache] attaches a
    {!Shared_fix_cache} so closed fixpoints memoized by a previous run
    can be reused (validated per-relation against this run's database);
    without it every run memoizes into a fresh one, preserving exact
    counter parity across layers.
    [deadline] bounds the run: the hot loops {!Cancel.tick} it once per
    enumerated combination, filtered tuple and fixpoint iteration, so an
    expired deadline raises {!Cancel.Timeout}; without one nothing is
    probed.
    Raises {!Eval_error} (or {!Expr_eval.Eval_error}) on ill-formed
    plans.

    Every run additionally batches its {!stats} deltas into the
    always-on {!Eds_obs.Metrics} registry (one atomic add per field per
    run, on every exit path). *)

(** {1 EXPLAIN ANALYZE} *)

type node_report = {
  op : string;  (** operator label ([base:NAME], [join], [fix:NAME], …) *)
  mutable loops : int;  (** times this node was evaluated (fixpoint iterations) *)
  mutable rows : int;  (** output tuples, summed over loops *)
  mutable elapsed_s : float;  (** inclusive wall time, summed over loops *)
  mutable combinations : int;  (** exclusive of children *)
  mutable tuples_read : int;  (** exclusive of children *)
  mutable probes : int;  (** exclusive of children *)
  mutable builds : int;  (** exclusive of children *)
  mutable columnar : bool;
      (** this node itself (exclusive of children) took a columnar fast
          path at least once — the [layout=] tag of EXPLAIN ANALYZE *)
  mutable join_order : int list;
      (** the operand order of this node's first hash-join run
          ({!Join_plan.choice}), empty when none ran — the [order=] tag *)
  mutable reused : int;
      (** cached hash indexes its hash joins took, summed over loops —
          the [reused=] tag *)
  mutable children : node_report list;  (** first-execution order *)
}

val run_analyzed :
  ?mode:fix_mode ->
  ?physical:Physical.t ->
  ?stats:stats ->
  ?rvars:(string * Relation.t) list ->
  ?fix_cache:Shared_fix_cache.t ->
  ?deadline:Cancel.t ->
  Database.t ->
  Lera.rel ->
  Relation.t * node_report
(** Like {!run}, but also collect a per-operator execution report:
    sibling evaluations of the same operator merge into one node with a
    loop count (so a fixpoint's per-iteration arm re-evaluations fold
    together), and work counters are {e exclusive} of children — summing
    any counter over the whole report reproduces the {!stats} delta of
    the run exactly. *)

val fold_report : ('a -> node_report -> 'a) -> 'a -> node_report -> 'a
(** Pre-order fold over a report tree. *)

val pp_report : Format.formatter -> node_report -> unit
(** Indented tree, one line per operator:
    [op  (rows=… loops=… time=…ms combos=… probes=… builds=… read=…
    layout=columnar|boxed)] (zero-valued counters omitted). *)
