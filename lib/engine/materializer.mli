(** Materialized-view maintenance.

    A registry of materialized views — each a LERA plan over base
    relations (and earlier materialized views, referenced as [Base]) —
    whose extents are stored as ordinary {!Relation.t}s in the
    {!Database}, so a query against a view is an O(1) base scan through
    the existing join/columnar machinery instead of a re-evaluation.

    Under DML the registry maintains extents {e incrementally}:
    insertions propagate by semi-naive per-occurrence delta substitution
    (for recursive views the delta seeds a continued semi-naive
    fixpoint); deletions use delete-and-rederive — an over-deletion
    fixpoint collects every extent tuple with a derivation through a
    deleted tuple, then surviving support rederives anything
    over-deleted that is still justified.  Steps whose estimated cost
    ({!Eds_lera.Cost}) exceeds a caller-supplied recompute estimate, and
    plans outside the maintainable fragment (non-monotone operators,
    changes reaching a nested fixpoint), fall back to a full recompute
    of the view — correctness never depends on the delta rules applying.

    The registry never publishes to the live database during
    maintenance: {!apply} works on an O(1) snapshot and returns the full
    update set for the caller to install atomically with
    {!Database.replace_many}. *)

module Lera = Eds_lera.Lera
module Schema = Eds_lera.Schema

type view = private {
  name : string;
  plan : Lera.rel;
  schema : Schema.t;
  deps : string list;
      (** relations the plan reads — base tables and upstream views *)
  monotone : bool;  (** no [Diff]/[Nest]: delta propagation is sound *)
}

type stats = {
  mutable maintenance_runs : int;  (** incremental maintenance steps *)
  mutable fallback_recomputes : int;
      (** maintenance steps resolved by full recompute (cost gate or
          unmaintainable plan) *)
  mutable refreshes : int;  (** explicit REFRESH / [.refresh] runs *)
  mutable delta_tuples : int;
      (** tuples added to or removed from extents by maintenance *)
  mutable last_refresh : float;
      (** Unix time of the last full (re)compute, 0. if never *)
}

type t

val create : unit -> t
val stats : t -> stats

val register : t -> name:string -> plan:Lera.rel -> schema:Schema.t -> unit
(** Add (or redefine) a view.  Registration order is maintenance order;
    since a view may only reference previously declared views, it is a
    topological order of the dependency DAG. *)

val unregister : t -> string -> unit
val find : t -> string -> view option
(** Case-insensitive, like the catalog. *)

val is_view : t -> string -> bool
val views : t -> view list

val initialize :
  t ->
  physical:Eval.Physical.t ->
  ?stats:Eval.stats ->
  ?deadline:Cancel.t ->
  Database.t ->
  string ->
  Relation.t
(** Compute and install the initial extent of a registered view
    (CREATE MATERIALIZED VIEW time).  Raises [Invalid_argument] if the
    name is not registered. *)

val refresh :
  t ->
  physical:Eval.Physical.t ->
  ?stats:Eval.stats ->
  ?deadline:Cancel.t ->
  Database.t ->
  string ->
  Relation.t option
(** Force a full recompute of one view's extent and install it.
    [None] if the name is not a registered view.  The database is
    written only once the extent is computed: a [deadline] that expires
    (raising {!Cancel.Timeout}) leaves it as it was. *)

val apply :
  t ->
  physical:Eval.Physical.t ->
  ?stats:Eval.stats ->
  ?deadline:Cancel.t ->
  ?recompute_cost:(Lera.rel -> float) ->
  Database.t ->
  table:string ->
  before:Relation.t ->
  after:Relation.t ->
  (string * Relation.t) list
(** [apply t db ~table ~before ~after] is the update set a DML statement
    replacing [table]'s extent [before] by [after] must install: the
    base change itself plus the maintained extent of every (transitive)
    dependent view, in order.  The live [db] is only snapshotted, never
    written — pass the result to {!Database.replace_many} for a single
    atomic publish.  [recompute_cost] estimates the cost of fully
    recomputing a plan (the session passes its {!Eds_lera.Cost} based
    estimator); a maintenance step estimated above it falls back to
    recompute.  Every evaluation of the step ticks [deadline]. *)
