(** Cooperative per-request cancellation.

    The query server runs many statements concurrently against one
    shared session; a runaway query (a huge cartesian product, a
    diverging fixpoint) must be killable {e without} killing the
    connection or the process.  OCaml threads cannot be interrupted from
    outside, so cancellation is cooperative: the request that wants a
    budget creates a deadline ({!start}) and passes it down to the
    evaluator, whose hot loops call {!tick} on it; {!tick} raises
    {!Timeout} once the deadline has passed.

    A deadline is a plain value owned by one request, so concurrent
    requests never share one, and there is nothing to install, restore
    or clear.  Code that was handed no deadline does not tick at all.

    Cost model.  {!tick} decrements the deadline's countdown and reads
    the clock on the first tick and then once every 256 ticks, so an
    expired deadline raises at most 256 ticks late: tens of microseconds
    at the evaluator's per-combination cost.  It never locks and touches
    no shared state. *)

exception Timeout of float
(** Carries the exceeded budget in seconds. *)

type t
(** A deadline: absolute expiry, the budget it was made from, and the
    tick countdown to the next clock read.  Owned by one request; not
    meant to be ticked from two threads at once. *)

val start : float -> t
(** [start budget] is a deadline [budget] seconds from now.  A
    non-positive [budget] times out on the first {!tick}. *)

val tick : t -> unit
(** Raise {!Timeout} (carrying the budget) if the deadline has passed,
    as read on the first tick and every 256 ticks after.  Called by the
    evaluator once per enumerated combination, per filtered tuple and
    per fixpoint iteration. *)
