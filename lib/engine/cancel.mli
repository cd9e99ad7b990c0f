(** Cooperative per-query cancellation.

    The query server runs many statements concurrently against one
    shared session; a runaway query (a huge cartesian product, a
    diverging fixpoint) must be killable {e without} killing the
    connection or the process.  OCaml threads cannot be interrupted from
    outside, so cancellation is cooperative: the evaluator's hot loops
    call {!tick}, which raises {!Timeout} once the calling thread's
    wall-clock deadline (installed by {!with_timeout}) has passed.

    Deadlines are per-{e thread}: concurrent queries on different
    connection threads each carry their own budget.

    Cost model.  {!tick} never locks.  With no deadline installed
    anywhere in the process it is one atomic load, so standalone (REPL /
    bench / test) evaluation pays nothing.  Otherwise it finds the
    calling thread's entry in a short immutable list (one entry per
    thread with a deadline) and decrements that entry's countdown; the
    clock is read on the first tick after {!with_timeout} and then once
    every 256 ticks.  So an expired deadline raises at most 256 ticks
    late: tens of microseconds at the evaluator's per-combination cost.
    Only {!with_timeout} (on entry and exit) and {!clear} take a lock.

    Domain safety.  The list is published through an [Atomic.t] and is
    never mutated in place; an entry's countdown is read and written
    only by its owning thread.  Threads on different domains can tick
    concurrently without sharing any mutable state. *)

exception Timeout of float
(** Carries the exceeded budget in seconds. *)

val with_timeout : float -> (unit -> 'a) -> 'a
(** [with_timeout budget f] runs [f] with a deadline of [budget] seconds
    from now installed for the calling thread, uninstalling it on the
    way out through a single finalizer that runs on {e every} exit path
    — normal return, {!Timeout}, or any other exception.  A non-positive
    [budget] times out on the first {!tick}.  Nesting on one thread
    keeps the earliest deadline, and {!Timeout} carries the budget of
    whichever deadline binds; leaving the inner frame restores the outer
    deadline together with its tick countdown. *)

val clear : unit -> unit
(** Unconditionally drop the calling thread's deadline, if any.  A
    defensive backstop for threads that run many statements back to
    back (the query server's connection loop): a deadline that leaked
    out of its {!with_timeout} frame would make the thread's next
    statement die instantly with a stale {!Timeout}. *)

val tick : unit -> unit
(** Raise {!Timeout} if the calling thread's deadline has passed, as
    read on the first tick after install and every 256 ticks after; a
    no-op (one atomic load) when no deadline is active process-wide.
    Called by the evaluator once per enumerated combination, per
    filtered tuple and per fixpoint iteration. *)

val active : unit -> bool
(** Whether any thread currently has a deadline installed. *)
