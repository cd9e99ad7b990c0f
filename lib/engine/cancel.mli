(** Cooperative per-query cancellation.

    The query server runs many statements concurrently against one
    shared session; a runaway query (a huge cartesian product, a
    diverging fixpoint) must be killable {e without} killing the
    connection or the process.  OCaml threads cannot be interrupted from
    outside, so cancellation is cooperative: the evaluator's hot loops
    call {!tick}, which raises {!Timeout} once the calling thread's
    wall-clock deadline (installed by {!with_timeout}) has passed.

    Deadlines are per-{e thread}: concurrent queries on different
    connection threads each carry their own budget.  When no deadline is
    active anywhere in the process, {!tick} is a single atomic load —
    standalone (REPL / bench / test) evaluation pays nothing. *)

exception Timeout of float
(** Carries the exceeded budget in seconds. *)

val with_timeout : float -> (unit -> 'a) -> 'a
(** [with_timeout budget f] runs [f] with a deadline of [budget] seconds
    from now installed for the calling thread, uninstalling it on the
    way out through a single finalizer that runs on {e every} exit path
    — normal return, {!Timeout}, or any other exception.  A non-positive
    [budget] times out on the first {!tick}.  Nesting on one thread
    keeps the earliest deadline. *)

val clear : unit -> unit
(** Unconditionally drop the calling thread's deadline, if any.  A
    defensive backstop for threads that run many statements back to
    back (the query server's connection loop): a deadline that leaked
    out of its {!with_timeout} frame would make the thread's next
    statement die instantly with a stale {!Timeout}. *)

val tick : unit -> unit
(** Raise {!Timeout} if the calling thread's deadline has passed; no-op
    (one atomic load) when no deadline is active process-wide.  Called
    by the evaluator once per enumerated combination, per filtered
    tuple and per fixpoint iteration. *)

val active : unit -> bool
(** Whether any thread currently has a deadline installed. *)
