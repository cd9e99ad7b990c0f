(** A writer-preferring readers-writer lock.

    The query server runs every mutating statement or directive, and
    each plan-cache miss, under the write side (exclusive).  SELECTs
    take no lock at all — they evaluate against an immutable database
    snapshot — so the read side has no production caller.  Writers are
    preferred: once a writer is waiting, new readers queue behind it, so
    a stream of cheap reads cannot starve DDL.

    Acquisitions are counted in the process-wide registry counter
    [eds_rwlock_acquisitions_total{mode="read"|"write"}]; a zero read
    count under a SELECT load is the observable proof that snapshot
    reads are lock-free. *)

type t

val create : unit -> t

val with_read : t -> (unit -> 'a) -> 'a
(** Run the thunk holding a shared read lock; released on exceptions. *)

val with_write : t -> (unit -> 'a) -> 'a
(** Run the thunk holding the exclusive write lock; released on
    exceptions. *)

val readers : t -> int
(** Instantaneous active-reader count (diagnostics only). *)
