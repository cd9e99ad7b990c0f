(** The edsd TCP query server.

    One process serves many concurrent connections against a single
    shared {!Eds.Session}.  SELECTs plan through the shared
    {!Plan_cache} (via {!Planner}) and evaluate {e without any lock}
    against an immutable copy-on-write database snapshot
    ({!Eds.Session.snapshot_db}); only a plan-cache miss — which must
    read the shared catalog — briefly enters the server's one exclusive
    section (a mutex), with a double-check so racing threads plan a cold
    query once.  Every mutating statement, [SAVE], [VERIFY RULES] and
    [STATS RESET] runs in that section too; under WAL-backed durability
    ({!start}'s [wal]) each committed DML/DDL statement is appended and
    fsync'd before it is acknowledged.  Each statement gets a wall-clock budget enforced
    cooperatively by {!Eds_engine.Cancel}: an overrunning query dies
    with an [error] response, the connection survives.

    Admission control: at most [max_connections] connections are served
    at once; beyond that, [backlog] connections queue in the kernel and
    each one popped over the cap is refused with a one-shot [busy]
    response.  See {!Protocol} for the wire format and its fixed command
    set: edsql shell directives are refused, so rules, limits and the
    physical layer stay what the process that started the server set. *)

module Session = Eds.Session
module Wal = Eds.Wal

type config = {
  host : string;  (** bind address, default ["127.0.0.1"] *)
  port : int;  (** 0 = ephemeral; read the bound port with {!port} *)
  max_connections : int;  (** served concurrently; extras get [busy] *)
  backlog : int;  (** kernel accept-queue bound *)
  query_timeout : float option;  (** per-statement budget, seconds *)
  cache_capacity : int;  (** shared plan-cache entries *)
  slow_query_ms : float option;
      (** log every request at least this slow (milliseconds); [None]
          disables the slow-query log *)
  slow_log : (string -> unit) option;
      (** sink for slow-query JSON lines (one object per line: query
          text, total and per-phase latency, cache origin, work
          counters).  Default: stderr, mutex-protected. *)
}

val default_config : config
(** [127.0.0.1:0], 64 connections, backlog 16, 30 s timeout, 256
    plans, no slow-query log. *)

type t

val start : ?config:config -> ?wal:Wal.Manager.handle -> Session.t -> t
(** Bind, listen and spawn the accept thread; returns immediately.  The
    session must not be used by the caller concurrently with the
    running server (hand it over).  [wal] (from
    {!Wal.Manager.recover}) turns on durability: committed writes are
    logged-then-acknowledged, and [SAVE <db-path>] checkpoints and
    resets the log. *)

val port : t -> int
(** The actually-bound port (useful with [port = 0]). *)

val config : t -> config
val session : t -> Session.t
(** The session handed to {!start}; the server serves it for its whole
    life. *)

val wal : t -> Wal.Manager.handle option

val checkpoint : t -> unit
(** Checkpoint in the exclusive section (no-op without a WAL) — the clean
    path for a daemon shutting down, so restart replays nothing. *)

(** {1 Telemetry}

    The process-wide {!Eds_obs.Metrics} registry is the only store of
    every cumulative tally the server reports; STATS, METRICS and
    METRICS PROM are views of it.  In [edsd], which serves one instance
    per process, the registry's totals are this server's; a process
    running several servers in turn (tests, the bench) reads them as
    differences. *)

val table : (string * string * (string * string) list) list
(** The rows STATS, METRICS and [edsd]'s shutdown line render from:
    [(METRICS key, registry family, labels)].  A key's value is the sum
    of the family's samples carrying the labels — registry cells for
    cumulative counters, this instance's collector for point-in-time
    state ({!Eds.Repl.table_value}).  The [wal.*] rows are rendered
    only with a WAL. *)

val metric : t -> string -> float
(** The current value of a {!table} key.  Raises [Not_found] for a key
    outside the table. *)

val metrics : t -> Eds_obs.Obs.Json.t
(** The [METRICS] wire payload: a flat JSON object of every {!table}
    row, plus the values no registry family stores — the plan-cache hit
    rate (derived), [session.fix_cache.invalidations], [wal.enabled] and
    the WAL file's current [wal.records]/[wal.bytes]/[wal.replayed]. *)

val stop : t -> unit
(** Stop accepting, sever every live connection, join all threads.
    Idempotent.  The session survives (e.g. to save it). *)
