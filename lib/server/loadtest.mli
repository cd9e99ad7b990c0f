(** Load generator for the query server: drives N concurrent client
    connections over a paper-shape workload (Figure-8 style
    selection-pushdown joins over FILM/APPEARS_IN, an R ⋈ S ⋈ T chain
    join, and a recursive reachability view), and verifies every
    response byte-for-byte against a local single-session replay.

    The workload is deliberately wire-expressible (plain columns, no
    object values), so the exact same statements can be replayed
    through {!Eds.Session.exec_string} to produce the expected
    payloads. *)

module Session = Eds.Session

val setup_statements : string list
(** DDL + INSERTs, one statement per line, executable in order over the
    wire or locally. *)

val queries : string list
(** The mixed query set; client [i] starts at offset [i] and cycles. *)

val apply_setup : Session.t -> unit
(** Replay {!setup_statements} into a local session. *)

val setup_over_wire : Client.t -> unit
(** Replay {!setup_statements} over one connection; raises [Failure] on
    any non-[ok] response. *)

val expected_payloads : Session.t -> (string * string) list
(** [query → rendered payload] for every entry of {!queries}, computed
    by the given session exactly as the server renders results.  Call
    it on a fresh session after {!apply_setup}. *)

(** {1 Mixed read/write workload} *)

val mix_table : int -> string
(** Client [i]'s private table, ["MIX_<i>"] — writes never collide
    across clients, so every response is verifiable. *)

val mix_ddl : int -> string
(** The DDL creating {!mix_table}[ i]. *)

val mixed_op :
  index:int -> int -> [ `Write of string | `Shared_read of string | `Private_read of string ]
(** Deterministic op [j] of client [index]: per 5 ops, an INSERT and an
    UPDATE/DELETE on the private table, a shared-table read and two
    private-table reads. *)

type outcome = {
  clients : int;
  per_client : int;
  total : int;  (** requests attempted *)
  ok : int;
  writes : int;  (** [ok] responses that were write acks (mixed mode) *)
  errors : int;  (** [error] responses *)
  busy : int;  (** [busy] refusals *)
  protocol_errors : int;  (** malformed frames *)
  dropped_connections : int;  (** connections that died mid-run *)
  elapsed_s : float;
  qps : float;  (** ok responses per second *)
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
  bit_identical : bool;
      (** every [ok] payload matched the expected rendering (vacuously
          true when no expectations were supplied) *)
  cache_hits : int;  (** plan-cache hit delta over the run *)
  cache_misses : int;
  hit_rate : float;  (** of the deltas; 0 when nothing ran *)
  wal_fsyncs : int;
      (** WAL fsync delta over the run; with group commit under write
          concurrency this is strictly less than [wal_commits] *)
  wal_commits : int;  (** durable-commit delta; 0 when the WAL is off *)
  server_p50_ms : float;
      (** quantiles of the run's delta of the server-side
          [eds_query_duration_seconds{verb="select"}] histogram, fetched
          via [METRICS PROM] before and after the fan-out; 0 when the
          fetch failed or nothing was recorded *)
  server_p95_ms : float;
  server_p99_ms : float;
  ping_p50_ms : float;
      (** round-trip percentiles of no-op PINGs interleaved into the
          load (one per four requests): the transport + scheduling floor
          a query's RTT pays on top of server-side processing, measured
          under the same concurrency *)
  ping_p95_ms : float;
  ping_p99_ms : float;
  client_mean_ms : float;  (** mean query round-trip *)
  ping_mean_ms : float;  (** mean no-op round-trip: the floor *)
  server_mean_ms : float;
      (** server-side histogram sum/count over the run's delta *)
  server_within_client : bool;
      (** the structural direction alone: at each of p50/p95/p99 the
          server-side quantile never exceeds the client-side value by
          more than one log₂ bucket (server processing is a component
          of the client round trip).  Holds regardless of queueing, so
          it is the part safe to gate when the loadgen shares a runtime
          with the server (in-process benchmarks). *)
  percentiles_agree : bool;
      (** the server-side histogram is consistent with the client-side
          measurements: at each of p50/p95/p99 the server quantile never
          exceeds the client value by more than one log₂ bucket
          (processing is a component of the round trip); the mean
          identity E[RTT] = E[ping floor] + E[service] holds within the
          largest of 0.5 ms, the server mean, and half the ping mean
          (the floor estimate's own uncertainty scales with the floor);
          and at the median — where ranks are stable — the
          floor-adjusted client value matches the server value within
          one bucket width plus the same 0.5 ms scheduling allowance.
          Queue waits do not correspond rank-by-rank across the two
          vantage points, so tail quantiles are bounded, not equated.
          Vacuously true when no server-side data was recorded. *)
}

val run :
  ?host:string ->
  ?expected:(string * string) list ->
  port:int ->
  clients:int ->
  per_client:int ->
  unit ->
  outcome
(** Fan out [clients] connections, each issuing [per_client] requests
    round-robin over {!queries}, and aggregate.  Plan-cache deltas are
    read from [METRICS] before and after. *)

val run_mixed :
  ?host:string ->
  ?physical:Session.Eval.Physical.t ->
  ?expected:(string * string) list ->
  port:int ->
  clients:int ->
  per_client:int ->
  unit ->
  outcome
(** Mixed read/write fan-out: client [i] creates its private
    {!mix_table} and issues {!mixed_op}s, checking {e every} ok
    response — write acks and private reads against a per-client local
    oracle session replaying the same statements ([physical] must match
    the server session's layer for row-order-identical renderings),
    shared reads against [expected]. *)

(** {1 Materialized-view maintenance workload} *)

val mview_table : int -> string
(** Client [i]'s private edge table, ["MVE_<i>"]. *)

val mview_name : int -> string
(** Client [i]'s private recursive materialized view, ["MVR_<i>"]. *)

val mview_ddl : int -> string list
(** DDL creating {!mview_table}[ i] and a recursive
    [CREATE MATERIALIZED VIEW] {!mview_name}[ i] computing its
    transitive closure. *)

val mview_op :
  index:int -> int -> [ `Write of string | `Shared_read of string | `Private_read of string ]
(** Deterministic op [j] of client [index]: per 6 ops, edge INSERTs
    (occasionally a DELETE), full and filtered reads of the maintained
    extent, a shared recursive read, and a [REFRESH]. *)

val run_mview :
  ?host:string ->
  ?physical:Session.Eval.Physical.t ->
  ?expected:(string * string) list ->
  port:int ->
  clients:int ->
  per_client:int ->
  unit ->
  outcome
(** Materialized-view fan-out: client [i] creates {!mview_table} and
    {!mview_name} and issues {!mview_op}s; every ok response — DML
    acks, REFRESH acks and maintained-extent reads — is verified
    byte-for-byte against a per-client oracle session replaying the
    same statements, so incremental maintenance under concurrent load
    is checked against full local recomputation. *)

(** {1 Distinct-literal workload} *)

val run_param :
  ?host:string ->
  ?physical:Session.Eval.Physical.t ->
  port:int ->
  clients:int ->
  per_client:int ->
  unit ->
  outcome
(** Distinct-literal fan-out over a server loaded with
    {!setup_statements}: each request instantiates one of four
    templates (Figure-8 actor and film lookups, a chain-join bound, a
    reachability source) with a literal no other request of the run
    uses, and every ok reply is verified byte-for-byte against a
    per-client oracle session (a local replay of the setup evaluating
    the same text).  Only a template-keyed plan cache can reach a high
    hit rate here. *)

(** {1 View-bound workload} *)

val run_guarded :
  ?host:string ->
  ?physical:Session.Eval.Physical.t ->
  port:int ->
  clients:int ->
  per_client:int ->
  unit ->
  outcome
(** Guarded generic plans over a server loaded with
    {!setup_statements}: client [i] creates a view bounding [R.A] from
    below ([A > 9]) and asks [SELECT A FROM GV<i> WHERE J = j AND A > k]
    with [k] cycling through 0-19, both sides of the view bound.  Each
    side plans one guarded variant of the template; every ok reply is
    verified byte-for-byte against a per-client oracle session. *)

val pp_outcome : Format.formatter -> outcome -> unit

val percentile : float array -> float -> float
(** [percentile sorted p] for [p] in [0,100] over an ascending array:
    linear interpolation between the two straddling ranks. *)

val histogram_of_prom :
  name:string ->
  label:string ->
  string ->
  Eds_obs.Metrics.Histogram.snapshot option
(** Rebuild a histogram snapshot from Prometheus text exposition,
    restricted to series whose label block contains [label] verbatim
    (e.g. [verb="select"]).  [None] when no matching series appears. *)
