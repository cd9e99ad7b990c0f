(** Always-on, sink-independent metrics registry.

    Unlike the trace machinery in {!Obs} — which is deliberately
    zero-cost-when-disabled and therefore drops everything unless a sink
    is installed — this registry is {e always on}: counters, gauges and
    latency histograms record through pre-fetched handles with atomic
    read-modify-write operations and no allocation, cheap enough to
    leave enabled in production.  Snapshots are taken lock-free; the
    registry structure itself is only mutated on (cold) registration.

    Histograms use a {e fixed} log₂ bucket layout (upper bounds 2^k
    seconds for k in [-20, 6], plus +Inf), so any two snapshots — from
    different histograms, processes or points in time — can be merged or
    subtracted bucket-wise, and quantiles are computable by linear
    interpolation within a bucket without storing samples.

    Exposition: {!prometheus} renders the whole registry (plus any
    registered collectors) in the Prometheus text format; {!samples}
    returns the same data structurally for JSON rendering or tests. *)

(** {1 Global enable flag}

    On by default.  Turning recording off is only meant for measuring
    the instrumentation's own overhead (bench E6); exposition still
    works while disabled. *)

val set_enabled : bool -> unit
val enabled : unit -> bool

(** {1 Histograms} *)

module Histogram : sig
  type t

  val bounds : float array
  (** The fixed finite bucket upper bounds, ascending: [2^k] for [k] in
      [-20 .. 6].  Every histogram has [Array.length bounds + 1]
      buckets; the last one is the +Inf overflow bucket. *)

  val bucket_index : float -> int
  (** Index of the bucket a value lands in: smallest [i] with
      [v <= bounds.(i)], or [Array.length bounds] for the overflow
      bucket.  Bounds are inclusive (Prometheus [le] semantics). *)

  val observe : t -> float -> unit
  (** Record one value (seconds).  Lock-free, allocation-free; no-op
      when the registry is disabled.  Values are accumulated into the
      sum at nanosecond resolution. *)

  type snapshot = {
    counts : int array;  (** per-bucket (non-cumulative), length [Array.length bounds + 1] *)
    sum : float;
  }

  val snapshot : t -> snapshot
  val count : snapshot -> int

  val merge : snapshot -> snapshot -> snapshot
  (** Bucket-wise sum: [merge (snap a) (snap b)] equals the snapshot of
      a histogram that recorded both observation streams. *)

  val sub : snapshot -> snapshot -> snapshot
  (** Bucket-wise difference (clamped at zero): the delta between two
      snapshots of the same cumulative histogram. *)

  val quantile : snapshot -> float -> float
  (** [quantile s q] for [q] in [0,1]: linear interpolation within the
      bucket holding rank [q*count].  Monotone in [q].  Returns [0.] on
      an empty snapshot; the overflow bucket reports its lower bound. *)
end

(** {1 Counters and gauges} *)

module Counter : sig
  type t

  val incr : t -> unit
  val add : t -> int -> unit
  (** Atomic; no-op when the registry is disabled.  Negative deltas are
      ignored (counters are monotone). *)

  val value : t -> int
end

module Gauge : sig
  type t

  val set : t -> int -> unit
  val add : t -> int -> unit
  (** Gauges record current state (e.g. open connections), so they are
      {e not} gated on {!enabled} and are exempt from {!reset_values}. *)

  val value : t -> int
end

(** {1 Registration}

    Registration is idempotent: the same [(name, labels)] pair always
    returns the same cell, so module-level handles in different
    compilation units converge on shared storage.  Names are sanitized
    to the Prometheus charset; label values may be arbitrary strings
    (escaped at exposition).  Registering an existing name with a
    different kind raises [Invalid_argument]. *)

val counter :
  ?help:string -> ?labels:(string * string) list -> ?permanent:bool ->
  string -> Counter.t
(** [permanent] marks a data-integrity counter that survives
    {!reset_values} (e.g. WAL record counts). *)

val gauge : ?help:string -> ?labels:(string * string) list -> string -> Gauge.t

val histogram :
  ?help:string -> ?labels:(string * string) list -> ?permanent:bool ->
  string -> Histogram.t

(** {1 Exposition} *)

type kind = K_counter | K_gauge | K_histogram

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of Histogram.snapshot

type sample = {
  name : string;
  help : string;
  kind : kind;
  labels : (string * string) list;
  value : value;
}

val registry_samples : unit -> sample list
(** The registry cells alone, in registration order. *)

val samples : unit -> sample list
(** {!registry_samples} followed by collector output. *)

val render : sample list -> string
(** Prometheus text exposition of an arbitrary sample list: one
    [# HELP]/[# TYPE] pair per family, histogram cells expanded into
    cumulative [_bucket{le=...}] series plus [_sum] and [_count]. *)

val prometheus : unit -> string
(** [render (samples ())]. *)

val find_sample : ?labels:(string * string) list -> string -> sample option

val sum : ?labels:(string * string) list -> sample list -> string -> float
(** [sum ~labels samples name]: the values of family [name] summed over
    every sample whose labels include all of [labels] (a histogram
    counts its observations); [0.] when none matches.  The one lookup
    STATS and METRICS render through. *)

(** {1 Collectors}

    Instance-scoped sources (a server's plan cache, its WAL manager)
    expose point-in-time samples by registering a collector; it runs at
    every {!samples}/{!prometheus} call.  Unregister on shutdown so
    sequential server instances don't leave stale families behind. *)

type collector_id

val gauge_sample : help:string -> string -> float -> sample
(** An unlabelled gauge sample, as collectors return them. *)

val register_collector : (unit -> sample list) -> collector_id
val unregister_collector : collector_id -> unit

(** {1 Reset} *)

val reset_values : unit -> unit
(** [STATS RESET]: zero every counter and histogram {e not} marked
    [~permanent].  Gauges and permanent cells — data-integrity markers —
    are untouched. *)
