(** Structured tracing and rule profiling for the EDS pipeline.

    The subsystem is {e zero-cost when disabled}: the default state has
    no sink installed, and every entry point ({!span}, {!instant},
    {!counter}, …) is a single load-and-branch in that state — no event
    allocation, no clock read.  Installing a sink ({!set_sink}) turns
    the same call sites into event emitters.

    Two sinks exist: {!trace_sink} writes Chrome trace-event JSON that
    loads directly in Perfetto or [chrome://tracing], and {!memory_sink}
    collects events in memory.  The installed sink is process-wide: the
    shell's [.trace-file] and the [EDS_TRACE] variable set it, and no
    request changes it.

    Rule-level profiling ({!Profile}) is independent of the sinks and
    per request: the rewrite engine aggregates per-rule
    attempts/fires/vetoes and condition time into the profile its
    context carries ({!Eds_rewriter.Engine.ctx}), if any. *)

(** Minimal JSON values: encoder, parser and accessors.  Shared by the
    trace sink, the benchmark emitter and the tests (the toolchain has
    no JSON library). *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact single-line encoding; non-finite floats encode as [null]. *)

  val pp : Format.formatter -> t -> unit
  (** Indented multi-line encoding (still valid JSON). *)

  val parse : string -> (t, string) result

  val member : string -> t -> t option
  val to_int : t -> int option
  val to_float : t -> float option
  val to_str : t -> string option
end

type attrs = (string * Json.t) list

(** Trace events.  Timestamps and durations are in seconds (converted
    to microseconds by the Chrome sink). *)
type event =
  | Begin of { name : string; cat : string; ts : float; attrs : attrs }
  | End of { name : string; cat : string; ts : float; attrs : attrs }
  | Complete of { name : string; cat : string; ts : float; dur : float; attrs : attrs }
  | Instant of { name : string; cat : string; ts : float; attrs : attrs }
  | Counter of { name : string; ts : float; value : float }

type sink = {
  emit : event -> unit;
  flush : unit -> unit;
  close : unit -> unit;  (** finalize the output (e.g. close the JSON array) *)
}

val trace_sink : ?pid:int -> ?tid:int -> out_channel -> sink
(** Chrome trace-event format, one record per line inside a JSON array.
    [close] writes the closing bracket; viewers tolerate its absence,
    so a crashed run still loads. *)

val memory_sink : unit -> sink * (unit -> event list)
(** The second component returns the events collected so far, in order. *)

(** {1 Global sink} *)

val set_sink : sink option -> unit
(** Install a sink ([None] disables tracing).  The previous sink, if
    any, is flushed and closed. *)

val enabled : unit -> bool

val emit : event -> unit
(** No-op when disabled. *)

val span : ?cat:string -> ?attrs:attrs -> string -> (unit -> 'a) -> 'a
(** [span name f] brackets [f] in a Begin/End pair (balanced even when
    [f] raises).  When disabled it is exactly [f ()]. *)

val span_begin : ?cat:string -> ?attrs:attrs -> string -> unit
val span_end : ?cat:string -> ?attrs:attrs -> string -> unit
(** Unstructured variants for call sites that attach result attributes
    to the End event.  Callers must balance them. *)

val instant : ?cat:string -> ?attrs:attrs -> string -> unit
val complete : ?cat:string -> ?attrs:attrs -> string -> ts:float -> dur:float -> unit
(** A finished span emitted after the fact (Chrome ["X"] event). *)

(** {1 Counters} *)

val counter : string -> float -> unit
(** Emit a Chrome counter event, so the value graphs over time in
    Perfetto; no-op when disabled.  Always-on tallies live in the
    {!Metrics} registry. *)

(** {1 Clock} *)

val now : unit -> float
(** The wall clock events are stamped with: [Unix.gettimeofday]. *)

(** {1 Rule profiler} *)

module Profile : sig
  type cell = {
    mutable attempts : int;  (** (rule, node) pairs handed to the matcher *)
    mutable fires : int;
    mutable constraint_vetoes : int;
        (** substitutions whose constraints evaluated false *)
    mutable method_vetoes : int;  (** substitutions vetoed by a method *)
    mutable budget_aborts : int;  (** attempts cut short by the block limit *)
    mutable time_s : float;  (** cumulative match + condition time *)
  }

  type t

  val create : unit -> t

  val cell : t -> block:string -> rule:string -> cell
  (** Accounting cell for a (block, rule) pair, created on first use. *)

  val cells : t -> ((string * string) * cell) list
  (** In first-use order. *)

  val never_fired : ?all_rules:(string * string) list -> t -> (string * string) list
  (** Dead-rule detection: attempted-but-unfired rules, plus any rule of
      [all_rules] that was never attempted at all. *)

  val pp : ?all_rules:(string * string) list -> Format.formatter -> t -> unit
  val to_json : ?all_rules:(string * string) list -> t -> Json.t
end
