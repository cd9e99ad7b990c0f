(** The edsql shell: directive handling, the interactive loop and the
    script runner, parameterised on the line source and output formatter
    so tests can drive a whole session in memory.

    Every REPL line is protected: a parse error, a {!Session.Session_error}
    or any runtime exception (e.g. [Failure]) prints a one-line
    [error: ...] and the loop keeps going — only [Out_of_memory] and
    [Stack_overflow] propagate. *)

val help_text : string

val print_result : Format.formatter -> Session.result -> unit

val print_plan : Format.formatter -> Session.t -> Session.plan -> unit

(** {1 The stats table}

    [.stats], and the server's STATS and METRICS, render from rows
    [(METRICS key, registry family, labels)]: a row's value is
    {!Eds_obs.Metrics.sum} of the family's samples carrying those
    labels.  Counters are process-wide — one [edsd] or [edsql] process
    serves one session, so for it they are that session's totals; they
    also count evaluation done outside a session (e.g. the differential
    runs of [VERIFY RULES]). *)

val session_samples : Session.t -> Eds_obs.Metrics.sample list
(** The session's point-in-time state as gauge samples: stored extents,
    seconds since the last full extent (re)compute, shared fix-memo
    entries and the two generations. *)

val session_table : (string * string * (string * string) list) list
(** The [session.*] rows. *)

val table_value :
  (string * string * (string * string) list) list ->
  Eds_obs.Metrics.sample list ->
  string ->
  float
(** [table_value table samples key]: the value of [key]'s row over
    [samples].  Raises [Not_found] for a key outside [table]. *)

val print_session_stats :
  ?value:(string -> float) -> Format.formatter -> Session.t -> unit
(** The [.stats] report: cumulative evaluator counters (including
    hash-join and fix-cache work), the physical layer, materialized-view
    maintenance and the last rewrite statistics.  [value] reads a
    [session.*] key (default: {!session_table} over the registry's cells
    and {!session_samples}). *)

val limits_config : int -> Session.Optimizer.config
(** A config applying one limit to every rule block (negative =
    infinite), with a single round. *)

val dispatch :
  Format.formatter ->
  Session.t ->
  string ->
  [ `Quit | `Continue | `Swap of Session.t ]
(** Execute one dot-directive line (already trimmed, starting with
    ['.']), printing its output to the formatter.  [`Swap] is a
    successful [.load]: the caller must adopt the returned session.
    Shared by the interactive loop and the query server; errors
    propagate (the REPL and the server each wrap it in their own
    per-line recovery). *)

val verify_rules_text : Format.formatter -> Session.t -> string -> bool
(** The gate behind [.verify] and the server's [VERIFY RULES]:
    differentially verify the pack text against the session's current
    program (printing the full report) and append it as block
    "verified" only when clean.  Returns [true] iff accepted. *)

val describe_error : exn -> string
(** The one-line [error: ...] rendering used by the REPL's per-line
    recovery (parse, session, storage, timeout and generic errors). *)

val start_tracing : string -> unit
(** Open a Chrome trace-event file and install it as the global sink
    (closing any previous one). *)

val stop_tracing : unit -> unit
(** Uninstall the sink and close the trace file, writing the closing
    bracket.  Safe to call when tracing is off. *)

val repl :
  ?banner:bool ->
  ?ppf:Format.formatter ->
  read_line:(unit -> string option) ->
  Session.t ->
  Session.t
(** Run the interactive loop until [.quit] or end of input.  Returns the
    session in effect on exit ([.load] swaps it mid-session). *)

val run_file : ?ppf:Format.formatter -> explain:bool -> Session.t -> string -> unit
(** Execute an ESQL script.  Unlike {!repl}, errors propagate: a script
    stops at the first failing statement. *)
