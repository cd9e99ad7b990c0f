(** A bounded, thread-safe LRU cache from string keys to planner
    entries.

    The expensive phase of a query is parse → translate → rewrite; the
    planner ({!Planner}) keys its entries on the session's plan
    generation ({!Eds.Session.generation}) plus either a statement's
    normalized text or its literal-abstracted template
    ({!Eds_esql.Template.key}), so a repeated query — or one differing
    only in literals — skips rewriting, while any config/rule/DDL change
    orphans the stale entries; the planner removes those eagerly with
    {!sweep} so they never squeeze live plans out of a full cache
    ({!clear} exists for session swaps).

    Hit/miss accounting is one outcome per request: {!find} counts its
    own lookup, while a multi-step lookup (exact text, then template)
    uses {!lookup} and reports the outcome once with {!count}.  Every
    tally — hits, misses, insertions, evictions, sweeps, templates — is
    a process-wide registry counter ([eds_plan_cache_*]), the single
    store STATS, METRICS and METRICS PROM render from.

    All operations take an internal mutex; the cache is shared by every
    connection thread. *)

type 'a t

val create : capacity:int -> 'a t
(** [capacity] must be positive: the cache holds at most that many
    entries, evicting the least-recently-used beyond it. *)

val find : 'a t -> string -> 'a option
(** Lookup; counts a hit (and refreshes recency) or a miss. *)

val lookup : 'a t -> string -> 'a option
(** Lookup that refreshes recency on a hit but counts nothing. *)

val count : [ `Hit | `Template_hit | `Miss ] -> unit
(** Record one request's outcome in [eds_plan_cache_hits_total] or
    [eds_plan_cache_misses_total].  A template hit counts as a hit and
    also increments [eds_plan_cache_template_hits_total]. *)

(** {1 Template counters} *)

val note_template : [ `Generic | `Custom ] -> unit
(** A template was planned: its generic plan is shared ([`Generic]), or
    it differed from the custom plan and the template only marks that
    requests of this shape plan per text ([`Custom]).  Increments
    [eds_plan_cache_templates{kind="generic"|"custom"}]. *)

val add : 'a t -> string -> 'a -> unit
(** Insert (or overwrite) at most-recently-used position, evicting the
    LRU entry when over capacity. *)

val peek : 'a t -> string -> 'a option
(** Lookup without touching hit/miss counters or recency — for
    double-checked planning under an exclusive section. *)

val sweep : 'a t -> (string -> bool) -> int
(** [sweep t stale] eagerly removes every entry whose key satisfies
    [stale], returning the count.  The planner calls this on a
    generation bump so dead-generation entries stop occupying capacity
    (otherwise they would linger until they aged out of the LRU tail,
    evicting live plans from a full cache). *)

val clear : 'a t -> unit
(** Drop every entry (counters survive — they are cumulative). *)

type stats = { size : int; capacity : int }

val stats : 'a t -> stats
(** Occupancy: entries cached now, and the bound. *)
