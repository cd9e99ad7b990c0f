(** Shared planning front-end of the query server: maps SELECT text to a
    rewritten LERA plan through a bounded {!Plan_cache}, so a repeated
    query skips parse → translate → rewrite entirely, and a query that
    differs from an earlier one only in its literals skips translate →
    rewrite.

    Two key spaces, both prefixed with the session's plan generation
    ({!Eds.Session.generation}):
    - ["g<gen>|<normalized text>"] — the statement with whitespace runs
      collapsed and the trailing [';'] dropped, mapped to its plan.
      Looked up first, before any parsing.
    - ["g<gen>|template|<key>"] — the statement's literal-abstracted
      template ({!Eds_esql.Template.key}), mapped to a {e generic} plan
      whose {!Eds_lera.Lera.Param} parameters are bound to each
      request's literals, or to a {e custom-only} marker when the
      template's generic plan differed from the custom plan of the
      request that planned it (those requests plan per text).  A slot
      whose translation reads its value (enumeration coercion) is
      pinned: the template entry then points at a second key with that
      literal restored.

    A generic plan is stored only when binding the planning request's
    literals reproduces its custom plan exactly ({!Eds_lera.Lera.equal});
    later bindings are sound because no rewrite rule reads a parameter
    (DESIGN.md decision 17).  Any optimizer-config change, rule
    addition or DDL bumps the generation, so stale plans and templates
    can never be served; the first planning after a bump eagerly sweeps
    the orphaned entries ({!Plan_cache.sweep}) so a full cache spends
    its capacity on live plans only.

    Evaluation runs against an immutable database snapshot
    ({!Eds.Session.snapshot_db}), so concurrent callers never need a
    read lock: the only shared mutable state a SELECT touches is the
    catalog during planning of a cache {e miss}, which is why [plan] /
    [execute] accept an [exclusive] wrapper the server points at its
    exclusive section. *)

module Session = Eds.Session

type t

val create : ?capacity:int -> Session.t -> t
(** Default capacity: 256 plans. *)

val session : t -> Session.t

val normalize : string -> string
(** Whitespace-insensitive key text: runs of blanks collapse to one
    space, leading/trailing blanks and a trailing [';'] are dropped. *)

val is_select : string -> bool
(** Does the (trimmed) line start a SELECT statement? *)

val plan :
  ?exclusive:((unit -> Session.Lera.rel) -> Session.Lera.rel) ->
  t ->
  string ->
  Session.Lera.rel * [ `Hit | `Miss ]
(** The rewritten plan for a SELECT, from the cache when possible.
    An exact hit touches nothing but the cache; a template hit parses
    the text (no session state) and binds its literals into the generic
    plan — both are [`Hit].  A miss must read the shared catalog to
    translate/rewrite, so only a request that really plans runs
    [exclusive] (default: run in place) — the server passes its
    exclusive-section wrapper.  The section double-checks the cache on entry,
    so two threads racing on the same cold text or template plan it
    once.  Raises like {!Session.explain} (parse/type errors are never
    cached; a parse error raises without entering [exclusive]). *)

val execute :
  ?exclusive:((unit -> Session.Lera.rel) -> Session.Lera.rel) ->
  t ->
  string ->
  Session.Relation.t * [ `Hit | `Miss ]
(** [plan] + evaluate against {!Session.snapshot_db} — no lock needed
    during evaluation.  Runs with a private stats record; the evaluator
    adds it to the registry's atomic counters, so concurrent callers
    lose no update. *)

type report = {
  origin : [ `Hit | `Miss ];
  parse_s : float;  (** 0 on an exact hit (no parsing happened) *)
  translate_s : float;
  rewrite_s : float;
  plan_s : float;  (** end-to-end planning incl. cache lookup and lock wait *)
  exec_s : float;
  work : Eds_engine.Eval.stats;  (** this query's private work counters *)
}

val execute_timed :
  ?exclusive:((unit -> Session.Lera.rel) -> Session.Lera.rel) ->
  t ->
  string ->
  Session.Relation.t * report
(** [execute] with the per-phase latency breakdown and work counters the
    server's slow-query log and latency histograms need. *)

val cache_stats : t -> Plan_cache.stats
