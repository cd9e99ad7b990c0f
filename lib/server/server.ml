module Session = Eds.Session
module Repl = Eds.Repl
module Storage = Eds.Storage
module Wal = Eds.Wal
module Eval = Eds_engine.Eval
module Cancel = Eds_engine.Cancel
module Relation = Eds_engine.Relation
module Database = Eds_engine.Database
module Obs = Eds_obs.Obs
module Metrics = Eds_obs.Metrics

type config = {
  host : string;
  port : int;
  max_connections : int;
  backlog : int;
  query_timeout : float option;
  cache_capacity : int;
  slow_query_ms : float option;
  slow_log : (string -> unit) option;
}

let default_config =
  {
    host = "127.0.0.1";
    port = 0;
    max_connections = 64;
    backlog = 16;
    query_timeout = Some 30.;
    cache_capacity = 256;
    slow_query_ms = None;
    slow_log = None;
  }

(* ------------------------------------------------------------------ *)
(* always-on registry metrics.  Labelled cells are pre-registered at
   module init so the request path touches no registry lock — just an
   assoc lookup over a handful of pairs and an atomic increment. *)

let verbs = [ "select"; "explain"; "write"; "admin" ]
let outcomes = [ "ok"; "error"; "timeout" ]

let m_queries =
  List.concat_map
    (fun v ->
      List.map
        (fun o ->
          ( (v, o),
            Metrics.counter ~help:"Requests handled, by verb and outcome"
              ~labels:[ ("verb", v); ("outcome", o) ]
              "eds_queries_total" ))
        outcomes)
    verbs

let query_counter v o = List.assoc (v, o) m_queries

let m_durations =
  List.map
    (fun v ->
      ( v,
        Metrics.histogram ~help:"Request latency in seconds, by verb"
          ~labels:[ ("verb", v) ]
          "eds_query_duration_seconds" ))
    verbs

let duration_of v = List.assoc v m_durations

let m_conn_accepted =
  Metrics.counter ~help:"Connections admitted" "eds_connections_accepted_total"

let m_conn_refused =
  Metrics.counter ~help:"Connections refused by admission control"
    "eds_connections_refused_total"

let m_conn_active =
  Metrics.gauge ~help:"Connections currently being served" "eds_connections_active"

let m_slow = Metrics.counter ~help:"Queries over the slow-query threshold" "eds_slow_queries_total"

let m_exclusive =
  Metrics.counter ~help:"Entries into the server's exclusive (write) section"
    "eds_write_lock_acquisitions_total"

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  bound_port : int;
  writer : Mutex.t;
      (* the exclusive section: every mutation and every plan-cache
         miss.  SELECTs take no lock: they evaluate against an immutable
         snapshot *)
  wal : Wal.Manager.handle option;  (* durability; [None] = in-memory only *)
  planner : Planner.t;
  state : Mutex.t;  (* guards everything below *)
  mutable active : int;  (* admission control; METRICS reads the gauge *)
  mutable stopping : bool;
  conns : (int, Unix.file_descr) Hashtbl.t;
  mutable conn_threads : Thread.t list;
  mutable accept_thread : Thread.t option;
  mutable next_conn : int;
  mutable collector : Metrics.collector_id option;
}

let locked t f = Mutex.protect t.state f

let exclusive t f =
  Mutex.protect t.writer (fun () ->
      Metrics.Counter.incr m_exclusive;
      f ())

let resolve_addr host =
  try Unix.inet_addr_of_string host
  with _ -> (
    try (Unix.gethostbyname host).Unix.h_addr_list.(0)
    with _ -> failwith (Printf.sprintf "cannot resolve host %S" host))

(* ------------------------------------------------------------------ *)
(* request handling                                                    *)

let help_text =
  "edsd wire protocol — one request per line:\n\
  \  <ESQL statement>   SELECT / TABLE / CREATE / INSERT / DELETE /\n\
  \                     UPDATE / REFRESH (CREATE MATERIALIZED VIEW too)\n\
  \  EXPLAIN [ANALYZE] SELECT ...   plan report; ANALYZE also executes\n\
  \  VERIFY RULES <rules>   differentially verify a rule pack; it is\n\
  \                     appended to block 'verified' only if clean\n\
  \  HELP               this text\n\
  \  PING               liveness probe\n\
  \  STATS              server + session counters, human-readable\n\
  \  STATS RESET        zero the cumulative counters (generations and WAL\n\
  \                     integrity markers survive)\n\
  \  METRICS            the same as one flat JSON object\n\
  \  METRICS PROM       Prometheus text exposition of the metrics registry\n\
  \  SAVE <path>        dump the database to <path> on the server host\n\
  \  QUIT               close this connection\n\
   lines are at most 1 MiB; edsql shell directives (.limits, .load, ...)\n\
   are not accepted here.  Responses are framed as\n\
   \"<ok|error|busy> <nbytes>\\n<payload>\"\n"

let esql_starters =
  [
    "SELECT"; "EXPLAIN"; "CREATE"; "TYPE"; "TABLE"; "INSERT"; "DELETE";
    "UPDATE"; "REFRESH";
  ]

let first_token line =
  match String.index_opt line ' ' with
  | Some i -> String.sub line 0 i
  | None -> line

let rest_after_token line =
  match String.index_opt line ' ' with
  | Some i -> String.trim (String.sub line i (String.length line - i))
  | None -> ""

let all_alpha s =
  s <> ""
  && String.for_all (fun c -> (c >= 'A' && c <= 'Z') || (c >= 'a' && c <= 'z')) s

let with_budget t f =
  match t.cfg.query_timeout with
  | Some budget when budget > 0. -> Cancel.with_timeout budget f
  | _ -> f ()

let render f =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  f ppf;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let obs_query conn_id ~cache ~ts =
  if Obs.enabled () then
    Obs.complete ~cat:"server"
      ~attrs:[ ("conn", Obs.Json.Int conn_id); ("cache", Obs.Json.Str cache) ]
      "server.query" ~ts ~dur:(Obs.now () -. ts)

(* -- slow-query log ------------------------------------------------- *)

let slow_sink_lock = Mutex.create ()

let default_slow_sink line =
  Mutex.lock slow_sink_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock slow_sink_lock)
    (fun () ->
      prerr_endline line;
      flush stderr)

let ms_of s = Float.round (s *. 1e6) /. 1e3  (* µs-precision milliseconds *)

(* One JSON object per line: greppable, and each line parses on its own. *)
let slow_log_line ~conn_id ~query ~total_s ~cache ~parse_s ~translate_s ~rewrite_s
    ~exec_s ~rows ~(work : Eval.stats) ~mv_runs ~mv_fallbacks ~mv_delta =
  Obs.Json.to_string
    (Obs.Json.Obj
       [
         ("ts", Obs.Json.Float (Unix.gettimeofday ()));
         ("conn", Obs.Json.Int conn_id);
         ("query", Obs.Json.Str query);
         ("total_ms", Obs.Json.Float (ms_of total_s));
         ("parse_ms", Obs.Json.Float (ms_of parse_s));
         ("translate_ms", Obs.Json.Float (ms_of translate_s));
         ("rewrite_ms", Obs.Json.Float (ms_of rewrite_s));
         ("execute_ms", Obs.Json.Float (ms_of exec_s));
         ("cache", Obs.Json.Str cache);
         ("rows", Obs.Json.Int rows);
         ("combinations", Obs.Json.Int work.Eval.combinations);
         ("tuples_read", Obs.Json.Int work.Eval.tuples_read);
         ("tuples_produced", Obs.Json.Int work.Eval.tuples_produced);
         ("probes", Obs.Json.Int work.Eval.probes);
         ("builds", Obs.Json.Int work.Eval.builds);
         ( "layout",
           Obs.Json.Str
             (if work.Eval.columnar_ops > 0 then "columnar" else "boxed") );
         ("mv_maintenance_runs", Obs.Json.Int mv_runs);
         ("mv_fallback_recomputes", Obs.Json.Int mv_fallbacks);
         ("mv_delta_tuples", Obs.Json.Int mv_delta);
       ])

let maybe_slow_log t conn_id ~query ~total_s ~cache ~parse_s ~translate_s ~rewrite_s
    ~exec_s ~rows ~work ?(mv_runs = 0) ?(mv_fallbacks = 0) ?(mv_delta = 0) () =
  match t.cfg.slow_query_ms with
  | Some threshold_ms when total_s *. 1000. >= threshold_ms ->
      Metrics.Counter.incr m_slow;
      let sink = Option.value t.cfg.slow_log ~default:default_slow_sink in
      sink
        (slow_log_line ~conn_id ~query ~total_s ~cache ~parse_s ~translate_s
           ~rewrite_s ~exec_s ~rows ~work ~mv_runs ~mv_fallbacks ~mv_delta)
  | _ -> ()

(* SELECTs take no lock at all: evaluation runs against an immutable
   database snapshot, and a cached plan skips the catalog entirely.
   Only a plan-cache miss needs the shared catalog (parse → translate →
   rewrite), so only that step enters the exclusive section, with a
   double-check inside so racing threads plan a cold query once. *)
let run_select t conn_id line =
  let ts = Obs.now () in
  let rel, r =
    with_budget t (fun () -> Planner.execute_timed ~exclusive:(exclusive t) t.planner line)
  in
  let payload = render (fun ppf -> Repl.print_result ppf (Session.Rows rel)) in
  let cache = match r.Planner.origin with `Hit -> "hit" | `Miss -> "miss" in
  obs_query conn_id ~cache ~ts;
  maybe_slow_log t conn_id ~query:line ~total_s:(Obs.now () -. ts) ~cache
    ~parse_s:r.Planner.parse_s ~translate_s:r.Planner.translate_s
    ~rewrite_s:r.Planner.rewrite_s ~exec_s:r.Planner.exec_s
    ~rows:(Relation.cardinality rel) ~work:r.Planner.work ();
  `Reply (Protocol.Ok, payload)

(* Mutations serialize in the exclusive section.  Once a statement has
   applied successfully it is appended to the WAL — still inside the
   section, so the log order is the commit order — and only then
   acknowledged: a crash after the ack cannot lose it.  EXPLAIN comes
   through here too (it needs the shared catalog); its [Report] result
   is never WAL-logged — replaying an EXPLAIN ANALYZE at recovery would
   re-execute the query. *)
let run_write t conn_id line =
  let ts = Obs.now () in
  (* The WAL append happens inside the exclusive section (log order =
     commit order), but the fsync wait happens after leaving it: concurrent
     writers then land their frames back-to-back and the group-commit
     leader makes them all durable with one fsync.  The ack still only
     goes out after [sync] returns. *)
  let mv0 =
    let m = Session.mv_stats (Planner.session t.planner) in
    Session.Materializer.
      (m.maintenance_runs, m.fallback_recomputes, m.delta_tuples)
  in
  let payload, commit =
    exclusive t (fun () ->
        let session = Planner.session t.planner in
        let result = with_budget t (fun () -> Session.exec_string session line) in
        let commit =
          match (result, t.wal) with
          | (Session.Rows _ | Session.Report _), _ | _, None -> None
          | ( (Session.Done | Session.Inserted _ | Session.Deleted _ | Session.Updated _),
              Some wal ) ->
              Some (wal, Wal.Manager.log_nosync wal line)
        in
        (render (fun ppf -> Repl.print_result ppf result), commit))
  in
  (match commit with
  | Some (wal, watermark) -> Wal.Manager.sync wal watermark
  | None -> ());
  obs_query conn_id ~cache:"write" ~ts;
  let total_s = Obs.now () -. ts in
  let runs0, fb0, delta0 = mv0 in
  let m = Session.mv_stats (Planner.session t.planner) in
  maybe_slow_log t conn_id ~query:line ~total_s ~cache:"write" ~parse_s:0.
    ~translate_s:0. ~rewrite_s:0. ~exec_s:total_s ~rows:0
    ~work:(Eval.fresh_stats ())
    ~mv_runs:(m.Session.Materializer.maintenance_runs - runs0)
    ~mv_fallbacks:(m.Session.Materializer.fallback_recomputes - fb0)
    ~mv_delta:(m.Session.Materializer.delta_tuples - delta0) ();
  `Reply (Protocol.Ok, payload)

(* -- the stats table -------------------------------------------------- *)

(* Instance-scoped point-in-time state — cache occupancy, generations,
   WAL epoch/age — is exposed through a registry collector rather than
   stored cells: it belongs to this server instance and is read fresh at
   every scrape.  Registered at [start], unregistered at [stop] so a
   later instance in the same process doesn't double-report. *)
let collector_samples t () =
  let cache = Planner.cache_stats t.planner in
  let g = Metrics.gauge_sample in
  Repl.session_samples (Planner.session t.planner)
  @ [
      g ~help:"Plans currently cached" "eds_plan_cache_entries"
        (float_of_int cache.Plan_cache.size);
      g ~help:"Plan-cache capacity" "eds_plan_cache_capacity"
        (float_of_int cache.Plan_cache.capacity);
    ]
  @
  match t.wal with
  | None -> []
  | Some wal ->
      let ws = Wal.Manager.stats wal in
      [
        g ~help:"WAL checkpoint epoch (integrity marker)" "eds_wal_epoch"
          (float_of_int ws.Wal.Manager.epoch);
        g ~help:"Seconds since boot or last checkpoint" "eds_wal_checkpoint_age_seconds"
          ws.Wal.Manager.checkpoint_age_s;
      ]

(* The one table STATS, METRICS and edsd's shutdown line render from:
   each METRICS key names the registry family — and the labels selecting
   its cells — that stores it.  Cumulative tallies are the registry's
   own cells; point-in-time state comes from this instance's collector. *)
let table =
  [
    ("server.connections.accepted", "eds_connections_accepted_total", []);
    ("server.connections.refused", "eds_connections_refused_total", []);
    ("server.connections.active", "eds_connections_active", []);
    ("server.queries.ok", "eds_queries_total", [ ("outcome", "ok") ]);
    ("server.queries.errors", "eds_queries_total", [ ("outcome", "error") ]);
    ("server.queries.timeouts", "eds_queries_total", [ ("outcome", "timeout") ]);
    (* the key keeps its old name: perfbench reads it *)
    ("server.rwlock.write_acquired", "eds_write_lock_acquisitions_total", []);
    ("server.plan_cache.hits", "eds_plan_cache_hits_total", []);
    ("server.plan_cache.misses", "eds_plan_cache_misses_total", []);
    ("server.plan_cache.evictions", "eds_plan_cache_evictions_total", []);
    ("server.plan_cache.insertions", "eds_plan_cache_insertions_total", []);
    ("server.plan_cache.swept", "eds_plan_cache_swept_total", []);
    ("server.plan_cache.size", "eds_plan_cache_entries", []);
    ("server.plan_cache.capacity", "eds_plan_cache_capacity", []);
    ("server.plan_cache.template_hits", "eds_plan_cache_template_hits_total", []);
    ("server.plan_cache.templates_generic", "eds_plan_cache_templates", [ ("kind", "generic") ]);
    ("server.plan_cache.templates_custom", "eds_plan_cache_templates", [ ("kind", "custom") ]);
  ]
  @ Repl.session_table
  @ [
      ("wal.epoch", "eds_wal_epoch", []);
      ("wal.checkpoint_age_s", "eds_wal_checkpoint_age_seconds", []);
      ("wal.fsyncs", "eds_wal_fsyncs_total", []);
      ("wal.commits", "eds_wal_commits_total", []);
    ]

(* one snapshot of the registry's cells and this instance's state *)
let metric t =
  Repl.table_value table (Metrics.registry_samples () @ collector_samples t ())

let hit_rate v =
  let hits = v "server.plan_cache.hits" and misses = v "server.plan_cache.misses" in
  if hits +. misses = 0. then 0. else hits /. (hits +. misses)

(* STATS/METRICS take no lock either: every ingredient is an atomic
   registry cell or an O(1) snapshot read, so polling them never counts
   as an exclusive entry. *)
let stats_text t =
  let v = metric t in
  let n key = int_of_float (v key) in
  let session = Planner.session t.planner in
  render (fun ppf ->
      Fmt.pf ppf "connections      : %d active, %d accepted, %d refused@."
        (n "server.connections.active") (n "server.connections.accepted")
        (n "server.connections.refused");
      Fmt.pf ppf "requests         : %d ok, %d errors, %d timeouts@."
        (n "server.queries.ok") (n "server.queries.errors")
        (n "server.queries.timeouts");
      Fmt.pf ppf
        "plan cache       : %d/%d entries, %d hits, %d misses, %d evictions, %d \
         swept (hit rate %.2f)@."
        (n "server.plan_cache.size") (n "server.plan_cache.capacity")
        (n "server.plan_cache.hits") (n "server.plan_cache.misses")
        (n "server.plan_cache.evictions") (n "server.plan_cache.swept") (hit_rate v);
      Fmt.pf ppf "plan templates   : %d template hits, %d generic, %d custom-only@."
        (n "server.plan_cache.template_hits")
        (n "server.plan_cache.templates_generic")
        (n "server.plan_cache.templates_custom");
      Fmt.pf ppf "plan generation  : %d@." (n "session.generation");
      Fmt.pf ppf "data generation  : %d@." (n "session.data_generation");
      Fmt.pf ppf "rwlock           : %d write acquisitions@."
        (n "server.rwlock.write_acquired");
      (match t.wal with
      | None -> Fmt.pf ppf "wal              : disabled@."
      | Some wal ->
          let ws = Wal.Manager.stats wal in
          Fmt.pf ppf
            "wal              : %d records (%d bytes), epoch %d, %d replayed at \
             boot, checkpoint age %.1fs@."
            ws.Wal.Manager.wal_records ws.Wal.Manager.wal_bytes (n "wal.epoch")
            ws.Wal.Manager.replayed (v "wal.checkpoint_age_s");
          let commits = v "wal.commits" and fsyncs = v "wal.fsyncs" in
          Fmt.pf ppf
            "wal group commit : %d commits in %d fsyncs (%.2f fsyncs/commit)@."
            (n "wal.commits") (n "wal.fsyncs")
            (if commits = 0. then 0. else fsyncs /. commits));
      Repl.print_session_stats ~value:v ppf session)

(* Every table row, plus the values no registry family stores: the hit
   rate (derived), the fix memo's invalidation count and the WAL file's
   current extent (instance state). *)
let metrics t =
  let v = metric t in
  let row (key, _, _) =
    (* [*_s] keys are seconds; every other value is a count *)
    ( key,
      if String.ends_with ~suffix:"_s" key then Obs.Json.Float (v key)
      else Obs.Json.Int (int_of_float (v key)) )
  in
  let rows =
    List.filter
      (fun (key, _, _) -> t.wal <> None || not (String.starts_with ~prefix:"wal." key))
      table
  in
  let _, invalidations = Session.fix_cache_stats (Planner.session t.planner) in
  let wal_fields =
    match t.wal with
    | None -> [ ("wal.enabled", Obs.Json.Bool false) ]
    | Some wal ->
        let ws = Wal.Manager.stats wal in
        [
          ("wal.enabled", Obs.Json.Bool true);
          ("wal.records", Obs.Json.Int ws.Wal.Manager.wal_records);
          ("wal.bytes", Obs.Json.Int ws.Wal.Manager.wal_bytes);
          ("wal.replayed", Obs.Json.Int ws.Wal.Manager.replayed);
        ]
  in
  Obs.Json.Obj
    (List.map row rows
    @ [
        ("server.plan_cache.hit_rate", Obs.Json.Float (hit_rate v));
        ("session.fix_cache.invalidations", Obs.Json.Int invalidations);
      ]
    @ wal_fields)

(* SAVE to the daemon's own database path is a checkpoint: the dump and
   the log truncation must be one atomic step relative to writers, so it
   runs in the exclusive section.  SAVE elsewhere is a plain (atomic)
   dump. *)
let run_save t path =
  if path = "" then `Reply (Protocol.Error, "error: usage: SAVE <path>\n")
  else
    exclusive t (fun () ->
        let session = Planner.session t.planner in
        match t.wal with
        | Some wal when Wal.Manager.db_path wal = path ->
            Wal.Manager.checkpoint wal session;
            `Reply (Protocol.Ok, Printf.sprintf "saved %s (checkpoint, wal reset)\n" path)
        | _ ->
            Storage.save session path;
            `Reply (Protocol.Ok, Printf.sprintf "saved %s\n" path))

(* VERIFY RULES gates an untrusted pack: the differential verifier runs
   against the session's current program and the pack is appended only
   when clean.  It can mutate the rule program, so it runs in the
   exclusive section like any write. *)
let run_verify t line =
  let usage = "error: usage: VERIFY RULES <rule text>\n" in
  let rest = rest_after_token line in
  if String.uppercase_ascii (first_token rest) <> "RULES" then
    `Reply (Protocol.Error, usage)
  else
    let text = rest_after_token rest in
    if text = "" then `Reply (Protocol.Error, usage)
    else
      exclusive t (fun () ->
          let session = Planner.session t.planner in
          let buf = Buffer.create 256 in
          let ppf = Format.formatter_of_buffer buf in
          let accepted = Repl.verify_rules_text ppf session text in
          Format.pp_print_flush ppf ();
          `Reply
            ( (if accepted then Protocol.Ok else Protocol.Error),
              Buffer.contents buf ))

(* STATS RESET zeroes every cumulative, non-integrity counter — one
   registry reset, since the registry is the only store.  The plan and
   data generations, the WAL epoch and its record/byte counters are
   integrity markers and deliberately survive. *)
let run_stats_reset t =
  exclusive t (fun () ->
      Session.reset_stats (Planner.session t.planner);
      `Reply
        ( Protocol.Ok,
          "stats reset (generations, WAL integrity counters and active \
           connections preserved)\n" ))

(* Rules, limits and the physical layer belong to whoever starts the
   server, not to any one client: a shell directive would re-plan every
   connection and would not survive recovery.  Refused before any lock. *)
let directive_refused =
  `Reply (Protocol.Error, "error: shell directives are edsql-only (try HELP)\n")

let dispatch_line t conn_id line =
  if line.[0] = '.' then directive_refused
  else
    let token = String.uppercase_ascii (first_token line) in
    if List.mem token esql_starters then
      if token = "SELECT" then run_select t conn_id line else run_write t conn_id line
    else
      match token with
      | "HELP" -> `Reply (Protocol.Ok, help_text)
      | "PING" -> `Reply (Protocol.Ok, "pong\n")
      | "STATS" when String.uppercase_ascii (rest_after_token line) = "RESET" ->
          run_stats_reset t
      | "STATS" -> `Reply (Protocol.Ok, stats_text t)
      | "METRICS" when String.uppercase_ascii (rest_after_token line) = "PROM" ->
          `Reply (Protocol.Ok, Metrics.prometheus ())
      | "METRICS" -> `Reply (Protocol.Ok, Obs.Json.to_string (metrics t) ^ "\n")
      | "SAVE" -> run_save t (rest_after_token line)
      | "VERIFY" -> run_verify t line
      | "QUIT" -> `Close (Protocol.Ok, "bye\n")
      | _ when all_alpha (first_token line) ->
          `Reply
            ( Protocol.Error,
              Printf.sprintf "error: unknown command %s (try HELP)\n" (first_token line)
            )
      | _ ->
          (* let the ESQL parser produce its own error message *)
          run_write t conn_id line

let verb_of_line line =
  if line.[0] = '.' then "admin"
  else
    match String.uppercase_ascii (first_token line) with
    | "SELECT" -> "select"
    | "EXPLAIN" -> "explain"
    | "HELP" | "PING" | "STATS" | "METRICS" | "SAVE" | "VERIFY" | "QUIT" ->
      "admin"
    | _ -> "write"

(* per-line recovery, mirroring the REPL: one bad request must never
   kill the connection, let alone the server.  [Cancel.clear] backstops
   the per-statement budget — a deadline that somehow survived its
   [with_timeout] frame must not poison this thread's next request. *)
let process t conn_id raw =
  let line = String.trim raw in
  if line = "" then `Reply (Protocol.Ok, "")
  else begin
    let verb = verb_of_line line in
    let t0 = Unix.gettimeofday () in
    let finish outcome reply =
      Metrics.Histogram.observe (duration_of verb) (Unix.gettimeofday () -. t0);
      Metrics.Counter.incr (query_counter verb outcome);
      reply
    in
    match
      Fun.protect ~finally:Cancel.clear (fun () -> dispatch_line t conn_id line)
    with
    | reply ->
        let outcome =
          match reply with
          | `Reply (Protocol.Ok, _) | `Close (Protocol.Ok, _) -> "ok"
          | _ -> "error"
        in
        finish outcome reply
    | exception ((Out_of_memory | Stack_overflow) as fatal) -> raise fatal
    | exception (Cancel.Timeout _ as e) ->
        finish "timeout"
          (`Reply (Protocol.Error, "error: " ^ Repl.describe_error e ^ "\n"))
    | exception e ->
        finish "error"
          (`Reply (Protocol.Error, "error: " ^ Repl.describe_error e ^ "\n"))
  end

(* ------------------------------------------------------------------ *)
(* connection lifecycle                                                *)

let too_long =
  Printf.sprintf "error: request line exceeds %d bytes; closing the connection\n"
    Protocol.max_request_bytes

let handle_connection t conn_id fd =
  let requests = Protocol.reader fd in
  let oc = Unix.out_channel_of_descr fd in
  if Obs.enabled () then
    Obs.emit
      (Obs.Begin
         {
           name = "server.conn";
           cat = "server";
           ts = Obs.now ();
           attrs = [ ("conn", Obs.Json.Int conn_id) ];
         });
  let finally () =
    if Obs.enabled () then
      Obs.emit
        (Obs.End
           {
             name = "server.conn";
             cat = "server";
             ts = Obs.now ();
             attrs = [ ("conn", Obs.Json.Int conn_id) ];
           });
    locked t (fun () ->
        t.active <- t.active - 1;
        Hashtbl.remove t.conns conn_id);
    Metrics.Gauge.add m_conn_active (-1);
    (try flush oc with _ -> ());
    try Unix.close fd with _ -> ()
  in
  Fun.protect ~finally (fun () ->
      let rec loop () =
        match Protocol.read_request requests with
        | exception Unix.Unix_error _ -> ()
        | `Eof -> ()
        | `Too_long ->
            Metrics.Counter.incr (query_counter "admin" "error");
            (try Protocol.write_response oc Protocol.Error too_long with _ -> ())
        | `Line raw -> (
            match process t conn_id raw with
            | `Reply (status, payload) -> (
                match Protocol.write_response oc status payload with
                | () -> loop ()
                | exception _ -> ())
            | `Close (status, payload) -> (
                try Protocol.write_response oc status payload with _ -> ()))
      in
      loop ())

let refuse t fd =
  Metrics.Counter.incr m_conn_refused;
  let payload =
    Printf.sprintf "busy: %d connections active (limit %d), retry later\n"
      t.cfg.max_connections t.cfg.max_connections
  in
  let oc = Unix.out_channel_of_descr fd in
  (try Protocol.write_response oc Protocol.Busy payload with _ -> ());
  try Unix.close fd with _ -> ()

let rec accept_loop t =
  match Unix.accept t.listen_fd with
  | exception Unix.Unix_error (Unix.ECONNABORTED, _, _) ->
      if t.stopping then () else accept_loop t
  | exception _ -> ()  (* EBADF/EINVAL after stop closed the socket *)
  | fd, _ ->
      if t.stopping then (try Unix.close fd with _ -> ())
      else begin
        let admitted =
          locked t (fun () ->
              if t.active >= t.cfg.max_connections then false
              else begin
                t.active <- t.active + 1;
                t.next_conn <- t.next_conn + 1;
                Hashtbl.replace t.conns t.next_conn fd;
                true
              end)
        in
        if admitted then begin
          Metrics.Counter.incr m_conn_accepted;
          Metrics.Gauge.add m_conn_active 1;
          let conn_id = locked t (fun () -> t.next_conn) in
          let th = Thread.create (fun () -> handle_connection t conn_id fd) () in
          locked t (fun () -> t.conn_threads <- th :: t.conn_threads)
        end
        else refuse t fd;
        accept_loop t
      end

(* ------------------------------------------------------------------ *)

let start ?(config = default_config) ?wal session =
  if Sys.os_type = "Unix" then Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  let t =
    try
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (resolve_addr config.host, config.port));
      Unix.listen fd config.backlog;
      let bound_port =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> p
        | _ -> assert false
      in
      {
        cfg = config;
        listen_fd = fd;
        bound_port;
        writer = Mutex.create ();
        wal;
        planner = Planner.create ~capacity:config.cache_capacity session;
        state = Mutex.create ();
        active = 0;
        stopping = false;
        conns = Hashtbl.create 16;
        conn_threads = [];
        accept_thread = None;
        next_conn = 0;
        collector = None;
      }
    with e ->
      (try Unix.close fd with _ -> ());
      raise e
  in
  t.collector <- Some (Metrics.register_collector (collector_samples t));
  t.accept_thread <- Some (Thread.create accept_loop t);
  t

let port t = t.bound_port
let config t = t.cfg
let session t = Planner.session t.planner
let wal t = t.wal

let checkpoint t =
  exclusive t (fun () ->
      match t.wal with
      | Some wal -> Wal.Manager.checkpoint wal (Planner.session t.planner)
      | None -> ())

let stop t =
  let already = locked t (fun () ->
      let s = t.stopping in
      t.stopping <- true;
      s)
  in
  if not already then begin
    (match t.collector with
    | Some id ->
        Metrics.unregister_collector id;
        t.collector <- None
    | None -> ());
    (* wake the accept loop with a throwaway connection, then close *)
    (try
       let wake = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
       let host = if t.cfg.host = "0.0.0.0" then "127.0.0.1" else t.cfg.host in
       (try Unix.connect wake (Unix.ADDR_INET (resolve_addr host, t.bound_port))
        with _ -> ());
       Unix.close wake
     with _ -> ());
    (match t.accept_thread with Some th -> Thread.join th | None -> ());
    (try Unix.close t.listen_fd with _ -> ());
    (* sever live connections: their blocked read sees EOF *)
    let fds = locked t (fun () -> Hashtbl.fold (fun _ fd acc -> fd :: acc) t.conns []) in
    List.iter (fun fd -> try Unix.shutdown fd Unix.SHUTDOWN_ALL with _ -> ()) fds;
    let threads = locked t (fun () -> t.conn_threads) in
    List.iter Thread.join threads
  end
