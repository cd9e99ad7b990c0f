(* Tests for the concurrent query server: the LRU plan cache, the
   cache-keyed planner (generation invalidation), the wire protocol and
   its closed command set, per-query timeouts, admission control and
   the load-test harness. *)

module Value = Eds_value.Value
module Relation = Eds_engine.Relation
module Database = Eds_engine.Database
module Eval = Eds_engine.Eval
module Cancel = Eds_engine.Cancel
module Session = Eds.Session
module Repl = Eds.Repl
module Storage = Eds.Storage
module Wal = Eds.Wal
module Plan_cache = Eds_server.Plan_cache
module Planner = Eds_server.Planner
module Server = Eds_server.Server
module Client = Eds_server.Client
module Protocol = Eds_server.Protocol
module Loadtest = Eds_server.Loadtest

let total = Test_metrics.total

(* [name]'s registry growth since this call (process-wide cells: other
   cases share them, so tests read differences) *)
let growth ?labels name =
  let n0 = total ?labels name in
  fun () -> total ?labels name - n0

(* [key]'s growth since this call, read through the server's table *)
let since srv key =
  let n0 = Server.metric srv key in
  fun () -> int_of_float (Server.metric srv key -. n0)

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec probe i = i + n <= m && (String.sub s i n = affix || probe (i + 1)) in
  n = 0 || probe 0

(* -- plan cache ---------------------------------------------------------- *)

let test_plan_cache_lru () =
  let c = Plan_cache.create ~capacity:2 in
  let insertions = growth "eds_plan_cache_insertions_total" in
  let evictions = growth "eds_plan_cache_evictions_total" in
  let hits = growth "eds_plan_cache_hits_total" in
  let misses = growth "eds_plan_cache_misses_total" in
  Plan_cache.add c "a" 1;
  Plan_cache.add c "b" 2;
  Alcotest.(check (option int)) "a cached" (Some 1) (Plan_cache.find c "a");
  (* "b" is now the LRU entry; inserting "c" evicts it *)
  Plan_cache.add c "c" 3;
  Alcotest.(check (option int)) "b evicted" None (Plan_cache.find c "b");
  Alcotest.(check (option int)) "a survived" (Some 1) (Plan_cache.find c "a");
  Alcotest.(check (option int)) "c cached" (Some 3) (Plan_cache.find c "c");
  Alcotest.(check int) "insertions" 3 (insertions ());
  Alcotest.(check int) "evictions" 1 (evictions ());
  Alcotest.(check int) "hits" 3 (hits ());
  Alcotest.(check int) "misses" 1 (misses ());
  Alcotest.(check int) "size bounded" 2 (Plan_cache.stats c).Plan_cache.size

let test_plan_cache_overwrite () =
  let c = Plan_cache.create ~capacity:2 in
  let insertions = growth "eds_plan_cache_insertions_total" in
  Plan_cache.add c "a" 1;
  Plan_cache.add c "a" 9;
  Alcotest.(check (option int)) "overwritten in place" (Some 9)
    (Plan_cache.find c "a");
  Alcotest.(check int) "one insertion" 1 (insertions ())

(* -- planner ------------------------------------------------------------- *)

let test_normalize () =
  Alcotest.(check string) "collapses and strips" "SELECT A FROM P"
    (Planner.normalize "  SELECT\t A \n FROM   P ; ");
  Alcotest.(check bool) "select detected" true (Planner.is_select "  select A from P");
  Alcotest.(check bool) "directive is not a select" false (Planner.is_select ".stats");
  Alcotest.(check bool) "prefix word is not a select" false
    (Planner.is_select "SELECTIVITY 3")

let planner_session () =
  let s = Session.create () in
  ignore (Session.exec_string s "TABLE P (A : INT)");
  for i = 1 to 5 do
    ignore (Session.exec_string s (Fmt.str "INSERT INTO P VALUES (%d)" i))
  done;
  s

let origin =
  Alcotest.testable
    (fun ppf o -> Fmt.string ppf (match o with `Hit -> "hit" | `Miss -> "miss"))
    ( = )

let test_planner_generation () =
  let s = planner_session () in
  let p = Planner.create s in
  let _, o1 = Planner.execute p "SELECT A FROM P" in
  Alcotest.check origin "first plan is a miss" `Miss o1;
  let _, o2 = Planner.execute p "  SELECT   A FROM P ;" in
  Alcotest.check origin "normalized repeat hits" `Hit o2;
  (* data changes do NOT invalidate: plans are data-independent, the
     cached plan must see the new tuple *)
  ignore (Session.exec_string s "INSERT INTO P VALUES (6)");
  let rel, o3 = Planner.execute p "SELECT A FROM P" in
  Alcotest.check origin "insert keeps the plan" `Hit o3;
  Alcotest.(check int) "cached plan sees fresh data" 6 (Relation.cardinality rel);
  (* DDL bumps the generation: stale keys never match again *)
  ignore (Session.exec_string s "TABLE Q (B : INT)");
  let _, o4 = Planner.execute p "SELECT A FROM P" in
  Alcotest.check origin "DDL invalidates" `Miss o4;
  (* so does an optimizer-config change *)
  Session.set_config s (Repl.limits_config 5);
  let _, o5 = Planner.execute p "SELECT A FROM P" in
  Alcotest.check origin "config change invalidates" `Miss o5;
  (* and the adaptive-limits toggle *)
  Session.set_adaptive s true;
  let _, o6 = Planner.execute p "SELECT A FROM P" in
  Alcotest.check origin "adaptive toggle invalidates" `Miss o6;
  let _, o7 = Planner.execute p "SELECT A FROM P" in
  Alcotest.check origin "steady state hits again" `Hit o7

let test_planner_records_session_stats () =
  let s = planner_session () in
  let p = Planner.create s in
  let statements = growth "eds_session_statements_total" in
  let tuples_read = growth "eds_eval_tuples_read_total" in
  ignore (Planner.execute p "SELECT A FROM P");
  ignore (Planner.execute p "SELECT A FROM P");
  Alcotest.(check int) "cached executions still counted" 2 (statements ());
  Alcotest.(check bool) "eval work recorded" true (tuples_read () > 0)

(* -- copy-on-write snapshots --------------------------------------------- *)

let test_database_snapshot_isolation () =
  let s = planner_session () in
  let db = Session.database s in
  let g0 = Database.data_generation db in
  let snap = Database.snapshot db in
  ignore (Session.exec_string s "INSERT INTO P VALUES (99)");
  Alcotest.(check bool) "data generation bumped by the insert" true
    (Database.data_generation db > g0);
  Alcotest.(check int) "snapshot is isolated from the insert" 5
    (Relation.cardinality (Database.relation snap "P"));
  Alcotest.(check int) "live database sees the insert" 6
    (Relation.cardinality (Database.relation db "P"));
  Alcotest.(check int) "snapshot generation frozen" g0 (Database.data_generation snap)

let test_planner_sweeps_stale_generation () =
  let s = planner_session () in
  let p = Planner.create ~capacity:4 s in
  ignore (Planner.execute p "SELECT A FROM P");
  ignore (Planner.execute p "SELECT A FROM P WHERE A = 1");
  Alcotest.(check int) "two live entries" 2 (Planner.cache_stats p).Plan_cache.size;
  (* DDL bumps the plan generation, orphaning both keys *)
  ignore (Session.exec_string s "TABLE QQ (B : INT)");
  let swept = growth "eds_plan_cache_swept_total" in
  ignore (Planner.execute p "SELECT A FROM P");
  let st = Planner.cache_stats p in
  Alcotest.(check int) "stale entries swept eagerly" 2 (swept ());
  Alcotest.(check int) "capacity spent on live keys only" 1 st.Plan_cache.size

(* -- cancellation hygiene ------------------------------------------------- *)

let test_cancel_deadline_never_leaks () =
  (* a Timeout leaves no deadline behind *)
  Alcotest.(check bool) "timeout fires" true
    (try
       Cancel.with_timeout 0.000_001 (fun () ->
           Thread.delay 0.005;
           Cancel.tick ();
           false)
     with Cancel.Timeout _ -> true);
  Alcotest.(check bool) "uninstalled after Timeout" false (Cancel.active ());
  Cancel.tick ();
  (* nor does any other exception *)
  (try Cancel.with_timeout 30. (fun () -> failwith "boom") with Failure _ -> ());
  Alcotest.(check bool) "uninstalled after exception" false (Cancel.active ());
  (* nesting restores the outer deadline, and the outermost exit clears *)
  Cancel.with_timeout 30. (fun () ->
      Cancel.with_timeout 20. (fun () -> Cancel.tick ());
      Alcotest.(check bool) "outer deadline restored" true (Cancel.active ()));
  Alcotest.(check bool) "cleared after outermost exit" false (Cancel.active ());
  (* the backstop is idempotent and safe with nothing installed *)
  Cancel.clear ();
  Cancel.clear ();
  Cancel.tick ()

(* tick [n] times, yielding now and then so other threads interleave *)
let tick_n n =
  for i = 1 to n do
    Cancel.tick ();
    if i mod 1_000 = 0 then Thread.yield ()
  done

let timeout_budget f = try f (); None with Cancel.Timeout b -> Some b

let test_cancel_threads_isolated () =
  (* both deadlines are installed before either thread ticks, and the
     expired thread ticks only once the live one is under way: whichever
     entry comes first in the list, each thread must find its own *)
  let installed = Atomic.make 0 and batches = Atomic.make 0 in
  let wait_for counter n =
    let t0 = Unix.gettimeofday () in
    while Atomic.get counter < n && Unix.gettimeofday () -. t0 < 5.0 do
      Thread.yield ()
    done
  in
  let fired = Atomic.make false and spared = Atomic.make false in
  let expired () =
    try
      Cancel.with_timeout 0. (fun () ->
          Atomic.incr installed;
          wait_for installed 2;
          wait_for batches 1;
          tick_n 100_000)
    with Cancel.Timeout _ -> Atomic.set fired true
  in
  let live () =
    Cancel.with_timeout 30. (fun () ->
        Atomic.incr installed;
        wait_for installed 2;
        for _ = 1 to 100 do
          tick_n 1_000;
          Atomic.incr batches
        done);
    Atomic.set spared true
  in
  let threads = [ Thread.create expired (); Thread.create live () ] in
  List.iter Thread.join threads;
  Alcotest.(check bool) "expired thread raised" true (Atomic.get fired);
  Alcotest.(check bool) "live thread ticked 100k times unharmed" true
    (Atomic.get spared);
  Alcotest.(check bool) "both deadlines uninstalled" false (Cancel.active ())

let test_cancel_bounded_overshoot () =
  Alcotest.(check (option (float 0.))) "zero budget fires on the first tick"
    (Some 0.)
    (timeout_budget (fun () -> Cancel.with_timeout 0. Cancel.tick));
  (* the countdown is mid-stride when the deadline passes; the clock is
     still read again within a bounded number of ticks *)
  let late = ref 0 in
  (try
     Cancel.with_timeout 0.2 (fun () ->
         tick_n 100;
         Thread.delay 0.25;
         while !late < 1_000_000 do
           incr late;
           Cancel.tick ()
         done)
   with Cancel.Timeout _ -> ());
  Alcotest.(check bool)
    (Fmt.str "Timeout within 10,000 ticks of expiry (took %d)" !late)
    true
    (!late >= 1 && !late <= 10_000)

let test_cancel_nested_restores_outer () =
  let outer_fired =
    timeout_budget (fun () ->
        Cancel.with_timeout 0.3 (fun () ->
            Alcotest.(check (option (float 0.))) "inner deadline fires"
              (Some 0.001)
              (timeout_budget (fun () ->
                   Cancel.with_timeout 0.001 (fun () ->
                       Thread.delay 0.005;
                       Cancel.tick ())));
            (* the outer deadline is back, not yet due *)
            Alcotest.(check bool) "outer deadline restored" true
              (Cancel.active ());
            Cancel.tick ();
            Thread.delay 0.35;
            tick_n 1_000_000))
  in
  Alcotest.(check (option (float 0.))) "outer deadline still fires" (Some 0.3)
    outer_fired;
  Alcotest.(check bool) "cleared after outermost exit" false (Cancel.active ())

(* regression: the binding (outer) deadline used to report the inner
   budget, e.g. "query timeout after 30s" for a 1 ms outer budget *)
let test_cancel_nested_reports_binding_budget () =
  Alcotest.(check (option (float 0.))) "outer budget reported" (Some 0.001)
    (timeout_budget (fun () ->
         Cancel.with_timeout 0.001 (fun () ->
             Cancel.with_timeout 30. (fun () ->
                 Thread.delay 0.005;
                 Cancel.tick ()))))

(* -- wire protocol ------------------------------------------------------- *)

let with_server ?config ?wal session f =
  let srv = Server.start ?config ?wal session in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f srv)

let with_client srv f =
  let c = Client.connect (Server.port srv) in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

let status =
  Alcotest.testable
    (fun ppf s -> Fmt.string ppf (Protocol.status_to_string s))
    ( = )

let test_wire_basics () =
  with_server (Session.create ()) (fun srv ->
      with_client srv (fun c ->
          let st, payload = Client.request c "PING" in
          Alcotest.check status "ping ok" Protocol.Ok st;
          Alcotest.(check string) "pong" "pong\n" payload;
          let st, payload = Client.request c "HELP" in
          Alcotest.check status "help ok" Protocol.Ok st;
          Alcotest.(check bool) "help mentions SAVE" true
            (contains ~affix:"SAVE" payload);
          (* one unknown command must not drop the connection *)
          let st, payload = Client.request c "FROB" in
          Alcotest.check status "unknown command errors" Protocol.Error st;
          Alcotest.(check string) "one-line hint"
            "error: unknown command FROB (try HELP)\n" payload;
          let st, _ = Client.request c "PING" in
          Alcotest.check status "connection survived" Protocol.Ok st;
          (* malformed ESQL is a per-line error too *)
          let st, payload = Client.request c "SELECT FROM WHERE" in
          Alcotest.check status "parse error reported" Protocol.Error st;
          Alcotest.(check bool) "error payload prefixed" true
            (String.length payload > 7 && String.sub payload 0 7 = "error: ");
          let st, _ = Client.request c "PING" in
          Alcotest.check status "still alive after parse error" Protocol.Ok st;
          (* QUIT closes cleanly *)
          let st, payload = Client.request c "QUIT" in
          Alcotest.check status "quit ok" Protocol.Ok st;
          Alcotest.(check string) "bye" "bye\n" payload))

let test_wire_matches_local_session () =
  with_server (Session.create ()) (fun srv ->
      let twin = Session.create () in
      Loadtest.apply_setup twin;
      let expected = Loadtest.expected_payloads twin in
      with_client srv (fun c ->
          Loadtest.setup_over_wire c;
          List.iter
            (fun q ->
              let st, payload = Client.request c q in
              Alcotest.check status (Fmt.str "ok: %s" q) Protocol.Ok st;
              Alcotest.(check string)
                (Fmt.str "bit-identical: %s" q)
                (List.assoc q expected) payload)
            Loadtest.queries))

let test_wire_cache_and_invalidation () =
  let s = planner_session () in
  with_server s (fun srv ->
      with_client srv (fun c ->
          let hits = growth "eds_plan_cache_hits_total" in
          let misses = growth "eds_plan_cache_misses_total" in
          ignore (Client.request c "SELECT A FROM P");
          Alcotest.(check int) "first select misses" 1 (misses ());
          ignore (Client.request c "SELECT A FROM P ;");
          Alcotest.(check int) "repeat hits" 1 (hits ());
          (* DDL over the wire bumps the generation *)
          let st, _ = Client.request c "TABLE Q2 (B : INT)" in
          Alcotest.check status "ddl ok" Protocol.Ok st;
          ignore (Client.request c "SELECT A FROM P");
          Alcotest.(check int) "post-DDL select misses" 2 (misses ());
          ignore (Client.request c "SELECT A FROM P");
          Alcotest.(check int) "then hits again" 2 (hits ())))

let test_wire_save_then_load () =
  let path = Filename.temp_file "eds_server_save" ".esql" in
  with_server (Session.create ()) (fun srv ->
      with_client srv (fun c ->
          Loadtest.setup_over_wire c;
          let st, _ = Client.request c "SAVE" in
          Alcotest.check status "SAVE without a path errors" Protocol.Error st;
          let st, payload = Client.request c (Fmt.str "SAVE %s" path) in
          Alcotest.check status "save ok" Protocol.Ok st;
          Alcotest.(check bool) "save echoes path" true
            (contains ~affix:path payload);
          (* a session loaded from the dump answers identically *)
          let loaded = Storage.load path in
          let q = List.hd Loadtest.queries in
          let want =
            let st, p = Client.request c q in
            Alcotest.check status "query ok" Protocol.Ok st;
            p
          in
          let buf = Buffer.create 256 in
          let ppf = Format.formatter_of_buffer buf in
          Repl.print_result ppf (Session.Rows (Session.query loaded q));
          Format.pp_print_flush ppf ();
          Alcotest.(check string) "loaded dump answers identically" want
            (Buffer.contents buf)));
  Sys.remove path

let test_wire_metrics_json () =
  with_server (planner_session ()) (fun srv ->
      with_client srv (fun c ->
          let metrics () =
            let st, payload = Client.request c "METRICS" in
            Alcotest.check status "metrics ok" Protocol.Ok st;
            match Eds_obs.Obs.Json.parse (String.trim payload) with
            | Error e -> Alcotest.failf "METRICS is not JSON: %s" e
            | Ok json -> (
                fun k ->
                  match Eds_obs.Obs.Json.member k json with
                  | Some v -> Option.value ~default:(-1) (Eds_obs.Obs.Json.to_int v)
                  | None -> Alcotest.failf "METRICS lacks %s" k)
          in
          let before = metrics () in
          ignore (Client.request c "SELECT A FROM P");
          let after = metrics () in
          let delta k = after k - before k in
          Alcotest.(check int) "one miss recorded" 1 (delta "server.plan_cache.misses");
          Alcotest.(check bool) "statements counted" true
            (delta "session.statements_run" >= 1)))

let test_wire_metrics_prom () =
  with_server (planner_session ()) (fun srv ->
      with_client srv (fun c ->
          ignore (Client.request c "SELECT A FROM P");
          let st, payload = Client.request c "METRICS PROM" in
          Alcotest.check status "prom ok" Protocol.Ok st;
          (match Test_metrics.lint_prometheus payload with
          | [] -> ()
          | errs ->
              Alcotest.failf "METRICS PROM fails exposition lint:\n%s"
                (String.concat "\n" errs));
          Alcotest.(check bool) "query counter exposed" true
            (contains ~affix:{|eds_queries_total{verb="select",outcome="ok"}|}
               payload);
          Alcotest.(check bool) "latency histogram exposed" true
            (contains ~affix:"eds_query_duration_seconds_bucket" payload);
          Alcotest.(check bool) "instance collector exposed" true
            (contains ~affix:"eds_plan_cache_entries" payload)))

let test_wire_stats_reset () =
  with_server (planner_session ()) (fun srv ->
      let misses = since srv "server.plan_cache.misses" in
      with_client srv (fun c ->
          ignore (Client.request c "TABLE Q9 (B : INT)");
          ignore (Client.request c "SELECT A FROM P");
          ignore (Client.request c "SELECT A FROM P");
          let geti payload k =
            match Eds_obs.Obs.Json.parse (String.trim payload) with
            | Error e -> Alcotest.failf "METRICS is not JSON: %s" e
            | Ok json -> (
                match Eds_obs.Obs.Json.member k json with
                | Some v -> Eds_obs.Obs.Json.to_int v
                | None -> None)
          in
          let _, before = Client.request c "METRICS" in
          let gen0 = geti before "session.generation" in
          let dgen0 = geti before "session.data_generation" in
          Alcotest.(check bool) "tallies advanced" true
            (match geti before "server.queries.ok" with
            | Some n -> n >= 3
            | None -> false);
          Alcotest.(check int) "a miss accumulated" 1 (misses ());
          let st, payload = Client.request c "STATS RESET" in
          Alcotest.check status "stats reset ok" Protocol.Ok st;
          Alcotest.(check bool) "reset names what survives" true
            (contains ~affix:"preserved" payload);
          let _, after = Client.request c "METRICS" in
          (* the STATS RESET request itself was the only query since *)
          Alcotest.(check (option int)) "query tally zeroed" (Some 1)
            (geti after "server.queries.ok");
          Alcotest.(check (option int)) "cache misses zeroed" (Some 0)
            (geti after "server.plan_cache.misses");
          Alcotest.(check (option int)) "cache hits zeroed" (Some 0)
            (geti after "server.plan_cache.hits");
          (* integrity markers survive: generations are monotone history *)
          Alcotest.(check (option int)) "generation preserved" gen0
            (geti after "session.generation");
          Alcotest.(check (option int)) "data generation preserved" dgen0
            (geti after "session.data_generation")))

let test_slow_query_log () =
  let lines = ref [] in
  let lock = Mutex.create () in
  let sink line =
    Mutex.lock lock;
    lines := line :: !lines;
    Mutex.unlock lock
  in
  let config =
    {
      Server.default_config with
      slow_query_ms = Some 0.;
      slow_log = Some sink;
    }
  in
  with_server ~config (planner_session ()) (fun srv ->
      with_client srv (fun c ->
          ignore (Client.request c "SELECT A FROM P");
          ignore (Client.request c "SELECT A FROM P")));
  let captured = List.rev !lines in
  Alcotest.(check bool) "slow log captured both queries" true
    (List.length captured >= 2);
  List.iter
    (fun line ->
      match Eds_obs.Obs.Json.parse line with
      | Error e -> Alcotest.failf "slow-log line is not JSON (%s): %s" e line
      | Ok json ->
          let mem k = Eds_obs.Obs.Json.member k json in
          Alcotest.(check bool) "has query" true (mem "query" <> None);
          Alcotest.(check bool) "has total_ms" true (mem "total_ms" <> None);
          Alcotest.(check bool) "has cache" true (mem "cache" <> None);
          Alcotest.(check bool) "has rows" true (mem "rows" <> None))
    captured;
  (* second execution is a plan-cache hit and says so *)
  Alcotest.(check bool) "cache origin recorded" true
    (contains ~affix:{|"cache":"hit"|} (List.nth captured 1))

let test_wire_explain_analyze () =
  with_server (planner_session ()) (fun srv ->
      with_client srv (fun c ->
          let st, payload = Client.request c "EXPLAIN SELECT A FROM P" in
          Alcotest.check status "explain ok" Protocol.Ok st;
          Alcotest.(check bool) "shows rewritten plan" true
            (contains ~affix:"rewritten" payload);
          let st, payload =
            Client.request c "EXPLAIN ANALYZE SELECT A FROM P"
          in
          Alcotest.check status "explain analyze ok" Protocol.Ok st;
          Alcotest.(check bool) "analyze header" true
            (contains ~affix:"EXPLAIN ANALYZE" payload);
          Alcotest.(check bool) "per-operator rows" true
            (contains ~affix:"rows=" payload);
          Alcotest.(check bool) "execution phase" true
            (contains ~affix:"execution" payload);
          (* the connection survives an EXPLAIN of a non-SELECT *)
          let st, _ = Client.request c "EXPLAIN INSERT INTO P VALUES (1)" in
          Alcotest.check status "explain non-select errors" Protocol.Error st;
          let st, _ = Client.request c "PING" in
          Alcotest.check status "still alive" Protocol.Ok st))

(* -- timeouts ------------------------------------------------------------ *)

(* a 60^4 cartesian product (under the naive physical layer unless told
   otherwise): far more work than the budget allows, cancelled
   cooperatively mid-join *)
let slow_session ?(physical = Eval.Physical.Naive) () =
  let s = Session.create () in
  Session.set_physical s physical;
  ignore
    (Session.exec_script s
       "TABLE A (X : INT) ; TABLE B (Y : INT) ; TABLE C (Z : INT) ; \
        TABLE D (W : INT) ;");
  let db = Session.database s in
  for i = 0 to 59 do
    Database.insert db "A" [ Value.Int i ];
    Database.insert db "B" [ Value.Int i ];
    Database.insert db "C" [ Value.Int i ];
    Database.insert db "D" [ Value.Int i ]
  done;
  s

let test_query_timeout_spares_connection () =
  let config = { Server.default_config with query_timeout = Some 0.05 } in
  with_server ~config (slow_session ()) (fun srv ->
      let timeouts = since srv "server.queries.timeouts" in
      let errors = since srv "server.queries.errors" in
      with_client srv (fun c ->
          let st, payload =
            Client.request c "SELECT X FROM A, B, C, D WHERE X = W"
          in
          Alcotest.check status "overrunning query errors" Protocol.Error st;
          Alcotest.(check bool) "error names the timeout" true
            (contains ~affix:"timeout" payload);
          (* the connection survives and serves quick queries *)
          let st, payload = Client.request c "SELECT X FROM A" in
          Alcotest.check status "quick query after timeout" Protocol.Ok st;
          Alcotest.(check bool) "full scan answered" true
            (contains ~affix:"(60 tuples)" payload));
      Alcotest.(check int) "timeout counted" 1 (timeouts ());
      Alcotest.(check int) "not an ordinary error" 0 (errors ()))

(* regression: a deadline surviving a timed-out statement would make the
   same connection's next statements die instantly with stale Timeouts *)
let test_backtoback_queries_after_timeout () =
  let config = { Server.default_config with query_timeout = Some 0.05 } in
  with_server ~config (slow_session ()) (fun srv ->
      let timeouts = since srv "server.queries.timeouts" in
      with_client srv (fun c ->
          let st, _ = Client.request c "SELECT X FROM A, B, C, D WHERE X = W" in
          Alcotest.check status "overrunning query errors" Protocol.Error st;
          for i = 1 to 6 do
            let st, payload = Client.request c "SELECT X FROM A" in
            Alcotest.check status (Fmt.str "query %d after the timeout" i)
              Protocol.Ok st;
            Alcotest.(check bool)
              (Fmt.str "query %d answered in full" i)
              true
              (contains ~affix:"(60 tuples)" payload)
          done);
      Alcotest.(check int) "exactly one timeout" 1 (timeouts ()))

(* the served Indexed layer enumerates an inequality-only join (no
   equi-keys to hash on) as a cartesian product too: 12,960,000
   combinations, seconds of work without the deadline *)
let test_indexed_query_timeout () =
  let config = { Server.default_config with query_timeout = Some 0.05 } in
  with_server ~config (slow_session ~physical:Eval.Physical.Indexed ())
    (fun srv ->
      let timeouts = since srv "server.queries.timeouts" in
      with_client srv (fun c ->
          let t0 = Unix.gettimeofday () in
          let st, payload =
            Client.request c
              "SELECT X FROM A, B, C, D WHERE X < Y AND Y < Z AND Z < W"
          in
          let elapsed = Unix.gettimeofday () -. t0 in
          Alcotest.check status "overrunning query errors" Protocol.Error st;
          Alcotest.(check bool) "error names the timeout" true
            (contains ~affix:"timeout" payload);
          Alcotest.(check bool)
            (Fmt.str "error frame within 2 s (took %.3f s)" elapsed)
            true (elapsed < 2.0);
          let st, payload = Client.request c "SELECT X FROM A" in
          Alcotest.check status "quick query after timeout" Protocol.Ok st;
          Alcotest.(check bool) "full scan answered" true
            (contains ~affix:"(60 tuples)" payload);
          let st, _ = Client.request c "PING" in
          Alcotest.check status "connection still serving" Protocol.Ok st);
      Alcotest.(check int) "timeout counted" 1 (timeouts ()))

(* -- admission control --------------------------------------------------- *)

let test_admission_busy () =
  let config = { Server.default_config with max_connections = 1 } in
  with_server ~config (Session.create ()) (fun srv ->
      let refused = since srv "server.connections.refused" in
      let c1 = Client.connect (Server.port srv) in
      let st, _ = Client.request c1 "PING" in
      Alcotest.check status "first connection served" Protocol.Ok st;
      (* the second connection is refused with a busy frame *)
      let c2 = Client.connect (Server.port srv) in
      let st, payload = Client.request c2 "PING" in
      Alcotest.check status "second connection refused" Protocol.Busy st;
      Alcotest.(check bool) "busy names the limit" true
        (contains ~affix:"busy" payload);
      Client.close c2;
      Client.close c1;
      (* capacity freed: a later connection is admitted.  Poll: the
         server notices the close asynchronously. *)
      let rec retry n =
        let c3 = Client.connect (Server.port srv) in
        let st, _ = Client.request c3 "PING" in
        Client.close c3;
        if st = Protocol.Ok then ()
        else if n = 0 then Alcotest.fail "capacity never freed"
        else begin
          Thread.delay 0.05;
          retry (n - 1)
        end
      in
      retry 40;
      Alcotest.(check bool) "refusals counted" true (refused () >= 1))

(* -- durability over the wire --------------------------------------------- *)

let with_temp_db f =
  let db = Filename.temp_file "eds_srv_wal" ".esql" in
  Sys.remove db;
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ db; db ^ ".tmp"; Wal.Manager.wal_path db ])
    (fun () -> f db)

let test_wire_wal_crash_recovery () =
  with_temp_db (fun db ->
      let session, handle, _ = Wal.Manager.recover ~sync:false ~db () in
      let want = ref "" in
      with_server ~wal:handle session (fun srv ->
          with_client srv (fun c ->
              List.iter
                (fun stmt ->
                  let st, _ = Client.request c stmt in
                  Alcotest.check status (Fmt.str "ok: %s" stmt) Protocol.Ok st)
                [
                  "TABLE P (A : INT)";
                  "INSERT INTO P VALUES (1)";
                  "INSERT INTO P VALUES (2)";
                  "UPDATE P SET A = 10 WHERE A = 1";
                  "SELECT A FROM P";
                  "DELETE FROM P WHERE A = 2";
                ]);
          want := Storage.dump (Server.session srv));
      Alcotest.(check int) "5 writes logged, SELECT not" 5
        (Wal.Manager.stats handle).Wal.Manager.wal_records;
      (* crash: no checkpoint, the handle is abandoned *)
      Wal.Manager.close handle;
      let recovered, handle', replayed = Wal.Manager.recover ~sync:false ~db () in
      Alcotest.(check int) "committed statements replayed" 5 replayed;
      Alcotest.(check string) "recovered byte-identical" !want
        (Storage.dump recovered);
      Wal.Manager.close handle')

let test_wire_save_checkpoints_wal () =
  with_temp_db (fun db ->
      let session, handle, _ = Wal.Manager.recover ~sync:false ~db () in
      let want = ref "" in
      with_server ~wal:handle session (fun srv ->
          with_client srv (fun c ->
              ignore (Client.request c "TABLE P (A : INT)");
              ignore (Client.request c "INSERT INTO P VALUES (1)");
              let st, payload = Client.request c (Fmt.str "SAVE %s" db) in
              Alcotest.check status "save ok" Protocol.Ok st;
              Alcotest.(check bool) "save names the checkpoint" true
                (contains ~affix:"checkpoint" payload);
              Alcotest.(check int) "wal truncated by the checkpoint" 0
                (Wal.Manager.stats handle).Wal.Manager.wal_records;
              (* post-checkpoint writes land in the fresh log *)
              ignore (Client.request c "INSERT INTO P VALUES (2)");
              Alcotest.(check int) "new write logged after checkpoint" 1
                (Wal.Manager.stats handle).Wal.Manager.wal_records);
          want := Storage.dump (Server.session srv));
      Wal.Manager.close handle;
      let recovered, handle', replayed = Wal.Manager.recover ~sync:false ~db () in
      Alcotest.(check int) "only the post-checkpoint write replays" 1 replayed;
      Alcotest.(check string) "checkpoint + tail recover byte-identical" !want
        (Storage.dump recovered);
      Wal.Manager.close handle')

(* -- concurrent load ----------------------------------------------------- *)

let test_loadtest_concurrent_bit_identical () =
  let s = Session.create () in
  Loadtest.apply_setup s;
  let twin = Session.create () in
  Loadtest.apply_setup twin;
  let expected = Loadtest.expected_payloads twin in
  with_server s (fun srv ->
      let entries = since srv "server.rwlock.write_acquired" in
      let misses = since srv "server.plan_cache.misses" in
      let o =
        Loadtest.run ~expected ~port:(Server.port srv) ~clients:16 ~per_client:12 ()
      in
      Alcotest.(check int) "all requests answered ok" (16 * 12) o.Loadtest.ok;
      Alcotest.(check int) "no dropped connections" 0 o.Loadtest.dropped_connections;
      Alcotest.(check int) "no protocol errors" 0 o.Loadtest.protocol_errors;
      Alcotest.(check int) "no busy refusals" 0 o.Loadtest.busy;
      Alcotest.(check bool) "responses bit-identical to a lone session" true
        o.Loadtest.bit_identical;
      Alcotest.(check bool)
        (Fmt.str "plan-cache hit rate %.2f > 0.5" o.Loadtest.hit_rate)
        true
        (o.Loadtest.hit_rate > 0.5);
      (* the acceptance criterion: SELECTs evaluate against snapshots
         without a lock; on this read-only load only plan-cache misses
         entered the exclusive section, one entry each *)
      Alcotest.(check bool) "some misses planned" true (misses () > 0);
      Alcotest.(check int) "exclusive entries = plan-cache misses" (misses ())
        (entries ()))

let test_loadtest_mixed_verified () =
  let s = Session.create () in
  Loadtest.apply_setup s;
  let twin = Session.create () in
  Loadtest.apply_setup twin;
  let expected = Loadtest.expected_payloads twin in
  with_server s (fun srv ->
      let entries = since srv "server.rwlock.write_acquired" in
      let misses = since srv "server.plan_cache.misses" in
      let writes = growth ~labels:[ ("verb", "write") ] "eds_queries_total" in
      let o =
        Loadtest.run_mixed ~expected ~port:(Server.port srv) ~clients:8
          ~per_client:20 ()
      in
      Alcotest.(check int) "all requests answered ok" (8 * 20) o.Loadtest.ok;
      Alcotest.(check int) "2 writes per 5 ops" (8 * 20 * 2 / 5) o.Loadtest.writes;
      Alcotest.(check int) "no error responses" 0 o.Loadtest.errors;
      Alcotest.(check int) "no dropped connections" 0 o.Loadtest.dropped_connections;
      Alcotest.(check int) "no protocol errors" 0 o.Loadtest.protocol_errors;
      Alcotest.(check bool)
        "every response — write acks included — matches the oracle" true
        o.Loadtest.bit_identical;
      (* snapshot reads are lock-free: every exclusive entry is a write
         request's or a plan-cache miss's *)
      Alcotest.(check int) "exclusive entries = write requests + misses"
        (writes () + misses ()) (entries ()))

(* VERIFY RULES gates an untrusted pack over the wire: a sound pack is
   appended to block "verified", an unsound one is rejected with the
   counterexample report and leaves the program untouched (ISSUE 10) *)
let test_wire_verify_rules () =
  with_server (Session.create ()) (fun srv ->
      let has_verified_block () =
        List.exists
          (fun b -> b.Eds_rewriter.Rule.block_name = "verified")
          (Session.program (Server.session srv)).Eds_rewriter.Rule.blocks
      in
      with_client srv (fun c ->
          let st, payload = Client.request c "VERIFY NONSENSE" in
          Alcotest.check status "usage error" Protocol.Error st;
          Alcotest.(check bool) "usage hint" true
            (contains ~affix:"usage: VERIFY RULES" payload);
          let st, payload =
            Client.request c "VERIFY RULES bad: filter(r, f) --> r ;"
          in
          Alcotest.check status "unsound pack rejected" Protocol.Error st;
          Alcotest.(check bool) "rejection names the rule" true
            (contains ~affix:"bad" payload);
          Alcotest.(check bool) "counterexample shown" true
            (contains ~affix:"counterexample" payload);
          Alcotest.(check bool) "program intact" false (has_verified_block ());
          let st, payload =
            Client.request c
              "VERIFY RULES good: filter(filter(r, f), g) --> filter(r, \
               and(bag(f, g))) ;"
          in
          Alcotest.check status "sound pack accepted" Protocol.Ok st;
          Alcotest.(check bool) "acceptance reported" true
            (contains ~affix:"pack accepted" payload);
          Alcotest.(check bool) "block verified present" true (has_verified_block ())))

(* perfbench reads these through METRICS and METRICS PROM differences,
   and reads a missing key as 0: a renamed key would silently zero a
   per-layer metric instead of failing *)
let test_wire_perfbench_keys () =
  with_temp_db (fun db ->
      let session, handle, _ = Wal.Manager.recover ~sync:false ~db () in
      with_server ~wal:handle session (fun srv ->
          with_client srv (fun c ->
              let _, json = Client.request c "METRICS" in
              let json =
                match Eds_obs.Obs.Json.parse (String.trim json) with
                | Ok j -> j
                | Error e -> Alcotest.failf "METRICS is not JSON: %s" e
              in
              List.iter
                (fun key ->
                  Alcotest.(check bool) ("METRICS has " ^ key) true
                    (Option.is_some
                       (Option.bind (Eds_obs.Obs.Json.member key json)
                          Eds_obs.Obs.Json.to_int)))
                [
                  "server.plan_cache.hits"; "server.plan_cache.misses";
                  "server.plan_cache.evictions"; "server.rwlock.write_acquired";
                  "session.mviews.maintenance_runs";
                  "session.mviews.fallback_recomputes"; "session.mviews.delta_tuples";
                  "session.fix_cache.invalidations"; "wal.fsyncs"; "wal.commits";
                  "wal.bytes";
                ];
              let _, prom = Client.request c "METRICS PROM" in
              let lines = String.split_on_char '\n' prom in
              List.iter
                (fun (name, labels) ->
                  List.iter
                    (fun suffix ->
                      let series = name ^ suffix ^ labels in
                      Alcotest.(check bool) ("METRICS PROM has " ^ series) true
                        (List.exists (String.starts_with ~prefix:(series ^ " ")) lines))
                    [ "_sum"; "_count" ])
                ([
                   ("eds_query_duration_seconds", {|{verb="select"}|});
                   ("eds_query_duration_seconds", {|{verb="write"}|});
                   ("eds_wal_fsync_duration_seconds", "");
                 ]
                @ List.map
                    (fun p -> ("eds_phase_duration_seconds", Fmt.str {|{phase="%s"}|} p))
                    [ "parse"; "translate"; "rewrite"; "execute" ])));
      Wal.Manager.close handle)

(* The registry's atomic cells lose no update: K connections each send N
   SELECTs, and the query counter, METRICS and STATS all account for
   exactly K×N of them. *)
let test_no_lost_update () =
  let k = 8 and n = 40 in
  with_server (planner_session ()) (fun srv ->
      with_client srv (fun c ->
          let ask line =
            match Client.request c line with
            | Protocol.Ok, payload -> payload
            | _, payload -> Alcotest.failf "%s: %s" line payload
          in
          let metrics_ok () =
            match Eds_obs.Obs.Json.parse (String.trim (ask "METRICS")) with
            | Ok json ->
                Option.get
                  (Option.bind (Eds_obs.Obs.Json.member "server.queries.ok" json)
                     Eds_obs.Obs.Json.to_int)
            | Error e -> Alcotest.failf "METRICS is not JSON: %s" e
          in
          let stats_ok () =
            let line =
              List.find
                (String.starts_with ~prefix:"requests")
                (String.split_on_char '\n' (ask "STATS"))
            in
            Scanf.sscanf line "requests : %d ok" Fun.id
          in
          let selects () =
            total ~labels:[ ("verb", "select"); ("outcome", "ok") ] "eds_queries_total"
          in
          let sel0 = selects () in
          let m0 = metrics_ok () in
          let s0 = stats_ok () in
          let client i () =
            with_client srv (fun c ->
                for j = 1 to n do
                  match Client.request c (Fmt.str "SELECT A FROM P WHERE A > %d" ((i + j) mod 5)) with
                  | Protocol.Ok, _ -> ()
                  | _, payload -> failwith payload
                done)
          in
          List.iter Thread.join (List.init k (fun i -> Thread.create (client i) ()));
          let m1 = metrics_ok () in
          let s1 = stats_ok () in
          (* a request counts itself once answered: the METRICS delta also
             holds the first METRICS and STATS, the STATS delta the first
             STATS and the second METRICS *)
          Alcotest.(check int) "select counter" (k * n) (selects () - sel0);
          Alcotest.(check int) "METRICS server.queries.ok" (k * n) (m1 - m0 - 2);
          Alcotest.(check int) "STATS requests ok" (k * n) (s1 - s0 - 2)))

(* One client sending an endless line must not make the daemon buffer
   it: past 1 MiB the request gets an error frame and its connection is
   closed, and the server keeps serving others. *)
let test_wire_request_line_cap () =
  with_server (Session.create ()) (fun srv ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> Unix.close fd)
        (fun () ->
          Unix.connect fd (Unix.ADDR_INET (Unix.inet_addr_loopback, Server.port srv));
          (* the send blocks once the server stops reading, and fails
             when it closes: write from a thread, read the reply here *)
          let sender =
            Thread.create
              (fun () ->
                let oc = Unix.out_channel_of_descr fd in
                try Protocol.send_request oc (String.make (2 lsl 20) 'x') with _ -> ())
              ()
          in
          let ic = Unix.in_channel_of_descr fd in
          (match Protocol.read_response ic with
          | Some (st, payload) ->
              Alcotest.check status "over-long line refused" Protocol.Error st;
              Alcotest.(check bool) "reply names the cap" true
                (contains ~affix:(string_of_int Protocol.max_request_bytes) payload)
          | None -> Alcotest.fail "connection closed without a reply");
          Alcotest.(check bool) "connection closed after the reply" true
            (match Protocol.read_response ic with
            | None -> true
            | exception Sys_error _ -> true
            | Some _ -> false);
          Thread.join sender);
      with_client srv (fun c ->
          Alcotest.(check (pair status string)) "a fresh connection is served"
            (Protocol.Ok, "pong\n") (Client.request c "PING")))

(* Rules, limits and the physical layer belong to whoever started the
   server: every shell directive is refused, the connection stays live,
   and neither the session nor the file system changes. *)
let test_wire_directives_refused () =
  let session = planner_session () in
  let dump = Filename.temp_file "eds_srv_dump" ".esql" in
  Storage.save (planner_session ()) dump;
  let absent () =
    let p = Filename.temp_file "eds_srv_directive" ".out" in
    Sys.remove p;
    p
  in
  let saved = absent () and traced = absent () and pack = absent () in
  Fun.protect
    ~finally:(fun () ->
      List.iter
        (fun p -> if Sys.file_exists p then Sys.remove p)
        [ dump; saved; traced; pack ])
    (fun () ->
      with_server session (fun srv ->
          let program () = Fmt.str "%a" Eds_rewriter.Rule.pp_program (Session.program session) in
          let gen0 = Session.generation session in
          let physical0 = Session.physical session in
          let program0 = program () in
          with_client srv (fun c ->
              List.iter
                (fun line ->
                  let st, payload = Client.request c line in
                  Alcotest.check status ("refused: " ^ line) Protocol.Error st;
                  Alcotest.(check bool) ("says why: " ^ line) true
                    (contains ~affix:"edsql-only" payload);
                  Alcotest.(check (pair status string)) ("live after " ^ line)
                    (Protocol.Ok, "pong\n") (Client.request c "PING"))
                [
                  ".physical naive";
                  ".limits 0";
                  ".norewrite";
                  ".constraint F(x) / ISA(x, Color) --> F(x) AND member(x, {'Red'})";
                  ".rules";
                  ".load " ^ dump;
                  ".save " ^ saved;
                  ".trace-file " ^ traced;
                  ".verify " ^ pack;
                ]);
          Alcotest.(check bool) "same session served" true (Server.session srv == session);
          Alcotest.(check int) "plan generation unchanged" gen0 (Session.generation session);
          Alcotest.(check bool) "physical layer unchanged" true
            (Session.physical session = physical0);
          Alcotest.(check string) "rule program unchanged" program0 (program ()));
      List.iter
        (fun p -> Alcotest.(check bool) ("no file at " ^ p) false (Sys.file_exists p))
        [ saved; traced; pack ])

let suite =
  [
    Alcotest.test_case "plan cache: LRU eviction" `Quick test_plan_cache_lru;
    Alcotest.test_case "plan cache: overwrite" `Quick test_plan_cache_overwrite;
    Alcotest.test_case "planner: normalize" `Quick test_normalize;
    Alcotest.test_case "planner: generation invalidation" `Quick
      test_planner_generation;
    Alcotest.test_case "planner: session stats recorded" `Quick
      test_planner_records_session_stats;
    Alcotest.test_case "database: snapshot isolation" `Quick
      test_database_snapshot_isolation;
    Alcotest.test_case "planner: stale generation swept" `Quick
      test_planner_sweeps_stale_generation;
    Alcotest.test_case "cancel: deadline never leaks" `Quick
      test_cancel_deadline_never_leaks;
    Alcotest.test_case "wire: basics and error recovery" `Quick test_wire_basics;
    Alcotest.test_case "wire: bit-identical to local session" `Quick
      test_wire_matches_local_session;
    Alcotest.test_case "wire: plan cache and invalidation" `Quick
      test_wire_cache_and_invalidation;
    Alcotest.test_case "wire: SAVE dump loads back" `Quick test_wire_save_then_load;
    Alcotest.test_case "wire: METRICS is JSON" `Quick test_wire_metrics_json;
    Alcotest.test_case "wire: METRICS PROM passes exposition lint" `Quick
      test_wire_metrics_prom;
    Alcotest.test_case "wire: STATS RESET spares integrity markers" `Quick
      test_wire_stats_reset;
    Alcotest.test_case "slow-query log captures structured lines" `Quick
      test_slow_query_log;
    Alcotest.test_case "wire: EXPLAIN ANALYZE" `Quick test_wire_explain_analyze;
    Alcotest.test_case "wire: VERIFY RULES gate" `Slow test_wire_verify_rules;
    Alcotest.test_case "timeout kills query, spares connection" `Quick
      test_query_timeout_spares_connection;
    Alcotest.test_case "back-to-back queries after a timeout" `Quick
      test_backtoback_queries_after_timeout;
    Alcotest.test_case "admission: busy beyond the cap" `Quick test_admission_busy;
    Alcotest.test_case "wal: crash recovery over the wire" `Quick
      test_wire_wal_crash_recovery;
    Alcotest.test_case "wal: SAVE checkpoints and truncates" `Quick
      test_wire_save_checkpoints_wal;
    Alcotest.test_case "16 concurrent clients, bit-identical" `Quick
      test_loadtest_concurrent_bit_identical;
    Alcotest.test_case "mixed read/write load, oracle-verified" `Quick
      test_loadtest_mixed_verified;
    (* later additions go last: a case's position is part of its
       reported name *)
    Alcotest.test_case "cancel: per-thread deadlines under concurrent ticks"
      `Quick test_cancel_threads_isolated;
    Alcotest.test_case "cancel: bounded ticks past expiry" `Quick
      test_cancel_bounded_overshoot;
    Alcotest.test_case "cancel: nested exit restores the outer deadline" `Quick
      test_cancel_nested_restores_outer;
    Alcotest.test_case "cancel: nested timeout reports the binding budget"
      `Quick test_cancel_nested_reports_binding_budget;
    Alcotest.test_case "timeout on the served Indexed layer" `Quick
      test_indexed_query_timeout;
    Alcotest.test_case "wire: every key perfbench reads is present" `Quick
      test_wire_perfbench_keys;
    Alcotest.test_case "registry loses no update under concurrent clients" `Quick
      test_no_lost_update;
    Alcotest.test_case "wire: over-long request line is refused" `Quick
      test_wire_request_line_cap;
    Alcotest.test_case "wire: shell directives are refused" `Quick
      test_wire_directives_refused;
  ]
