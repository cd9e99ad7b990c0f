(* Materialized-view maintenance: unit tests for the incremental paths
   (semi-naive insert propagation, delete-and-rederive, fallback
   recompute for non-monotone plans), the shared per-relation fixpoint
   cache, the columnar Enum flavor, and two qcheck properties — random
   DML/refresh interleavings keep every maintained extent bit-identical
   to a never-materialized oracle under three configurations (Naive;
   Indexed; Indexed over mixed Int/Real base data, which has no columnar
   shadow and so is read through the boxed loops), and a
   kill-and-replay run recovers the extents. *)

module Value = Eds_value.Value
module Session = Eds.Session
module Storage = Eds.Storage
module Wal = Eds.Wal
module Eval = Eds_engine.Eval
module Relation = Eds_engine.Relation
module Database = Eds_engine.Database
module Materializer = Eds_engine.Materializer
module Column = Eds_engine.Column

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let exec s stmt =
  match Session.exec_string s stmt with
  | _ -> ()
  | exception Session.Session_error msg -> Alcotest.failf "exec %S: %s" stmt msg

let setup_statements =
  [
    "TYPE COLOR ENUMERATION OF ('red', 'green', 'blue')";
    "TABLE EDGE (Src : INT, Dst : INT)";
    "TABLE NODE (Id : INT, Tint : COLOR)";
    "TABLE OTHER (X : INT)";
  ]

let setup s = List.iter (exec s) setup_statements

(* the view pool: name, declared-columns clause, body.  VT is recursive
   (transitive closure), VG is non-monotone (Nest), VS stacks on VT. *)
let view_pool =
  [
    ("VJ", "", "SELECT EDGE.Src, NODE.Tint FROM EDGE, NODE WHERE EDGE.Dst = NODE.Id");
    ( "VT",
      " (A, B)",
      "SELECT Src, Dst FROM EDGE UNION SELECT EDGE.Src, VT.B FROM EDGE, VT \
       WHERE EDGE.Dst = VT.A" );
    ("VF", "", "SELECT Src FROM EDGE WHERE Dst > 3");
    ("VU", "", "SELECT Src FROM EDGE UNION SELECT Id FROM NODE");
    ("VG", " (Gsrc, Dsts)", "SELECT Src, MakeSet(Dst) FROM EDGE GROUP BY Src");
    ("VS", " (A)", "SELECT VT.A FROM VT WHERE VT.B = 4");
  ]

let create_view ~materialized s (name, cols, body) =
  exec s
    (Fmt.str "CREATE %sVIEW %s%s AS ( %s )"
       (if materialized then "MATERIALIZED " else "")
       name cols body)

let probe_of (name, _, _) =
  match name with
  | "VJ" -> "SELECT VJ.Src, VJ.Tint FROM VJ"
  | "VT" -> "SELECT VT.A, VT.B FROM VT"
  | "VG" -> "SELECT VG.Gsrc, VG.Dsts FROM VG"
  | "VS" -> "SELECT VS.A FROM VS"
  | n -> Fmt.str "SELECT %s.Src FROM %s" n n

(* compare the materialized session against a never-materialized oracle
   on every pool view (through SELECTs, so the whole read path is
   exercised) and, for the materialized side, also check the stored
   extent against a from-scratch recompute of the registered plan *)
let check_against_oracle ~ctx subject oracle views =
  List.iter
    (fun ((name, _, _) as v) ->
      let q = probe_of v in
      let got = Session.query subject q in
      let want = Session.query oracle q in
      if not (Relation.equal got want) then
        Alcotest.failf "%s: view %s diverged from oracle@.got  %a@.want %a" ctx
          name Relation.pp got Relation.pp want;
      let db = Session.database subject in
      match Materializer.find (Session.mviews subject) name with
      | None -> Alcotest.failf "%s: %s not registered" ctx name
      | Some mv -> (
        match Database.relation_opt db name with
        | None -> Alcotest.failf "%s: %s has no stored extent" ctx name
        | Some extent ->
          let recomputed = Session.run_plan subject mv.Materializer.plan in
          if not (Relation.equal extent recomputed) then
            Alcotest.failf
              "%s: %s extent is not the fixpoint of its definition" ctx name))
    views

(* -- unit: join view insert/delete/update maintenance -------------------- *)

let test_nonrecursive_maintenance () =
  let s = Session.create () and oracle = Session.create () in
  setup s;
  setup oracle;
  let vj = List.nth view_pool 0 in
  create_view ~materialized:true s vj;
  create_view ~materialized:false oracle vj;
  let both stmt =
    exec s stmt;
    exec oracle stmt
  in
  both "INSERT INTO NODE VALUES (2, 'red')";
  both "INSERT INTO NODE VALUES (3, 'blue')";
  both "INSERT INTO EDGE VALUES (1, 2)";
  both "INSERT INTO EDGE VALUES (1, 3)";
  both "INSERT INTO EDGE VALUES (4, 2)";
  check_against_oracle ~ctx:"insert" s oracle [ vj ];
  let runs_before = (Session.mv_stats s).Materializer.maintenance_runs in
  both "DELETE FROM EDGE WHERE Src = 1";
  check_against_oracle ~ctx:"delete" s oracle [ vj ];
  both "UPDATE NODE SET Tint = 'green' WHERE Id = 2";
  check_against_oracle ~ctx:"update" s oracle [ vj ];
  Alcotest.(check bool)
    "maintenance ran incrementally" true
    ((Session.mv_stats s).Materializer.maintenance_runs > runs_before);
  (* REFRESH is a no-op on an already-correct extent *)
  exec s "REFRESH VJ";
  check_against_oracle ~ctx:"refresh" s oracle [ vj ];
  Alcotest.(check bool)
    "refresh counted" true
    ((Session.mv_stats s).Materializer.refreshes >= 1)

(* -- unit: recursive view, semi-naive inserts + delete-and-rederive ------ *)

let test_recursive_maintenance () =
  let s = Session.create () and oracle = Session.create () in
  setup s;
  setup oracle;
  let vt = List.nth view_pool 1 in
  create_view ~materialized:true s vt;
  create_view ~materialized:false oracle vt;
  let both stmt =
    exec s stmt;
    exec oracle stmt
  in
  (* chain 1→2→3→4 plus a diamond 1→5→4 giving 1⇝4 two derivations *)
  List.iter both
    [
      "INSERT INTO EDGE VALUES (1, 2)"; "INSERT INTO EDGE VALUES (2, 3)";
      "INSERT INTO EDGE VALUES (3, 4)"; "INSERT INTO EDGE VALUES (1, 5)";
      "INSERT INTO EDGE VALUES (5, 4)";
    ];
  check_against_oracle ~ctx:"tc inserts" s oracle [ vt ];
  (* new edge closing a cycle: semi-naive continuation must still stop *)
  both "INSERT INTO EDGE VALUES (4, 1)";
  check_against_oracle ~ctx:"tc cycle" s oracle [ vt ];
  both "DELETE FROM EDGE WHERE Src = 4";
  (* 1⇝4 must survive the over-deletion via its 1→5→4 support *)
  check_against_oracle ~ctx:"tc delete rederive" s oracle [ vt ];
  both "DELETE FROM EDGE WHERE Src = 5";
  check_against_oracle ~ctx:"tc cascade delete" s oracle [ vt ];
  Alcotest.(check bool)
    "incremental steps happened" true
    ((Session.mv_stats s).Materializer.maintenance_runs > 0)

(* -- unit: a timed-out REFRESH or DML changes nothing --------------------- *)

let test_expired_deadline_changes_nothing () =
  let s = Session.create () in
  setup s;
  create_view ~materialized:true s (List.nth view_pool 1);
  create_view ~materialized:true s (List.nth view_pool 5);
  List.iter (exec s)
    [
      "INSERT INTO EDGE VALUES (1, 2)"; "INSERT INTO EDGE VALUES (2, 3)";
      "INSERT INTO EDGE VALUES (3, 4)";
    ];
  let db = Session.database s in
  let extents () =
    List.map (fun n -> Database.relation_opt db n) [ "EDGE"; "VT"; "VS" ]
  in
  let dump0 = Storage.dump s and gen0 = Session.data_generation s in
  let extents0 = extents () and mv0 = Session.mv_stats s in
  let refreshes0 = mv0.Materializer.refreshes
  and runs0 = mv0.Materializer.maintenance_runs in
  let timed_out stmt =
    match Session.exec_string ~deadline:(Session.Cancel.start 0.) s stmt with
    | _ -> false
    | exception Session.Cancel.Timeout _ -> true
  in
  let unchanged ctx =
    Alcotest.(check string) (ctx ^ ": dump unchanged") dump0 (Storage.dump s);
    Alcotest.(check int) (ctx ^ ": data generation unchanged") gen0
      (Session.data_generation s);
    List.iter2
      (fun a b ->
        Alcotest.(check bool) (ctx ^ ": extent is the same record") true
          (Option.equal ( == ) a b))
      extents0 (extents ())
  in
  (* the recompute of the recursive view enumerates combinations, so a
     zero budget expires on its first tick *)
  Alcotest.(check bool) "REFRESH VT times out" true (timed_out "REFRESH VT");
  unchanged "refresh";
  Alcotest.(check int) "no refresh counted" refreshes0
    (Session.mv_stats s).Materializer.refreshes;
  (* an edge into node 1 joins VT's rows starting at 1: maintenance
     enumerates combinations and expires before anything is published *)
  Alcotest.(check bool) "INSERT times out in maintenance" true
    (timed_out "INSERT INTO EDGE VALUES (0, 1)");
  unchanged "insert";
  Alcotest.(check int) "no maintenance run counted" runs0
    (Session.mv_stats s).Materializer.maintenance_runs;
  (* without a deadline both statements go through *)
  exec s "REFRESH VT";
  exec s "INSERT INTO EDGE VALUES (0, 1)";
  Alcotest.(check int) "VT closes over the new edge" 10
    (Relation.cardinality (Session.query s "SELECT VT.A, VT.B FROM VT"))

(* -- unit: non-monotone view falls back to recompute, stays correct ------ *)

let test_nonmonotone_fallback () =
  let s = Session.create () and oracle = Session.create () in
  setup s;
  setup oracle;
  let vg = List.nth view_pool 4 in
  create_view ~materialized:true s vg;
  create_view ~materialized:false oracle vg;
  let both stmt =
    exec s stmt;
    exec oracle stmt
  in
  both "INSERT INTO EDGE VALUES (1, 2)";
  both "INSERT INTO EDGE VALUES (1, 3)";
  both "DELETE FROM EDGE WHERE Dst = 2";
  check_against_oracle ~ctx:"nest fallback" s oracle [ vg ];
  Alcotest.(check bool)
    "fallbacks counted" true
    ((Session.mv_stats s).Materializer.fallback_recomputes > 0)

(* -- unit: stacked views maintain topologically -------------------------- *)

let test_stacked_views () =
  let s = Session.create () and oracle = Session.create () in
  setup s;
  setup oracle;
  let vt = List.nth view_pool 1 and vs = List.nth view_pool 5 in
  List.iter (create_view ~materialized:true s) [ vt; vs ];
  List.iter (create_view ~materialized:false oracle) [ vt; vs ];
  let both stmt =
    exec s stmt;
    exec oracle stmt
  in
  List.iter both
    [
      "INSERT INTO EDGE VALUES (1, 2)"; "INSERT INTO EDGE VALUES (2, 4)";
      "INSERT INTO EDGE VALUES (3, 1)";
    ];
  check_against_oracle ~ctx:"stack inserts" s oracle [ vt; vs ];
  both "DELETE FROM EDGE WHERE Src = 2";
  check_against_oracle ~ctx:"stack delete" s oracle [ vt; vs ];
  (* base change plus both dependent extents land under a single
     publish: one generation bump per DML statement *)
  let g0 = Session.data_generation s in
  both "INSERT INTO EDGE VALUES (9, 4)";
  Alcotest.(check int) "one publish per DML" (g0 + 1) (Session.data_generation s)

(* -- unit: EXPLAIN ANALYZE tags extent scans ----------------------------- *)

let test_explain_analyze_tags_mviews () =
  let s = Session.create () in
  setup s;
  create_view ~materialized:true s (List.nth view_pool 1);
  exec s "INSERT INTO EDGE VALUES (1, 2)";
  match Session.exec_string s "EXPLAIN ANALYZE SELECT VT.A, VT.B FROM VT" with
  | Session.Report text ->
    Alcotest.(check bool) "mview scan tagged" true (contains ~sub:"mview:VT" text)
  | _ -> Alcotest.fail "expected a report"

(* -- unit: shared fix cache with per-relation invalidation --------------- *)

let test_shared_fix_cache () =
  let s = Session.create () in
  setup s;
  (* a plain (expanded) recursive view: every SELECT re-evaluates the
     closed fixpoint unless the shared cache serves it *)
  create_view ~materialized:false s (List.nth view_pool 1);
  List.iter (exec s)
    [ "INSERT INTO EDGE VALUES (1, 2)"; "INSERT INTO EDGE VALUES (2, 3)" ];
  let hits () = Test_metrics.total "eds_eval_fix_cache_hits_total" in
  let misses () = Test_metrics.total "eds_eval_fix_cache_misses_total" in
  let q () = ignore (Session.query s "SELECT VT.A, VT.B FROM VT") in
  q ();
  let hits0 = hits () in
  q ();
  Alcotest.(check bool) "second run served from cache" true (hits () > hits0);
  (* DML on an unrelated relation keeps the entry valid *)
  exec s "INSERT INTO OTHER VALUES (1)";
  let hits1 = hits () in
  q ();
  Alcotest.(check bool) "unrelated DML does not invalidate" true (hits () > hits1);
  let _, invalidations0 = Session.fix_cache_stats s in
  Alcotest.(check int) "no invalidations so far" 0 invalidations0;
  (* DML on a dependency evicts exactly that entry *)
  exec s "INSERT INTO EDGE VALUES (3, 4)";
  let misses0 = misses () in
  q ();
  let _, invalidations1 = Session.fix_cache_stats s in
  Alcotest.(check bool) "dependency DML forces recompute" true (misses () > misses0);
  Alcotest.(check bool) "eviction counted" true (invalidations1 > 0);
  (* and the recomputed answer reflects the write *)
  let rel = Session.query s "SELECT VT.A, VT.B FROM VT" in
  Alcotest.(check bool) "fresh result includes new edge" true
    (Relation.mem [ Value.Int 1; Value.Int 4 ] rel)

(* -- unit: columnar Enum flavor ------------------------------------------ *)

let test_columnar_enum () =
  let tuples =
    [
      [ Value.Int 1; Value.Enum ("color", "red") ];
      [ Value.Int 2; Value.Enum ("color", "blue") ];
    ]
  in
  let t = Column.of_tuples ~arity:2 2 tuples in
  Alcotest.(check bool) "enum column has id flavor" true
    (Column.flavor t.Column.cols.(1) = Column.F_id);
  let v = Column.value_at t ~row:1 ~col:1 in
  Alcotest.(check bool) "type name survives round trip" true
    (v = Value.Enum ("color", "blue"));
  (* mixing enum types, or enum with plain strings, gives a Values
     column that keeps every cell as it was *)
  let values_column tuples =
    let t = Column.of_tuples ~arity:1 2 tuples in
    Column.flavor t.Column.cols.(0) = Column.F_values
    && List.equal ( = ) (List.init 2 (Column.tuple_at t)) tuples
  in
  Alcotest.(check bool) "mixed enum types are a Values column" true
    (values_column [ [ Value.Enum ("a", "x") ]; [ Value.Enum ("b", "x") ] ]);
  Alcotest.(check bool) "enum/str mix is a Values column" true
    (values_column [ [ Value.Enum ("a", "x") ]; [ Value.Str "x" ] ]);
  (* end to end: a hash join keyed on enum columns joins typed id
     keys *)
  let s = Session.create () in
  setup s;
  List.iter (exec s)
    [
      "TABLE PAINT (Hue : COLOR, Price : INT)";
      "INSERT INTO NODE VALUES (1, 'red')"; "INSERT INTO NODE VALUES (2, 'blue')";
      "INSERT INTO NODE VALUES (3, 'red')";
      "INSERT INTO PAINT VALUES ('red', 10)"; "INSERT INTO PAINT VALUES ('green', 20)";
    ];
  let columnar () = Test_metrics.total "eds_eval_columnar_ops_total" in
  let before = columnar () in
  let rel =
    Session.query s
      "SELECT NODE.Id, PAINT.Price FROM NODE, PAINT WHERE NODE.Tint = PAINT.Hue"
  in
  Alcotest.(check int) "join result" 2 (Relation.cardinality rel);
  Alcotest.(check bool) "columnar fast path engaged" true (columnar () > before);
  List.iter
    (fun (table, c) ->
      let cols = Relation.columns (Database.relation (Session.database s) table) in
      Alcotest.(check bool) (table ^ " key is a typed id column") true
        (Column.flavor cols.Column.cols.(c) = Column.F_id))
    [ ("NODE", 1); ("PAINT", 0) ]

(* -- unit: storage round trip preserves extents -------------------------- *)

let test_storage_round_trip () =
  let s = Session.create () in
  setup s;
  List.iter (create_view ~materialized:true s)
    [ List.nth view_pool 0; List.nth view_pool 1 ];
  List.iter (exec s)
    [
      "INSERT INTO NODE VALUES (2, 'red')"; "INSERT INTO EDGE VALUES (1, 2)";
      "INSERT INTO EDGE VALUES (2, 3)";
    ];
  let dump = Storage.dump s in
  Alcotest.(check bool) "dump carries extent lines" true
    (contains ~sub:"--* VT" dump);
  let s' = Storage.restore dump in
  Alcotest.(check string) "restored dump is bit-identical" dump (Storage.dump s');
  (* and the restored extents keep maintaining *)
  exec s "INSERT INTO EDGE VALUES (3, 4)";
  exec s' "INSERT INTO EDGE VALUES (3, 4)";
  Alcotest.(check string) "maintenance after restore agrees" (Storage.dump s)
    (Storage.dump s')

(* -- qcheck: random interleavings vs oracle, 3 configurations ------------ *)

type op =
  | Ins_edge of int * int
  | Del_edge of int
  | Upd_edge of int * int
  | Ins_node of int * int
  | Del_node of int
  | Do_refresh of int

let color_of i = List.nth [ "'red'"; "'green'"; "'blue'" ] (i mod 3)

let stmt_of_op views = function
  | Ins_edge (u, v) -> Some (Fmt.str "INSERT INTO EDGE VALUES (%d, %d)" u v)
  | Del_edge u -> Some (Fmt.str "DELETE FROM EDGE WHERE Src = %d" u)
  | Upd_edge (u, v) ->
    Some (Fmt.str "UPDATE EDGE SET Dst = %d WHERE Src = %d" v u)
  | Ins_node (i, c) ->
    Some (Fmt.str "INSERT INTO NODE VALUES (%d, %s)" i (color_of c))
  | Del_node i -> Some (Fmt.str "DELETE FROM NODE WHERE Id = %d" i)
  | Do_refresh k ->
    if views = [] then None
    else
      let name, _, _ = List.nth views (k mod List.length views) in
      Some ("REFRESH " ^ name)

let gen_op =
  QCheck2.Gen.(
    oneof
      [
        map2 (fun u v -> Ins_edge (u, v)) (int_range 0 5) (int_range 0 5);
        map (fun u -> Del_edge u) (int_range 0 5);
        map2 (fun u v -> Upd_edge (u, v)) (int_range 0 5) (int_range 0 5);
        map2 (fun i c -> Ins_node (i, c)) (int_range 0 5) (int_range 0 2);
        map (fun i -> Del_node i) (int_range 0 5);
        map (fun k -> Do_refresh k) (int_range 0 9);
      ])

(* a scenario: which pool views to materialize (VS kept only when VT is
   picked too — it reads VT), and an op sequence *)
let gen_scenario =
  QCheck2.Gen.(
    pair
      (list_size (int_range 1 6) (int_range 0 5))
      (list_size (int_range 1 12) gen_op))

let views_of_selection sel =
  let chosen = List.sort_uniq compare sel in
  let has i = List.mem i chosen in
  List.filteri (fun i _ -> has i && (i <> 5 || has 1)) view_pool

let print_scenario (sel, ops) =
  Fmt.str "views=%a ops=%d"
    (Fmt.list ~sep:Fmt.comma (fun ppf (n, _, _) -> Fmt.string ppf n))
    (views_of_selection sel) (List.length ops)

(* [mixed] seeds EDGE and NODE with an Int row and a row whose Int
   columns hold Reals, both outside the ids the ops touch: a column
   mixing Int and Real is a [Values] column, so the Indexed layer joins
   them, and maintains the views over them, on [Values] keys *)
let configs =
  [
    (Eval.Physical.Naive, false);
    (Eval.Physical.Indexed, false);
    (Eval.Physical.Indexed, true);
  ]

let mixed_rows =
  [
    "INSERT INTO EDGE VALUES (8, 8)"; "INSERT INTO EDGE VALUES (9.0, 9.0)";
    "INSERT INTO NODE VALUES (8, 'red')"; "INSERT INTO NODE VALUES (9.0, 'red')";
  ]

let run_scenario ~physical ~mixed (sel, ops) =
  let views = views_of_selection sel in
  let subject = Session.create () and oracle = Session.create () in
  List.iter
    (fun s ->
      Session.set_physical s physical;
      setup s;
      if mixed then List.iter (exec s) mixed_rows)
    [ subject; oracle ];
  if mixed then
    List.iter
      (fun n ->
        let cols = Relation.columns (Database.relation (Session.database subject) n) in
        if Column.flavor cols.Column.cols.(0) <> Column.F_values then
          Alcotest.failf "mixed %s has a typed first column" n)
      [ "EDGE"; "NODE" ];
  List.iter (create_view ~materialized:true subject) views;
  List.iter (create_view ~materialized:false oracle) views;
  List.iteri
    (fun i op ->
      match stmt_of_op views op with
      | None -> ()
      | Some stmt ->
        exec subject stmt;
        (* REFRESH only exists on the materialized side *)
        (match op with Do_refresh _ -> () | _ -> exec oracle stmt);
        check_against_oracle
          ~ctx:
            (Fmt.str "op %d (%s) under %s/mixed=%b" i stmt
               (Eval.Physical.to_string physical)
               mixed)
          subject oracle views)
    ops

let prop_maintenance_matches_recompute =
  QCheck2.Test.make ~name:"maintained extents = full recompute (3 configs)"
    ~count:15 ~print:print_scenario gen_scenario (fun scenario ->
      List.iter
        (fun (physical, mixed) -> run_scenario ~physical ~mixed scenario)
        configs;
      true)

(* -- qcheck: kill-and-replay recovers extents ---------------------------- *)

let temp_db () =
  let path = Filename.temp_file "eds_mv" ".esql" in
  Sys.remove path;
  path

let cleanup db =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ db; db ^ ".tmp"; Wal.Manager.wal_path db ]

let replay_statements =
  setup_statements
  @ [
      "CREATE MATERIALIZED VIEW VT (A, B) AS ( SELECT Src, Dst FROM EDGE \
       UNION SELECT EDGE.Src, VT.B FROM EDGE, VT WHERE EDGE.Dst = VT.A )";
      "INSERT INTO EDGE VALUES (1, 2)";
      "INSERT INTO EDGE VALUES (2, 3)";
      "CREATE MATERIALIZED VIEW VF AS ( SELECT Src FROM EDGE WHERE Dst > 3 )";
      "INSERT INTO EDGE VALUES (3, 4)";
      "DELETE FROM EDGE WHERE Src = 2";
      "REFRESH VT";
      "INSERT INTO EDGE VALUES (2, 5)";
      "UPDATE EDGE SET Dst = 3 WHERE Src = 1";
    ]

let prop_kill_and_replay =
  let gen =
    QCheck2.Gen.(
      pair
        (int_range 0 (List.length replay_statements))
        (option (int_range 0 (List.length replay_statements))))
  in
  let print (n, ck) =
    Fmt.str "prefix=%d checkpoint=%s" n
      (match ck with None -> "none" | Some c -> string_of_int c)
  in
  QCheck2.Test.make ~name:"kill-and-replay recovers materialized extents"
    ~count:20 ~print gen (fun (n, ck) ->
      let prefix = List.filteri (fun i _ -> i < n) replay_statements in
      let checkpoint_at = match ck with Some c when c <= n -> Some c | _ -> None in
      let db = temp_db () in
      Fun.protect
        ~finally:(fun () -> cleanup db)
        (fun () ->
          let session, handle, _ = Wal.Manager.recover ~sync:false ~db () in
          List.iteri
            (fun i stmt ->
              exec session stmt;
              Wal.Manager.log handle stmt;
              if checkpoint_at = Some (i + 1) then
                Wal.Manager.checkpoint handle session)
            prefix;
          (* crash: abandon the session, recover from checkpoint + log *)
          Wal.Manager.close handle;
          let recovered, handle2, _ = Wal.Manager.recover ~sync:false ~db () in
          Wal.Manager.close handle2;
          let oracle = Session.create () in
          List.iter (exec oracle) prefix;
          let got = Storage.dump recovered and want = Storage.dump oracle in
          if got <> want then
            QCheck2.Test.fail_reportf "recovered dump differs:@.%s@.vs@.%s" got
              want;
          (* extents keep maintaining after recovery *)
          if n >= List.length replay_statements then begin
            exec recovered "INSERT INTO EDGE VALUES (5, 6)";
            exec oracle "INSERT INTO EDGE VALUES (5, 6)";
            Storage.dump recovered = Storage.dump oracle
          end
          else true))

let suite =
  [
    Alcotest.test_case "join view: insert/delete/update" `Quick
      test_nonrecursive_maintenance;
    Alcotest.test_case "recursive view: semi-naive + delete-rederive" `Quick
      test_recursive_maintenance;
    Alcotest.test_case "expired deadline: REFRESH and DML change nothing" `Quick
      test_expired_deadline_changes_nothing;
    Alcotest.test_case "non-monotone view falls back to recompute" `Quick
      test_nonmonotone_fallback;
    Alcotest.test_case "stacked views, one publish per DML" `Quick
      test_stacked_views;
    Alcotest.test_case "EXPLAIN ANALYZE tags mview scans" `Quick
      test_explain_analyze_tags_mviews;
    Alcotest.test_case "shared fix cache invalidates per relation" `Quick
      test_shared_fix_cache;
    Alcotest.test_case "columnar enum flavor" `Quick test_columnar_enum;
    Alcotest.test_case "storage round trip preserves extents" `Quick
      test_storage_round_trip;
    QCheck_alcotest.to_alcotest prop_maintenance_matches_recompute;
    QCheck_alcotest.to_alcotest prop_kill_and_replay;
  ]
