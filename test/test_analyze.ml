(* EXPLAIN ANALYZE tests: the per-operator report of
   {!Eds_engine.Eval.run_analyzed} must account for every unit of work —
   summing any counter over the report tree reproduces the {!Eval.stats}
   delta of the same run exactly — and the session rendering must carry
   the planning and execution phases. *)

module Session = Eds.Session
module Loadtest = Eds_server.Loadtest
module Eval = Eds_engine.Eval
module Relation = Eds_engine.Relation

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let fig8_session () =
  let s = Session.create () in
  Loadtest.apply_setup s;
  s

(* Work queries spanning the paper shapes: selection-pushdown joins, a
   3-way chain join, and the recursive reachability view. *)
let work_queries =
  [
    "SELECT Title FROM FILM, APPEARS_IN WHERE FILM.Numf = APPEARS_IN.Numf \
     AND APPEARS_IN.Actor = 'A3'";
    "SELECT R.A, T.B FROM R, S, T WHERE R.J = S.J AND S.K = T.K";
    "SELECT Dst FROM REACH WHERE Src = 2";
  ]

let report_total get report =
  Eval.fold_report (fun acc n -> acc + get n) 0 report

let check_query_accounting physical q =
  let s = fig8_session () in
  Session.set_physical s physical;
  let plan = Session.explain s q in
  let stats = Eval.fresh_stats () in
  let rel, report =
    Eval.run_analyzed ~physical ~stats (Session.snapshot_db s)
      plan.Session.rewritten
  in
  let label name = Fmt.str "%s %s: %s" (Eval.Physical.to_string physical) name q in
  Alcotest.(check int) (label "combinations") stats.Eval.combinations
    (report_total (fun n -> n.Eval.combinations) report);
  Alcotest.(check int) (label "tuples_read") stats.Eval.tuples_read
    (report_total (fun n -> n.Eval.tuples_read) report);
  Alcotest.(check int) (label "probes") stats.Eval.probes
    (report_total (fun n -> n.Eval.probes) report);
  Alcotest.(check int) (label "builds") stats.Eval.builds
    (report_total (fun n -> n.Eval.builds) report);
  Alcotest.(check int) (label "root rows") (Relation.cardinality rel)
    report.Eval.rows;
  (* the analyzed run returns the same relation as the plain one *)
  Alcotest.(check bool) (label "result identical") true
    (Relation.equal rel
       (Eval.run ~physical (Session.snapshot_db s)
          plan.Session.rewritten))

let test_report_sums_indexed () =
  List.iter (check_query_accounting Eval.Physical.Indexed) work_queries

let test_report_sums_naive () =
  List.iter (check_query_accounting Eval.Physical.Naive) work_queries

let test_report_shape () =
  let s = fig8_session () in
  let plan =
    Session.explain s
      "SELECT Title FROM FILM, APPEARS_IN WHERE FILM.Numf = APPEARS_IN.Numf"
  in
  let _, report =
    Eval.run_analyzed (Session.snapshot_db s) plan.Session.rewritten
  in
  let ops = Eval.fold_report (fun acc n -> n.Eval.op :: acc) [] report in
  Alcotest.(check bool) "FILM scan reported" true
    (List.exists (fun op -> contains ~sub:"FILM" op) ops);
  Alcotest.(check bool) "APPEARS_IN scan reported" true
    (List.exists (fun op -> contains ~sub:"APPEARS_IN" op) ops);
  let rendered = Fmt.str "%a" Eval.pp_report report in
  Alcotest.(check bool) "rendering mentions rows" true
    (contains ~sub:"rows=" rendered)

let expect_report s stmt =
  match Session.exec_string s stmt with
  | Session.Report text -> text
  | _ -> Alcotest.failf "%s: expected a Report result" stmt

let test_session_explain () =
  let s = fig8_session () in
  let text =
    expect_report s
      "EXPLAIN SELECT Title FROM FILM, APPEARS_IN WHERE FILM.Numf = \
       APPEARS_IN.Numf"
  in
  Alcotest.(check bool) "plain EXPLAIN shows translated plan" true
    (contains ~sub:"translated" text);
  Alcotest.(check bool) "plain EXPLAIN shows rewritten plan" true
    (contains ~sub:"rewritten" text)

let test_session_explain_analyze () =
  let s = fig8_session () in
  let text =
    expect_report s
      "EXPLAIN ANALYZE SELECT Title FROM FILM, APPEARS_IN WHERE FILM.Numf = \
       APPEARS_IN.Numf AND APPEARS_IN.Actor = 'A3'"
  in
  Alcotest.(check bool) "header" true (contains ~sub:"EXPLAIN ANALYZE" text);
  Alcotest.(check bool) "planning phase" true (contains ~sub:"planning" text);
  Alcotest.(check bool) "execution phase" true (contains ~sub:"execution" text);
  Alcotest.(check bool) "per-operator rows" true (contains ~sub:"rows=" text);
  (* analyze executes the query for real: eval stats advance *)
  let read () = Test_metrics.total "eds_eval_tuples_read_total" in
  let before = read () in
  ignore (expect_report s "EXPLAIN ANALYZE SELECT Title FROM FILM WHERE Numf = 1");
  Alcotest.(check bool) "analyze recorded work" true (read () > before)

let test_explain_rejects_non_select () =
  let s = fig8_session () in
  (match Session.exec_string s "EXPLAIN INSERT INTO FILM VALUES (99, 'x')" with
  | exception Session.Session_error msg ->
      Alcotest.(check bool) "error names the restriction" true
        (contains ~sub:"SELECT" msg)
  | _ -> Alcotest.fail "EXPLAIN of an INSERT should raise Session_error");
  match Session.exec_string s "EXPLAIN ANALYZE DELETE FROM FILM WHERE Numf = 1" with
  | exception Session.Session_error _ -> ()
  | _ -> Alcotest.fail "EXPLAIN ANALYZE of a DELETE should raise Session_error"

let test_recursive_report () =
  let s = fig8_session () in
  let plan = Session.explain s "SELECT Dst FROM REACH WHERE Src = 2" in
  let stats = Eval.fresh_stats () in
  let _, report =
    Eval.run_analyzed ~stats (Session.snapshot_db s) plan.Session.rewritten
  in
  (* the fixpoint folds per-iteration arm re-evaluations into loop
     counts instead of duplicating subtrees *)
  let max_loops = Eval.fold_report (fun acc n -> max acc n.Eval.loops) 0 report in
  Alcotest.(check bool) "fixpoint iterations folded into loops" true
    (max_loops > 1);
  Alcotest.(check int) "recursive accounting exact" stats.Eval.combinations
    (report_total (fun n -> n.Eval.combinations) report)

(* the search line names the executor's operand order and the indexes
   it took from the operand tables' caches: none on the first run, every
   build side on a repeat *)
let test_join_choice_rendered () =
  let s = fig8_session () in
  let q = "EXPLAIN ANALYZE SELECT R.A, T.B FROM R, S, T WHERE R.J = S.J AND S.K = T.K" in
  let search_line text =
    List.find (fun l -> contains ~sub:"search" l) (String.split_on_char '\n' text)
  in
  let first = search_line (expect_report s q) in
  Alcotest.(check bool) ("first run: " ^ first) true
    (contains ~sub:" order=" first && contains ~sub:" reused=0" first);
  ignore (expect_report s q);
  let again = search_line (expect_report s q) in
  Alcotest.(check bool) ("repeat: " ^ again) true (contains ~sub:" reused=2" again)

let suite =
  [
    Alcotest.test_case "report sums = stats (indexed)" `Quick
      test_report_sums_indexed;
    Alcotest.test_case "report sums = stats (naive)" `Quick test_report_sums_naive;
    Alcotest.test_case "report tree shape" `Quick test_report_shape;
    Alcotest.test_case "EXPLAIN renders plans" `Quick test_session_explain;
    Alcotest.test_case "EXPLAIN ANALYZE renders phases" `Quick
      test_session_explain_analyze;
    Alcotest.test_case "EXPLAIN rejects non-SELECT" `Quick
      test_explain_rejects_non_select;
    Alcotest.test_case "recursive report accounting" `Quick test_recursive_report;
    Alcotest.test_case "EXPLAIN ANALYZE shows the join order and reuse" `Quick
      test_join_choice_rendered;
  ]
