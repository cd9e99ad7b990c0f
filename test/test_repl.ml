(* The edsql REPL loop (Eds.Repl), driven end-to-end through a scripted
   conversation: a bad statement (parse error), a bad directive argument
   and a runtime evaluation error must each print a one-line [error: ...]
   and leave the session alive for the statements that follow. *)

module Session = Eds.Session
module Repl = Eds.Repl

let contains s sub =
  let n = String.length sub and k = String.length s in
  let rec at i = i + n <= k && (String.sub s i n = sub || at (i + 1)) in
  at 0

let count_occurrences s sub =
  let n = String.length sub and k = String.length s in
  let rec at i acc =
    if i + n > k then acc
    else if String.sub s i n = sub then at (i + 1) (acc + 1)
    else at (i + 1) acc
  in
  if n = 0 then 0 else at 0 0

let drive lines =
  let remaining = ref lines in
  let read_line () =
    match !remaining with
    | [] -> None
    | l :: tl ->
      remaining := tl;
      Some l
  in
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  let session = Session.create () in
  let final = Repl.repl ~banner:false ~ppf ~read_line session in
  Format.pp_print_flush ppf ();
  (Buffer.contents buf, final)

let test_survives_bad_statement () =
  let out, _ =
    drive
      [
        "CREATE TABLE T (A INT, B INT);";
        "INSERT INTO T VALUES (1, 2);";
        "SELECT FROM WHERE;" (* parse error *);
        "SELECT A FROM NOPE;" (* runtime error: unknown relation *);
        "SELECT A FROM T;" (* the session must still answer *);
        ".quit";
      ]
  in
  Alcotest.(check bool) "both failures reported" true
    (count_occurrences out "error:" >= 2);
  Alcotest.(check bool) "good statement after the bad ones still runs" true
    (contains out "(1 tuple)")

let test_directive_errors_kept_alive () =
  let out, _ =
    drive
      [
        ".explain not esql at all" (* Session_error inside a directive *);
        ".load /nonexistent/edsql-session" (* Sys/Storage error *);
        ".limits nonsense";
        ".help";
        ".quit";
      ]
  in
  Alcotest.(check bool) "directive failures reported" true
    (count_occurrences out "error:" >= 2);
  Alcotest.(check bool) "loop survived to .help" true
    (contains out "directives:")

(* there is no parallel layer and no worker-domain knob: both
   directives must be refused without touching the session *)
let test_domains_and_parallel_directives () =
  let out, final =
    drive
      [
        "CREATE TABLE T (A INT, B INT);";
        "INSERT INTO T VALUES (1, 2);";
        ".physical parallel";
        ".domains 2";
        "SELECT A FROM T WHERE A = 1;";
        ".stats";
        ".quit";
      ]
  in
  Alcotest.(check bool) ".physical parallel prints the usage line" true
    (contains out "physical layer: indexed (usage: .physical naive|indexed)");
  Alcotest.(check bool) ".domains is an unknown directive" true
    (contains out "unknown directive .domains");
  Alcotest.(check bool) "query still runs" true (contains out "(1 tuple)");
  Alcotest.(check bool) ".stats reports the unchanged layer" true
    (contains out "physical layer   : indexed");
  Alcotest.(check bool) "session keeps the indexed layer" true
    (Session.physical final = Eds_engine.Eval.Physical.Indexed)

let suite =
  [
    Alcotest.test_case "bad statements don't kill the loop" `Quick
      test_survives_bad_statement;
    Alcotest.test_case "bad directives don't kill the loop" `Quick
      test_directive_errors_kept_alive;
    Alcotest.test_case ".domains/.physical parallel" `Quick
      test_domains_and_parallel_directives;
  ]
