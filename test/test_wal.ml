(* Tests for the write-ahead log: frame round-trips, torn-tail and
   corruption handling, the checkpoint/recovery manager with its epoch
   fencing, and a qcheck kill-and-replay property — any committed prefix
   of the server workload, with or without an interleaved checkpoint,
   recovers byte-identical to an oracle that never crashed. *)

module Session = Eds.Session
module Storage = Eds.Storage
module Wal = Eds.Wal
module Eval = Eds_engine.Eval
module Relation = Eds_engine.Relation
module Loadtest = Eds_server.Loadtest

let temp_db () =
  let path = Filename.temp_file "eds_wal" ".esql" in
  Sys.remove path;  (* recovery must cope with a missing checkpoint *)
  path

let cleanup db =
  List.iter
    (fun p -> if Sys.file_exists p then Sys.remove p)
    [ db; db ^ ".tmp"; Wal.Manager.wal_path db ]

let with_db f =
  let db = temp_db () in
  Fun.protect ~finally:(fun () -> cleanup db) (fun () -> f db)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let append_raw path bytes =
  let oc = Out_channel.open_gen [ Open_append; Open_binary ] 0o644 path in
  Out_channel.output_string oc bytes;
  Out_channel.close oc

(* -- framed log ----------------------------------------------------------- *)

let test_append_scan_round_trip () =
  with_db (fun db ->
      let path = Wal.Manager.wal_path db in
      let wal = Wal.open_log ~sync:false path in
      let payloads = [ "one"; ""; "three statements"; String.make 1000 'x' ] in
      List.iter (Wal.append wal) payloads;
      Wal.close wal;
      let seen = ref [] in
      let r = Wal.scan path (fun p -> seen := p :: !seen) in
      Alcotest.(check (list string)) "payloads in order" payloads (List.rev !seen);
      Alcotest.(check int) "applied" (List.length payloads) r.Wal.applied;
      Alcotest.(check int) "no torn bytes" 0 r.Wal.torn_bytes)

let test_torn_tail_truncated_on_open () =
  with_db (fun db ->
      let path = Wal.Manager.wal_path db in
      let wal = Wal.open_log ~sync:false path in
      Wal.append wal "intact";
      Wal.close wal;
      (* a crash mid-append: a header promising more bytes than exist *)
      append_raw path "\042\000\000\000XXXX partial";
      let r = Wal.scan path ignore in
      Alcotest.(check int) "only the intact record" 1 r.Wal.applied;
      Alcotest.(check bool) "tail detected" true (r.Wal.torn_bytes > 0);
      (* reopening truncates the tail and appends after the survivor *)
      let wal = Wal.open_log ~sync:false path in
      Alcotest.(check int) "reopened sees 1 record" 1 (Wal.records wal);
      Wal.append wal "after crash";
      Wal.close wal;
      let seen = ref [] in
      ignore (Wal.scan path (fun p -> seen := p :: !seen));
      Alcotest.(check (list string))
        "append lands after the survivor"
        [ "intact"; "after crash" ]
        (List.rev !seen))

let test_corrupt_record_stops_replay () =
  with_db (fun db ->
      let path = Wal.Manager.wal_path db in
      let wal = Wal.open_log ~sync:false path in
      List.iter (Wal.append wal) [ "good 1"; "good 2"; "good 3" ];
      Wal.close wal;
      (* flip one payload byte of the second record in place *)
      let data = Bytes.of_string (read_file path) in
      let second_payload = 8 + String.length "good 1" + 8 in
      Bytes.set data second_payload 'X';
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_bytes oc data);
      let seen = ref [] in
      let r = Wal.scan path (fun p -> seen := p :: !seen) in
      Alcotest.(check (list string)) "replay stops at corruption" [ "good 1" ]
        (List.rev !seen);
      Alcotest.(check bool) "corrupt suffix reported" true (r.Wal.torn_bytes > 0))

let test_oversized_record_rejected () =
  with_db (fun db ->
      let wal = Wal.open_log ~sync:false (Wal.Manager.wal_path db) in
      Fun.protect
        ~finally:(fun () -> Wal.close wal)
        (fun () ->
          Alcotest.(check bool) "oversized append raises" true
            (try
               Wal.append wal (String.make ((1 lsl 26) + 1) 'x');
               false
             with Wal.Wal_error _ -> true)))

let test_crc32_known_value () =
  (* the standard check value for CRC-32/IEEE *)
  Alcotest.(check int32) "crc32 of '123456789'" 0xCBF43926l (Wal.crc32 "123456789")

(* With sync on, concurrent appenders elect a group-commit leader: every
   commit waits for durability, but the fsyncs are shared.  The hard
   invariants are fsyncs ≤ commits and no record lost; actual batching
   (fsyncs < commits) depends on scheduling, so it is reported but not
   asserted. *)
let test_group_commit_shares_fsyncs () =
  with_db (fun db ->
      let path = Wal.Manager.wal_path db in
      let wal = Wal.open_log ~sync:true path in
      let clients = 8 and per_client = 25 in
      let threads =
        List.init clients (fun i ->
            Thread.create
              (fun () ->
                for j = 0 to per_client - 1 do
                  Wal.append wal (Printf.sprintf "c%d-%d" i j)
                done)
              ())
      in
      List.iter Thread.join threads;
      let commits = Wal.commits wal and fsyncs = Wal.fsyncs wal in
      Wal.close wal;
      Alcotest.(check int) "every append committed" (clients * per_client) commits;
      Alcotest.(check bool) "at least one fsync" true (fsyncs >= 1);
      Alcotest.(check bool) "fsyncs never exceed commits" true (fsyncs <= commits);
      let r = Wal.scan path ignore in
      Alcotest.(check int) "no record lost" (clients * per_client) r.Wal.applied;
      Alcotest.(check int) "no torn bytes" 0 r.Wal.torn_bytes)

(* The split commit protocol the server uses: append under its write
   lock, sync after release.  A watermark below the current one must be
   satisfiable by a later leader's fsync. *)
let test_nosync_then_sync_to () =
  with_db (fun db ->
      let wal = Wal.open_log ~sync:true (Wal.Manager.wal_path db) in
      let w1 = Wal.append_nosync wal "first" in
      let w2 = Wal.append_nosync wal "second" in
      Alcotest.(check bool) "watermarks increase" true (w2 > w1);
      Wal.sync_to wal w2;
      (* w1 < w2 is already durable: this must return without an fsync *)
      let fsyncs_before = Wal.fsyncs wal in
      Wal.sync_to wal w1;
      Alcotest.(check int) "covered watermark needs no new fsync"
        fsyncs_before (Wal.fsyncs wal);
      Alcotest.(check int) "both sync_to calls counted as commits" 2
        (Wal.commits wal);
      Wal.close wal)

(* -- manager: recovery, checkpointing, epoch fencing ---------------------- *)

let exec session stmt = ignore (Session.exec_string session stmt)

let dump_of_recovery db =
  let session, handle, _ = Wal.Manager.recover ~sync:false ~db () in
  let text = Storage.dump session in
  Wal.Manager.close handle;
  text

let test_recover_fresh_then_log_then_replay () =
  with_db (fun db ->
      let session, handle, replayed = Wal.Manager.recover ~sync:false ~db () in
      Alcotest.(check int) "nothing to replay on first boot" 0 replayed;
      let stmts =
        [
          "TABLE NUMS (N : INT)";
          "INSERT INTO NUMS VALUES (1)";
          "INSERT INTO NUMS VALUES (2)";
        ]
      in
      List.iter
        (fun stmt ->
          exec session stmt;
          Wal.Manager.log handle stmt)
        stmts;
      let want = Storage.dump session in
      Wal.Manager.close handle;
      (* "kill -9": no checkpoint was ever written *)
      Alcotest.(check bool) "no checkpoint file" false (Sys.file_exists db);
      let session', handle', replayed' = Wal.Manager.recover ~sync:false ~db () in
      Alcotest.(check int) "all statements replayed" 3 replayed';
      Alcotest.(check string) "byte-identical recovery" want (Storage.dump session');
      Wal.Manager.close handle')

let test_checkpoint_truncates_and_replays_nothing () =
  with_db (fun db ->
      let session, handle, _ = Wal.Manager.recover ~sync:false ~db () in
      exec session "TABLE NUMS (N : INT)";
      Wal.Manager.log handle "TABLE NUMS (N : INT)";
      exec session "INSERT INTO NUMS VALUES (7)";
      Wal.Manager.log handle "INSERT INTO NUMS VALUES (7)";
      Alcotest.(check int) "2 records before checkpoint" 2
        (Wal.Manager.stats handle).Wal.Manager.wal_records;
      Wal.Manager.checkpoint handle session;
      Alcotest.(check int) "log truncated" 0
        (Wal.Manager.stats handle).Wal.Manager.wal_records;
      Alcotest.(check int) "epoch bumped" 1
        (Wal.Manager.stats handle).Wal.Manager.epoch;
      let want = Storage.dump session in
      Wal.Manager.close handle;
      let session', handle', replayed = Wal.Manager.recover ~sync:false ~db () in
      Alcotest.(check int) "checkpoint boot replays nothing" 0 replayed;
      Alcotest.(check string) "checkpoint state intact" want (Storage.dump session');
      Wal.Manager.close handle')

(* the crash window checkpoint is fenced against: new dump renamed into
   place, crash before the log truncate.  The stale log must NOT replay
   (its statements are already inside the checkpoint — a second UPDATE
   application would corrupt). *)
let test_stale_epoch_log_discarded () =
  with_db (fun db ->
      let session, handle, _ = Wal.Manager.recover ~sync:false ~db () in
      let stmts =
        [
          "TABLE ACCT (Id : INT, Bal : INT)";
          "INSERT INTO ACCT VALUES (1, 100)";
          (* non-idempotent: replaying it twice would yield 300 *)
          "UPDATE ACCT SET Bal = Bal + 100 WHERE Id = 1";
        ]
      in
      List.iter
        (fun stmt ->
          exec session stmt;
          Wal.Manager.log handle stmt)
        stmts;
      let stale_log = read_file (Wal.Manager.wal_path db) in
      Wal.Manager.checkpoint handle session;
      let want = Storage.dump session in
      Wal.Manager.close handle;
      (* crash re-enactment: the pre-checkpoint log reappears next to
         the post-checkpoint dump *)
      Out_channel.with_open_bin (Wal.Manager.wal_path db) (fun oc ->
          Out_channel.output_string oc stale_log);
      let session', handle', replayed = Wal.Manager.recover ~sync:false ~db () in
      Alcotest.(check int) "stale log not replayed" 0 replayed;
      Alcotest.(check string) "balance not double-applied" want
        (Storage.dump session');
      Alcotest.(check int) "Bal is 200, not 300" 1
        (Relation.cardinality
           (Session.query session' "SELECT Id FROM ACCT WHERE Bal = 200"));
      Wal.Manager.close handle')

let test_recover_plain_save_without_wal () =
  (* a dump written by plain Storage.save (no epoch line) plus no log:
     the manager must boot it as epoch 0 and keep working *)
  with_db (fun db ->
      let s = Session.create () in
      exec s "TABLE NUMS (N : INT)";
      exec s "INSERT INTO NUMS VALUES (5)";
      Storage.save s db;
      let session, handle, replayed = Wal.Manager.recover ~sync:false ~db () in
      Alcotest.(check int) "nothing replayed" 0 replayed;
      Alcotest.(check int) "epoch 0" 0 (Wal.Manager.stats handle).Wal.Manager.epoch;
      Alcotest.(check int) "data present" 1
        (Relation.cardinality (Session.query session "SELECT N FROM NUMS"));
      Wal.Manager.close handle)

(* -- kill-and-replay property --------------------------------------------- *)

(* Run a random committed prefix of the server workload through a
   logged session, optionally checkpointing at a random midpoint, then
   "kill -9" (drop the session, keep the files) and recover: the
   recovered database must dump byte-identical to an oracle session
   that executed the same prefix without ever crashing — and answer a
   workload query identically under every physical layer. *)
let prop_kill_and_replay =
  let gen =
    QCheck2.Gen.(
      pair
        (int_range 0 (List.length Loadtest.setup_statements))
        (option (int_range 0 (List.length Loadtest.setup_statements))))
  in
  let print (n, ck) =
    Printf.sprintf "prefix=%d checkpoint=%s" n
      (match ck with None -> "none" | Some c -> string_of_int c)
  in
  QCheck2.Test.make ~name:"wal kill-and-replay recovers committed prefix"
    ~count:30 ~print gen (fun (n, ck) ->
      let prefix = List.filteri (fun i _ -> i < n) Loadtest.setup_statements in
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
          (* kill -9: the handle is simply abandoned *)
          Wal.Manager.close handle;
          let oracle = Session.create () in
          List.iter (exec oracle) prefix;
          let want = Storage.dump oracle in
          let recovered, handle', _ = Wal.Manager.recover ~sync:false ~db () in
          let got = Storage.dump recovered in
          Wal.Manager.close handle';
          if want <> got then
            QCheck2.Test.fail_reportf "recovered dump differs:@.%s@.vs@.%s" got want;
          (* the recovered state answers queries identically under every
             physical layer (only meaningful once the tables exist) *)
          if n >= 7 then begin
            let q = "SELECT Title FROM FILM WHERE Numf = 11" in
            let render s =
              let buf = Buffer.create 64 in
              let ppf = Format.formatter_of_buffer buf in
              Eds.Repl.print_result ppf (Session.Rows (Session.query s q));
              Format.pp_print_flush ppf ();
              Buffer.contents buf
            in
            let want_rows = render oracle in
            List.iter
              (fun physical ->
                let s' = Storage.restore got in
                Session.set_physical s' physical;
                if render s' <> want_rows then
                  QCheck2.Test.fail_reportf "layer %s disagrees after recovery"
                    (Eval.Physical.to_string physical))
              [ Eval.Physical.Naive; Eval.Physical.Indexed ]
          end;
          (* and recovery is idempotent: a second crash-boot is stable *)
          dump_of_recovery db = want))

let suite =
  [
    Alcotest.test_case "append/scan round trip" `Quick test_append_scan_round_trip;
    Alcotest.test_case "torn tail truncated on open" `Quick
      test_torn_tail_truncated_on_open;
    Alcotest.test_case "corrupt record stops replay" `Quick
      test_corrupt_record_stops_replay;
    Alcotest.test_case "oversized record rejected" `Quick
      test_oversized_record_rejected;
    Alcotest.test_case "crc32 known value" `Quick test_crc32_known_value;
    Alcotest.test_case "group commit shares fsyncs" `Quick
      test_group_commit_shares_fsyncs;
    Alcotest.test_case "append_nosync / sync_to split" `Quick
      test_nosync_then_sync_to;
    Alcotest.test_case "recover, log, crash, replay" `Quick
      test_recover_fresh_then_log_then_replay;
    Alcotest.test_case "checkpoint truncates the log" `Quick
      test_checkpoint_truncates_and_replays_nothing;
    Alcotest.test_case "stale-epoch log discarded" `Quick
      test_stale_epoch_log_discarded;
    Alcotest.test_case "plain save boots as epoch 0" `Quick
      test_recover_plain_save_without_wal;
  ]
  @ [ QCheck_alcotest.to_alcotest prop_kill_and_replay ]
