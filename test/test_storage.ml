(* Tests for the value-text round trip and session dump/restore. *)

module Value = Eds_value.Value
module Value_text = Eds_value.Value_text
module Relation = Eds_engine.Relation
module Database = Eds_engine.Database
module Session = Eds.Session
module Storage = Eds.Storage

let value = Alcotest.testable Value.pp Value.equal

let test_value_text_basics () =
  let round s = Value_text.parse s in
  Alcotest.check value "int" (Value.Int 42) (round "42");
  Alcotest.check value "negative real" (Value.Real (-2.5)) (round "-2.5");
  Alcotest.check value "string with quote" (Value.Str "it's") (round "'it''s'");
  Alcotest.check value "null" Value.Null (round "null");
  Alcotest.check value "bool" (Value.Bool true) (round "true");
  Alcotest.check value "oid" (Value.Oid 7) (round "@7");
  Alcotest.check value "set" (Value.set [ Value.Int 1; Value.Int 2 ]) (round "{1, 2}");
  Alcotest.check value "bag" (Value.bag [ Value.Int 1; Value.Int 1 ]) (round "bag{1, 1}");
  Alcotest.check value "list" (Value.list [ Value.Int 1 ]) (round "[1]");
  Alcotest.check value "array" (Value.array [ Value.Int 1 ]) (round "[|1|]");
  Alcotest.check value "tuple"
    (Value.tuple [ ("a", Value.Int 1); ("b", Value.Str "x") ])
    (round "<a: 1, b: 'x'>");
  (* the ambiguity that motivated the bag syntax: set of sets *)
  Alcotest.check value "set of sets"
    (Value.set [ Value.set [ Value.Int 1 ] ])
    (round "{{1}}")

let test_value_text_errors () =
  let fails s = Value_text.parse_opt s = None in
  Alcotest.(check bool) "trailing garbage" true (fails "1 2");
  Alcotest.(check bool) "unterminated string" true (fails "'x");
  Alcotest.(check bool) "unterminated set" true (fails "{1, 2");
  Alcotest.(check bool) "bad oid" true (fails "@x");
  Alcotest.(check bool) "empty" true (fails "")

let rec value_gen depth =
  let open QCheck2.Gen in
  let scalar =
    oneof
      [
        return Value.Null;
        map (fun b -> Value.Bool b) bool;
        map (fun i -> Value.Int i) (int_range (-1000) 1000);
        map (fun f -> Value.Real (Float.round (f *. 4.) /. 4.)) (float_range (-50.) 50.);
        map (fun s -> Value.Str s) (string_size ~gen:(char_range 'a' 'z') (int_range 0 8));
        map (fun s -> Value.Str (s ^ "'" ^ s)) (string_size ~gen:(char_range 'a' 'c') (int_range 0 2));
        map (fun i -> Value.Oid i) (int_range 1 50);
      ]
  in
  if depth = 0 then scalar
  else
    frequency
      [
        (4, scalar);
        (1, map Value.set (list_size (int_range 0 3) (value_gen (depth - 1))));
        (1, map Value.bag (list_size (int_range 0 3) (value_gen (depth - 1))));
        (1, map Value.list (list_size (int_range 0 3) (value_gen (depth - 1))));
        (1, map Value.array (list_size (int_range 0 3) (value_gen (depth - 1))));
        ( 1,
          map
            (fun xs -> Value.tuple (List.mapi (fun i v -> (Fmt.str "f%d" i, v)) xs))
            (list_size (int_range 1 3) (value_gen (depth - 1))) );
      ]

let prop_value_round_trip =
  QCheck2.Test.make ~name:"value text round trip" ~count:300
    ~print:Value.to_string (value_gen 3) (fun v ->
      Value.equal v (Value_text.parse (Value.to_string v)))

(* -- session dump/restore ------------------------------------------------- *)

let film_session () =
  let s = Session.create () in
  ignore
    (Session.exec_script s
       {|
       TYPE Category ENUMERATION OF ('Comedy', 'Adventure') ;
       TYPE Person OBJECT TUPLE (Name : CHAR, Salary : NUMERIC) ;
       TYPE Text LIST OF CHAR ;
       TABLE FILM (Numf : NUMERIC, Title : Text, Categories : SET OF Category) ;
       TABLE CAST_IN (Numf : NUMERIC, Who : Person) ;
       CREATE VIEW Adventures (Numf) AS
         SELECT Numf FROM FILM WHERE MEMBER('Adventure', Categories) ;
     |});
  let quinn =
    Session.new_object s
      (Value.tuple [ ("Name", Value.Str "Quinn"); ("Salary", Value.Real 12000.) ])
  in
  let db = Session.database s in
  Database.insert db "FILM"
    [
      Value.Int 1;
      Value.list [ Value.Str "Zorba" ];
      Value.set [ Value.Enum ("Category", "Adventure") ];
    ];
  Database.insert db "FILM"
    [ Value.Int 2; Value.list [ Value.Str "Gilda" ]; Value.set [] ];
  Database.insert db "CAST_IN" [ Value.Int 1; quinn ];
  s

let test_dump_restore_round_trip () =
  let s = film_session () in
  let dumped = Storage.dump s in
  let s' = Storage.restore dumped in
  (* relations identical *)
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Fmt.str "relation %s preserved" name)
        true
        (Relation.equal
           (Database.relation (Session.database s) name)
           (Database.relation (Session.database s') name)))
    [ "FILM"; "CAST_IN" ];
  (* object store preserved *)
  Alcotest.(check int) "objects preserved" 1
    (List.length (Database.objects (Session.database s')));
  (* views still work, including through objects *)
  Alcotest.(check int) "view works after restore" 1
    (Relation.cardinality (Session.query s' "SELECT Numf FROM Adventures"));
  Alcotest.(check int) "object deref works after restore" 1
    (Relation.cardinality
       (Session.query s' "SELECT Numf FROM CAST_IN WHERE Name(Who) = 'Quinn'"))

let test_dump_is_stable () =
  let s = film_session () in
  let d1 = Storage.dump s in
  let d2 = Storage.dump (Storage.restore d1) in
  Alcotest.(check string) "dump(restore(dump)) = dump" d1 d2

let test_restore_rejects_garbage () =
  Alcotest.(check bool) "bad object payload" true
    (try
       ignore (Storage.restore "--@ 1 <oops\n");
       false
     with Storage.Storage_error _ -> true);
  Alcotest.(check bool) "bad tuple table" true
    (try
       ignore (Storage.restore "--+ NOPE [1]\n");
       false
     with Storage.Storage_error _ | Session.Session_error _ | Not_found -> true)

(* the server workload must survive dump → restore bit-identically on
   every physical layer: render each query on the original session, then
   re-render on the restored one under Naive and Indexed *)
let test_dump_restore_across_physical_layers () =
  let module Loadtest = Eds_server.Loadtest in
  let module Eval = Eds_engine.Eval in
  let s = Session.create () in
  Loadtest.apply_setup s;
  let expected = Loadtest.expected_payloads s in
  let dumped = Storage.dump s in
  List.iter
    (fun physical ->
      let s' = Storage.restore dumped in
      Session.set_physical s' physical;
      List.iter
        (fun (q, want) ->
          let got = List.assoc q (Loadtest.expected_payloads s') in
          Alcotest.(check string)
            (Fmt.str "%s under %s" q (Eval.Physical.to_string physical))
            want got)
        expected)
    [ Eval.Physical.Naive; Eval.Physical.Indexed ]

let test_save_load_files () =
  let s = film_session () in
  let path = Filename.temp_file "eds_dump" ".esql" in
  Storage.save s path;
  let s' = Storage.load path in
  Sys.remove path;
  Alcotest.(check int) "loaded session answers queries" 2
    (Relation.cardinality (Session.query s' "SELECT Numf FROM FILM"))

(* Crash-safety of SAVE: the dump goes to <path>.tmp first and is
   renamed over the target only once complete, so a failure mid-write —
   a full disk, a kill — can corrupt only the temporary copy. *)
let test_atomic_save_failure_preserves_old () =
  let s = film_session () in
  let path = Filename.temp_file "eds_atomic" ".esql" in
  Storage.save s path;
  let before = In_channel.with_open_bin path In_channel.input_all in
  (* a writer that dies halfway through, as a crashing dump would *)
  let boom () =
    Storage.atomic_write ~path (fun oc ->
        Out_channel.output_string oc "TABLE GARBAGE (";
        failwith "disk full")
  in
  Alcotest.(check bool) "failure propagates" true
    (try
       boom ();
       false
     with Failure _ -> true);
  let after = In_channel.with_open_bin path In_channel.input_all in
  Alcotest.(check string) "old file intact after mid-save failure" before after;
  Alcotest.(check bool) "no .tmp left behind" false (Sys.file_exists (path ^ ".tmp"));
  (* and the survivor still loads *)
  let s' = Storage.load path in
  Sys.remove path;
  Alcotest.(check int) "survivor loads" 2
    (Relation.cardinality (Session.query s' "SELECT Numf FROM FILM"))

let test_atomic_save_overwrites_cleanly () =
  let s = film_session () in
  let path = Filename.temp_file "eds_atomic2" ".esql" in
  Storage.save s path;
  Database.insert (Session.database s) "FILM"
    [ Value.Int 3; Value.list [ Value.Str "Brazil" ]; Value.set [] ];
  Storage.save s path;
  let s' = Storage.load path in
  Alcotest.(check bool) "no .tmp left behind" false (Sys.file_exists (path ^ ".tmp"));
  Sys.remove path;
  Alcotest.(check int) "second save wins" 3
    (Relation.cardinality (Session.query s' "SELECT Numf FROM FILM"))

(* -- interned-column round trip (qcheck) ----------------------------------- *)

(* A database whose CHAR columns ride the intern table must survive
   save / checkpoint / crash-recover byte-identically, render the same
   rows under every physical layer (columnar included), and never move
   an already-issued intern id: ids are grow-only for the process
   lifetime, so relations loaded before and after recovery agree. *)
let prop_interned_column_round_trip =
  let module Wal = Eds.Wal in
  let module Eval = Eds_engine.Eval in
  let open QCheck2 in
  let name_pool = [| "zorba"; "gilda"; "brazil"; "quinn"; "ran"; "alien" |] in
  let row_gen =
    Gen.(
      pair (int_range 0 999)
        (oneof
           [
             map (fun i -> name_pool.(i mod Array.length name_pool)) (int_range 0 5);
             string_size ~gen:(char_range 'a' 'z') (int_range 1 8);
           ]))
  in
  let gen =
    Gen.(
      pair
        (list_size (int_range 1 40) row_gen)
        (option (int_range 0 40)))
  in
  let print (rows, ck) =
    Printf.sprintf "rows=%d checkpoint=%s distinct=%d" (List.length rows)
      (match ck with None -> "none" | Some c -> string_of_int c)
      (List.length (List.sort_uniq compare (List.map snd rows)))
  in
  Test.make ~name:"interned columns survive save/checkpoint/recover" ~count:30
    ~print gen (fun (rows, ck) ->
      let stmts =
        "TABLE NAMED (K : INT, Name : CHAR)"
        :: List.map
             (fun (k, s) -> Printf.sprintf "INSERT INTO NAMED VALUES (%d, '%s')" k s)
             rows
      in
      let checkpoint_at =
        match ck with Some c when c < List.length stmts -> Some c | _ -> None
      in
      let db = Filename.temp_file "eds_intern" ".esql" in
      Sys.remove db;
      Fun.protect
        ~finally:(fun () ->
          List.iter
            (fun p -> if Sys.file_exists p then Sys.remove p)
            [ db; db ^ ".tmp"; Wal.Manager.wal_path db ])
        (fun () ->
          let session, handle, _ = Wal.Manager.recover ~sync:false ~db () in
          List.iteri
            (fun i stmt ->
              ignore (Session.exec_string session stmt);
              Wal.Manager.log handle stmt;
              if checkpoint_at = Some (i + 1) then
                Wal.Manager.checkpoint handle session)
            stmts;
          (* force the columnar path once pre-crash so every Name is
             interned, then pin the ids we expect to survive *)
          ignore (Session.query session "SELECT K FROM NAMED WHERE Name = 'zorba'");
          let distinct = List.sort_uniq compare (List.map snd rows) in
          let ids_before =
            List.map (fun s -> (s, Eds_value.Intern.id_of_string s)) distinct
          in
          Wal.Manager.close handle;
          let oracle = Session.create () in
          List.iter (fun st -> ignore (Session.exec_string oracle st)) stmts;
          let want_dump = Storage.dump oracle in
          let recovered, handle', _ = Wal.Manager.recover ~sync:false ~db () in
          let got_dump = Storage.dump recovered in
          Wal.Manager.close handle';
          if want_dump <> got_dump then
            Test.fail_reportf "recovered dump differs:@.%s@.vs@.%s" got_dump
              want_dump;
          (* every physical layer renders the probe queries identically,
             with the columnar path live on Indexed *)
          let probe = List.nth rows (List.length rows / 2) in
          let queries =
            [
              Printf.sprintf "SELECT K FROM NAMED WHERE Name = '%s'" (snd probe);
              "SELECT Name FROM NAMED WHERE K < 500";
            ]
          in
          let render s q =
            let buf = Buffer.create 64 in
            let ppf = Format.formatter_of_buffer buf in
            Eds.Repl.print_result ppf (Session.Rows (Session.query s q));
            Format.pp_print_flush ppf ();
            Buffer.contents buf
          in
          let wants = List.map (render oracle) queries in
          List.iter
            (fun physical ->
              let s' = Storage.restore got_dump in
              Session.set_physical s' physical;
              List.iter2
                (fun q want ->
                  if render s' q <> want then
                    Test.fail_reportf "layer %s disagrees on %s"
                      (Eval.Physical.to_string physical)
                      q)
                queries wants)
            [ Eval.Physical.Naive; Eval.Physical.Indexed ];
          (* intern-id stability: recovery re-interns the same strings,
             and ids already issued never move *)
          List.for_all
            (fun (s, id) -> Eds_value.Intern.id_of_string s = id)
            ids_before))

let suite =
  [
    Alcotest.test_case "value text basics" `Quick test_value_text_basics;
    Alcotest.test_case "value text errors" `Quick test_value_text_errors;
    Alcotest.test_case "dump/restore round trip" `Quick test_dump_restore_round_trip;
    Alcotest.test_case "dump is stable" `Quick test_dump_is_stable;
    Alcotest.test_case "restore rejects garbage" `Quick test_restore_rejects_garbage;
    Alcotest.test_case "dump/restore across physical layers" `Quick
      test_dump_restore_across_physical_layers;
    Alcotest.test_case "save/load files" `Quick test_save_load_files;
    Alcotest.test_case "atomic save: mid-write failure keeps old file" `Quick
      test_atomic_save_failure_preserves_old;
    Alcotest.test_case "atomic save: overwrite leaves no temp" `Quick
      test_atomic_save_overwrites_cleanly;
  ]
  @ [
      QCheck_alcotest.to_alcotest prop_value_round_trip;
      QCheck_alcotest.to_alcotest prop_interned_column_round_trip;
    ]
