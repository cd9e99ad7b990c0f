(* Tests for the observability subsystem (Eds_obs): the JSON codec, the
   Chrome trace-event sink, the disabled-by-default guarantees, per-pass
   rewrite statistics and the rule profiler. *)

module Obs = Eds_obs.Obs
module Json = Eds_obs.Obs.Json
module Session = Eds.Session
module Engine = Eds_rewriter.Engine
module Rule = Eds_rewriter.Rule
module Rulesets = Eds_rewriter.Rulesets
module Optimizer = Eds_rewriter.Optimizer
module Value = Eds_value.Value
module Database = Eds_engine.Database
module Metrics = Eds_obs.Metrics

(* every test must leave the process-wide trace sink uninstalled; rule
   profiles belong to the session that carries them *)
let isolated f = Fun.protect ~finally:(fun () -> Obs.set_sink None) f

(* -- JSON codec ---------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    Json.Obj
      [
        ("name", Json.Str "rule:push_select \"quoted\"\n");
        ("ts", Json.Float 1786022096406572.);
        ("n", Json.Int (-42));
        ("ok", Json.Bool true);
        ("nothing", Json.Null);
        ("xs", Json.List [ Json.Int 1; Json.Float 2.5; Json.Str "é" ]);
      ]
  in
  let s = Json.to_string v in
  match Json.parse s with
  | Error e -> Alcotest.failf "roundtrip parse failed: %s" e
  | Ok v' ->
    Alcotest.(check string) "roundtrip identical" s (Json.to_string v');
    Alcotest.(check (option int)) "int member" (Some (-42)) (Option.bind (Json.member "n" v') Json.to_int);
    Alcotest.(check (option string))
      "unicode string survives" (Some "é")
      (match Json.member "xs" v' with
      | Some (Json.List [ _; _; s ]) -> Json.to_str s
      | _ -> None)

let test_json_parse_errors () =
  (match Json.parse "{\"a\": }" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "malformed object should not parse");
  (match Json.parse "[1, 2" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unterminated array should not parse");
  match Json.parse {|"A\n"|} with
  | Ok (Json.Str "A\n") -> ()
  | Ok j -> Alcotest.failf "unexpected escape decode: %s" (Json.to_string j)
  | Error e -> Alcotest.failf "escape parse failed: %s" e

let test_json_float_repr () =
  (* timestamps in epoch microseconds must survive printing *)
  let big = 1786022096406572.25 in
  match Json.parse (Json.to_string (Json.Float big)) with
  | Ok (Json.Float f) -> Alcotest.(check (float 0.)) "round-trips" big f
  | _ -> Alcotest.fail "float did not parse back"

(* -- disabled-by-default guarantees -------------------------------------- *)

let test_disabled_noop () =
  isolated @@ fun () ->
  Obs.set_sink None;
  Alcotest.(check bool) "disabled" false (Obs.enabled ());
  (* every tracing entry point must be callable and inert with no sink *)
  Alcotest.(check int) "span is transparent" 7 (Obs.span "s" (fun () -> 7));
  Obs.span_begin "x";
  Obs.span_end "x";
  Obs.instant "i";
  Obs.counter "c" 1.;
  (* regression: measurements are never dropped — the registry records
     with tracing off (measurements used to be gated on a sink being
     installed, silently losing every observation) *)
  let c = Metrics.counter "test_obs_disabled_total" in
  let h = Metrics.histogram "test_obs_disabled_seconds" in
  let c0 = Metrics.Counter.value c and h0 = Metrics.Histogram.snapshot h in
  Metrics.Counter.incr c;
  Metrics.Histogram.observe h 2.;
  Alcotest.(check int) "counter recorded without sink" 1 (Metrics.Counter.value c - c0);
  Alcotest.(check (float 1e-9)) "histogram recorded without sink" 2.
    (Metrics.Histogram.sub (Metrics.Histogram.snapshot h) h0).Metrics.Histogram.sum

let test_span_balances_on_exception () =
  isolated @@ fun () ->
  let sink, get = Obs.memory_sink () in
  Obs.set_sink (Some sink);
  (try Obs.span "boom" (fun () -> failwith "no") with Failure _ -> ());
  Obs.set_sink None;
  match get () with
  | [ Obs.Begin { name = "boom"; _ }; Obs.End { name = "boom"; _ } ] -> ()
  | evs -> Alcotest.failf "expected balanced B/E, got %d events" (List.length evs)

(* -- the Chrome trace-event sink ----------------------------------------- *)

let view_stack_session ~depth =
  let s = Session.create () in
  ignore (Session.exec_string s "TABLE BASE (A : NUMERIC, B : NUMERIC, C : NUMERIC)");
  let db = Session.database s in
  for i = 1 to 30 do
    Database.insert db "BASE"
      [ Value.Int (i * 7 mod 100); Value.Int (i * 13 mod 100); Value.Int i ]
  done;
  for i = 1 to depth do
    let prev = if i = 1 then "BASE" else Fmt.str "V%d" (i - 1) in
    ignore
      (Session.exec_string s
         (Fmt.str "CREATE VIEW V%d (A, B, C) AS SELECT A, B, C FROM %s WHERE A > %d"
            i prev i))
  done;
  s

let test_trace_file_valid () =
  isolated @@ fun () ->
  let path = Filename.temp_file "eds_trace" ".json" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let oc = open_out path in
  Obs.set_sink (Some (Obs.trace_sink oc));
  let s = view_stack_session ~depth:2 in
  ignore (Session.query s "SELECT A FROM V2 WHERE B > 50");
  Obs.set_sink None;
  close_out oc;
  let text = In_channel.with_open_text path In_channel.input_all in
  (* the whole file is one JSON array… *)
  let records =
    match Json.parse text with
    | Ok (Json.List rs) -> rs
    | Ok _ -> Alcotest.fail "trace file is not a JSON array"
    | Error e -> Alcotest.failf "trace file does not parse: %s" e
  in
  Alcotest.(check bool) "trace has events" true (List.length records > 0);
  (* …and each line between the brackets is a self-contained record
     (JSON-Lines style, so a truncated trace is still greppable) *)
  String.split_on_char '\n' (String.trim text)
  |> List.iter (fun line ->
         let line = String.trim line in
         if line <> "[" && line <> "]" && line <> "" then begin
           let line =
             if String.length line > 0 && line.[String.length line - 1] = ','
             then String.sub line 0 (String.length line - 1)
             else line
           in
           match Json.parse line with
           | Ok (Json.Obj _) -> ()
           | _ -> Alcotest.failf "line is not a JSON object: %s" line
         end);
  let field name r = Json.member name r in
  let begins = Hashtbl.create 16 and ends = Hashtbl.create 16 in
  List.iter
    (fun r ->
      List.iter
        (fun key ->
          if field key r = None then
            Alcotest.failf "record missing %s: %s" key (Json.to_string r))
        [ "name"; "ph"; "ts"; "pid"; "tid" ];
      let name = Option.get (Option.bind (field "name" r) Json.to_str) in
      let bump tbl =
        Hashtbl.replace tbl name (1 + Option.value ~default:0 (Hashtbl.find_opt tbl name))
      in
      match Option.bind (field "ph" r) Json.to_str with
      | Some "B" -> bump begins
      | Some "E" -> bump ends
      | Some ("X" | "i" | "C") -> ()
      | ph ->
        Alcotest.failf "unknown phase %s" (Option.value ~default:"<none>" ph))
    records;
  Hashtbl.iter
    (fun name b ->
      let e = Option.value ~default:0 (Hashtbl.find_opt ends name) in
      Alcotest.(check int) (Fmt.str "balanced B/E for %s" name) b e)
    begins;
  (* the pipeline phases all show up *)
  let names =
    List.filter_map (fun r -> Option.bind (field "name" r) Json.to_str) records
  in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (Fmt.str "%s present" expected) true
        (List.mem expected names))
    [ "parse"; "translate"; "rewrite"; "execute" ]

let test_trace_agrees_with_stats () =
  isolated @@ fun () ->
  let s = view_stack_session ~depth:3 in
  let sink, get = Obs.memory_sink () in
  Obs.set_sink (Some sink);
  let plan = Session.explain s "SELECT A FROM V3 WHERE B > 50" in
  Obs.set_sink None;
  (* fired rule:NAME complete-events traced while planning must agree
     exactly with the engine's by_rule statistics *)
  let fired = Hashtbl.create 16 in
  List.iter
    (fun e ->
      match e with
      | Obs.Complete { name; attrs; _ }
        when String.length name > 5 && String.sub name 0 5 = "rule:" ->
        let outcome =
          Option.bind (List.assoc_opt "outcome" attrs) Json.to_str
        in
        if outcome = Some "fired" then begin
          let rule = String.sub name 5 (String.length name - 5) in
          Hashtbl.replace fired rule
            (1 + Option.value ~default:0 (Hashtbl.find_opt fired rule))
        end
      | _ -> ())
    (get ());
  let by_rule = plan.Session.rewrite_stats.Engine.by_rule in
  Alcotest.(check bool) "some rule fired" true (List.length by_rule > 0);
  List.iter
    (fun (rule, n) ->
      Alcotest.(check int) (Fmt.str "trace fires for %s" rule) n
        (Option.value ~default:0 (Hashtbl.find_opt fired rule)))
    by_rule;
  Alcotest.(check int) "no extra fired rules in trace" (List.length by_rule)
    (Hashtbl.length fired)

(* -- per-pass block statistics ------------------------------------------- *)

let test_per_pass_stats () =
  isolated @@ fun () ->
  let s = view_stack_session ~depth:3 in
  let cat = Session.catalog s in
  let translated =
    Eds_esql.Translate.select cat
      (Eds_esql.Parser.parse_select "SELECT A FROM V3 WHERE B > 50")
  in
  let ctx = Optimizer.make_ctx (Eds_esql.Catalog.schema_env cat) in
  let program =
    {
      Rule.blocks =
        [
          Rule.block "merging" (Rulesets.merging ());
          Rule.block "merging" (Rulesets.merging ());
        ];
      rounds = 1;
    }
  in
  let stats = Engine.fresh_stats () in
  ignore (Optimizer.rewrite ~program ~stats ctx translated);
  (* one entry per executed pass, in execution order *)
  Alcotest.(check int) "two passes recorded" 2 (List.length stats.Engine.passes);
  List.iter
    (fun (name, _) -> Alcotest.(check string) "pass name" "merging" name)
    stats.Engine.passes;
  (* the name-summed view equals the fold of the passes *)
  let summed = Engine.block_stats stats "merging" in
  let fold f = List.fold_left (fun acc (_, bs) -> acc + f bs) 0 stats.Engine.passes in
  Alcotest.(check int) "conditions sum" summed.Engine.conditions
    (fold (fun bs -> bs.Engine.conditions));
  Alcotest.(check int) "rewrites sum" summed.Engine.rewrites
    (fold (fun bs -> bs.Engine.rewrites));
  Alcotest.(check int) "nodes sum" summed.Engine.nodes
    (fold (fun bs -> bs.Engine.nodes));
  (* the first pass does the merging; the second finds nothing new *)
  (match stats.Engine.passes with
  | [ (_, p1); (_, p2) ] ->
    Alcotest.(check bool) "first pass rewrites" true (p1.Engine.rewrites > 0);
    Alcotest.(check int) "second pass idle" 0 p2.Engine.rewrites
  | _ -> Alcotest.fail "expected exactly two passes");
  Alcotest.(check bool) "rewrites happened" true (summed.Engine.rewrites > 0)

(* -- the rule profiler ---------------------------------------------------- *)

let test_profile_view_stack () =
  isolated @@ fun () ->
  let s = view_stack_session ~depth:3 in
  let profile = Obs.Profile.create () in
  Session.set_profile s (Some profile);
  let plan = Session.explain s "SELECT A FROM V3 WHERE B > 50" in
  Session.set_profile s None;
  let cells = Obs.Profile.cells profile in
  Alcotest.(check bool) "profile has cells" true (List.length cells > 0);
  (* the merging rules must show nonzero fire counts on a view stack *)
  let fires_of rule =
    List.fold_left
      (fun acc ((_, r), (c : Obs.Profile.cell)) ->
        if r = rule then acc + c.Obs.Profile.fires else acc)
      0 cells
  in
  Alcotest.(check bool) "search_merge fired" true (fires_of "search_merge" > 0);
  (* fire counts agree with the engine's statistics *)
  List.iter
    (fun (rule, n) ->
      Alcotest.(check int) (Fmt.str "profile fires for %s" rule) n (fires_of rule))
    plan.Session.rewrite_stats.Engine.by_rule;
  (* attempted-but-never-fired cells are flagged, per (block, rule):
     search_merge can fire in "merging" yet be dead in "merging_again" *)
  let cell_fires key =
    List.fold_left
      (fun acc (k, (c : Obs.Profile.cell)) ->
        if k = key then acc + c.Obs.Profile.fires else acc)
      0 cells
  in
  let attempted_unfired = Obs.Profile.never_fired profile in
  List.iter
    (fun ((_, rule) as key) ->
      Alcotest.(check int) (Fmt.str "%s reported unfired" rule) 0 (cell_fires key))
    attempted_unfired;
  (* rules the program contains but never even attempted are flagged when
     the full rule list is supplied *)
  let all_rules =
    List.concat_map
      (fun b -> List.map (fun r -> (b.Rule.block_name, r.Rule.name)) b.Rule.rules)
      (Session.program s).Rule.blocks
  in
  let flagged = Obs.Profile.never_fired ~all_rules profile in
  Alcotest.(check bool) "some rules never fired" true (List.length flagged > 0);
  (* e.g. the fixpoint rules have nothing to do on a non-recursive query *)
  Alcotest.(check bool) "alexander_rule flagged" true
    (List.exists (fun (_, r) -> r = "alexander_rule") flagged)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_profile_report_text () =
  isolated @@ fun () ->
  let s = view_stack_session ~depth:3 in
  let profile = Obs.Profile.create () in
  Session.set_profile s (Some profile);
  ignore (Session.explain s "SELECT A FROM V3 WHERE B > 50");
  Session.set_profile s None;
  let all_rules =
    List.concat_map
      (fun b -> List.map (fun r -> (b.Rule.block_name, r.Rule.name)) b.Rule.rules)
      (Session.program s).Rule.blocks
  in
  let report = Fmt.str "%a" (Obs.Profile.pp ~all_rules) profile in
  Alcotest.(check bool) "mentions search_merge" true
    (contains ~sub:"search_merge" report);
  Alcotest.(check bool) "flags dead rules" true
    (contains ~sub:"never fired" report)

(* -- metrics -------------------------------------------------------------- *)

let test_metrics_collection () =
  isolated @@ fun () ->
  let c = Metrics.counter "test_obs_widgets_total" in
  let h = Metrics.histogram "test_obs_latency_seconds" in
  Metrics.reset_values ();
  Metrics.Counter.add c 2;
  Metrics.Counter.add c 3;
  Metrics.Histogram.observe h 10.;
  Metrics.Histogram.observe h 20.;
  Alcotest.(check (float 0.)) "counter sum" 5.
    (Metrics.sum (Metrics.samples ()) "test_obs_widgets_total");
  let snap = Metrics.Histogram.snapshot h in
  Alcotest.(check int) "histogram count" 2 (Metrics.Histogram.count snap);
  Alcotest.(check (float 1e-9)) "histogram sum" 30. snap.Metrics.Histogram.sum;
  Metrics.reset_values ();
  Alcotest.(check int) "reset zeroes the counter" 0 (Metrics.Counter.value c);
  Alcotest.(check int) "reset zeroes the histogram" 0
    (Metrics.Histogram.count (Metrics.Histogram.snapshot h))

let suite =
  [
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "json parse errors" `Quick test_json_parse_errors;
    Alcotest.test_case "json float repr" `Quick test_json_float_repr;
    Alcotest.test_case "disabled is a no-op" `Quick test_disabled_noop;
    Alcotest.test_case "span balances on exception" `Quick
      test_span_balances_on_exception;
    Alcotest.test_case "trace file is valid Chrome JSON" `Quick
      test_trace_file_valid;
    Alcotest.test_case "trace fire counts agree with stats" `Quick
      test_trace_agrees_with_stats;
    Alcotest.test_case "per-pass block stats" `Quick test_per_pass_stats;
    Alcotest.test_case "profile: view-stack golden" `Quick test_profile_view_stack;
    Alcotest.test_case "profile: report text" `Quick test_profile_report_text;
    Alcotest.test_case "metrics collection" `Quick test_metrics_collection;
  ]
