(* The edsql shell behind bin/edsql.ml: statements are ESQL, directives
   start with a dot (see [help_text]).  Lives in the library, driven by
   a [read_line] thunk and an output formatter, so the test suite can
   push a scripted conversation through a real REPL loop. *)

module Relation = Session.Relation
module Lera = Session.Lera
module Rule = Session.Rule
module Engine = Session.Engine
module Optimizer = Session.Optimizer
module Eval = Session.Eval
module Obs = Eds_obs.Obs
module Rule_parser = Eds_rewriter.Rule_parser
module Verify = Eds_rulelab.Verify

let print_result ppf = function
  | Session.Done -> Fmt.pf ppf "ok@."
  | Session.Inserted n ->
    Fmt.pf ppf "%d tuple%s inserted@." n (if n = 1 then "" else "s")
  | Session.Deleted n ->
    Fmt.pf ppf "%d tuple%s deleted@." n (if n = 1 then "" else "s")
  | Session.Updated n ->
    Fmt.pf ppf "%d tuple%s updated@." n (if n = 1 then "" else "s")
  | Session.Rows rel ->
    Fmt.pf ppf "%a(%d tuple%s)@." Relation.pp rel (Relation.cardinality rel)
      (if Relation.cardinality rel = 1 then "" else "s")
  | Session.Report text -> Fmt.pf ppf "%s@?" text

let print_plan ppf session (p : Session.plan) =
  let side label rel =
    if Lera.operator_count rel <= 3 then
      Fmt.pf ppf "%s: %a@.            (%a)@." label Lera.pp rel Eds_lera.Cost.pp
        (Session.estimate session rel)
    else begin
      Fmt.pf ppf "%s: (%a)@.%a" label Eds_lera.Cost.pp
        (Session.estimate session rel) Lera.pp_tree rel
    end
  in
  side "translated" p.Session.translated;
  side "rewritten " p.Session.rewritten;
  Fmt.pf ppf "rewriting : %a@." Engine.pp_stats p.Session.rewrite_stats

let limits_config n =
  let l = if n < 0 then None else Some n in
  {
    Optimizer.merging_limit = l;
    fixpoint_limit = l;
    permutation_limit = l;
    semantic_limit = l;
    simplification_limit = l;
    rounds = 1;
  }

(* split ".directive the rest" into the directive token and its argument *)
let cut_directive line =
  let n = String.length line in
  let rec blank i =
    if i >= n then n
    else match line.[i] with ' ' | '\t' -> i | _ -> blank (i + 1)
  in
  let i = blank 0 in
  (String.sub line 0 i, String.trim (String.sub line i (n - i)))

let help_text =
  "directives:\n\
  \  .explain SELECT ...   show the LERA expression before/after rewriting\n\
  \  .analyze SELECT ...   EXPLAIN ANALYZE: execute and show per-operator\n\
  \                        actual rows, probes/builds and elapsed time\n\
  \  .trace SELECT ...     show every rule application, in order\n\
  \  .trace-file FILE      write a Chrome trace-event file (.trace-file off stops)\n\
  \  .profile on|off       collect per-rule attempt/fire/veto statistics;\n\
  \                        'off' (or bare .profile) prints the report\n\
  \  .profile report       never-fired (dead) rules under the current profile\n\
  \  .verify FILE          differentially verify a rule pack against the\n\
  \                        current program; appended to block 'verified'\n\
  \                        only if every rule comes out clean\n\
  \  .stats                cumulative evaluator counters and last rewrite stats\n\
  \  .stats reset          zero the cumulative counters (generations survive)\n\
  \  .rules                list the current rule program\n\
  \  .check                termination warnings for the rule program (\xc2\xa74.2)\n\
  \  .limits N             set every block limit to N (negative = infinite)\n\
  \  .norewrite / .rewrite disable / enable the rewriter\n\
  \  .physical naive|indexed   select the physical evaluation layer\n\
  \  .constraint TEXT      declare an integrity constraint (Fig. 10)\n\
  \  .refresh VIEW         force a full recompute of a materialized view\n\
  \  .save FILE / .load FILE   dump or restore the whole session\n\
  \                        (.save also works against an edsd server;\n\
  \                         start one with `edsd --db FILE` and attach\n\
  \                         this shell with `edsql --connect HOST:PORT`)\n\
  \  .help                 this message\n\
  \  .quit                 leave"

(* the out_channel behind the current trace sink, so we can close it *)
let trace_channel : out_channel option ref = ref None

let stop_tracing () =
  Obs.set_sink None;
  match !trace_channel with
  | Some oc ->
    close_out oc;
    trace_channel := None
  | None -> ()

let start_tracing path =
  stop_tracing ();
  let oc = open_out path in
  trace_channel := Some oc;
  Obs.set_sink (Some (Obs.trace_sink oc))

let all_rules session =
  List.concat_map
    (fun b -> List.map (fun r -> (b.Rule.block_name, r.Rule.name)) b.Rule.rules)
    (Session.program session).Rule.blocks

let print_profile ppf session p =
  Fmt.pf ppf "%a@." (Obs.Profile.pp ~all_rules:(all_rules session)) p

(* -- the stats table ------------------------------------------------------ *)

(* Point-in-time state of one session as gauge samples: the server's
   registry collector exposes them, and [.stats] reads them beside the
   registry's cells. *)
let session_samples session =
  let m = Session.mv_stats session in
  let fix_entries, _ = Session.fix_cache_stats session in
  let g = Eds_obs.Metrics.gauge_sample in
  [
    g ~help:"Materialized views with stored extents" "eds_mview_extents"
      (float_of_int
         (List.length (Session.Materializer.views (Session.mviews session))));
    g ~help:"Seconds since the last full (re)compute of any extent (-1 = never)"
      "eds_mview_last_refresh_age_seconds"
      (if m.Session.Materializer.last_refresh > 0. then
         Unix.gettimeofday () -. m.Session.Materializer.last_refresh
       else -1.);
    g ~help:"Shared closed-fixpoint memo entries" "eds_fix_cache_entries"
      (float_of_int fix_entries);
    g ~help:"Plan-affecting generation (integrity marker)" "eds_session_generation"
      (float_of_int (Session.generation session));
    g ~help:"Data epoch (integrity marker)" "eds_session_data_generation"
      (float_of_int (Session.data_generation session));
  ]

let session_table =
  [
    ("session.statements_run", "eds_session_statements_total", []);
    ("session.generation", "eds_session_generation", []);
    ("session.data_generation", "eds_session_data_generation", []);
    ("session.eval.combinations", "eds_eval_combinations_total", []);
    ("session.eval.tuples_read", "eds_eval_tuples_read_total", []);
    ("session.eval.tuples_produced", "eds_eval_tuples_produced_total", []);
    ("session.eval.probes", "eds_eval_probes_total", []);
    ("session.eval.builds", "eds_eval_builds_total", []);
    ("session.eval.fix_iterations", "eds_eval_fix_iterations_total", []);
    ("session.eval.fix_cache_hits", "eds_eval_fix_cache_hits_total", []);
    ("session.eval.fix_cache_misses", "eds_eval_fix_cache_misses_total", []);
    ("session.mviews.extents", "eds_mview_extents", []);
    ("session.mviews.maintenance_runs", "eds_view_maintenance_runs_total", []);
    ("session.mviews.fallback_recomputes", "eds_view_maintenance_fallback_total", []);
    ("session.mviews.refreshes", "eds_view_refresh_total", []);
    ("session.mviews.delta_tuples", "eds_view_maintenance_delta_tuples_total", []);
    ("session.mviews.last_refresh_age_s", "eds_mview_last_refresh_age_seconds", []);
    ("session.fix_cache.entries", "eds_fix_cache_entries", []);
  ]

let table_value table samples key =
  let _, family, labels = List.find (fun (k, _, _) -> k = key) table in
  Eds_obs.Metrics.sum ~labels samples family

let print_session_stats ?value ppf session =
  let value =
    match value with
    | Some v -> v
    | None ->
      table_value session_table
        (Eds_obs.Metrics.registry_samples () @ session_samples session)
  in
  let n key = int_of_float (value key) in
  Fmt.pf ppf "statements run   : %d@." (n "session.statements_run");
  Fmt.pf ppf "physical layer   : %s@."
    (Eval.Physical.to_string (Session.physical session));
  Fmt.pf ppf "eval combinations: %d@." (n "session.eval.combinations");
  Fmt.pf ppf "tuples read      : %d@." (n "session.eval.tuples_read");
  Fmt.pf ppf "tuples produced  : %d@." (n "session.eval.tuples_produced");
  Fmt.pf ppf "fixpoint iters   : %d@." (n "session.eval.fix_iterations");
  Fmt.pf ppf "index probes     : %d@." (n "session.eval.probes");
  Fmt.pf ppf "index builds     : %d@." (n "session.eval.builds");
  Fmt.pf ppf "fix-cache hit/miss: %d/%d@." (n "session.eval.fix_cache_hits")
    (n "session.eval.fix_cache_misses");
  let _, invalidations = Session.fix_cache_stats session in
  Fmt.pf ppf "fix-cache shared : %d entries, %d invalidated by DML@."
    (n "session.fix_cache.entries") invalidations;
  Fmt.pf ppf
    "mat. views       : %d extents, %d maintenance runs, %d fallback \
     recomputes, %d refreshes, %d delta tuples@."
    (n "session.mviews.extents") (n "session.mviews.maintenance_runs")
    (n "session.mviews.fallback_recomputes") (n "session.mviews.refreshes")
    (n "session.mviews.delta_tuples");
  let age = value "session.mviews.last_refresh_age_s" in
  if age >= 0. then Fmt.pf ppf "mv last refresh  : %.1fs ago@." age;
  (match Obs.Profile.current () with
  | None -> ()
  | Some p ->
    let rules = all_rules session in
    let dead = Obs.Profile.never_fired ~all_rules:rules p in
    Fmt.pf ppf "dead rules       : %d of %d profiled%a@." (List.length dead)
      (List.length rules)
      (fun ppf -> function
        | [] -> ()
        | l ->
          Fmt.pf ppf " (%a)"
            (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (b, r) ->
                 Fmt.pf ppf "%s/%s" b r))
            l)
      dead);
  match Session.last_rewrite_stats session with
  | None -> Fmt.pf ppf "last rewrite     : (none)@."
  | Some rs -> Fmt.pf ppf "last rewrite     : %a@." Engine.pp_stats rs

(* The gate for untrusted rule packs, shared with the server's
   [VERIFY RULES] wire command: differentially verify the pack against
   the session's current program and append it (block "verified") only
   when every rule comes out clean.  Returns [true] iff the pack was
   accepted. *)
let verify_rules_text ppf session text =
  match Rule_parser.parse_rules text with
  | exception Rule_parser.Rule_parse_error e ->
    Fmt.pf ppf "rule error: %s@." (Rule_parser.error_to_string e);
    false
  | [] ->
    Fmt.pf ppf "no rules in pack@.";
    false
  | rules ->
    let report = Verify.verify_rules ~base:(Session.program session) rules in
    Fmt.pf ppf "%a@." Verify.pp_report report;
    if Verify.clean report then begin
      Session.add_rules session ~block:"verified" text;
      Fmt.pf ppf "pack accepted: %d rule%s appended to block \"verified\"@."
        (List.length rules)
        (if List.length rules = 1 then "" else "s");
      true
    end
    else begin
      Fmt.pf ppf "pack rejected: fix the flagged rules and retry@.";
      false
    end

let handle_directive ppf session line =
  let directive, arg = cut_directive line in
  match directive with
  | ".quit" | ".exit" -> `Quit
  | ".help" ->
    Fmt.pf ppf "%s@." help_text;
    `Continue
  | ".explain" ->
    print_plan ppf session (Session.explain session arg);
    `Continue
  | ".trace" ->
    let plan = Session.explain session arg in
    List.iter
      (fun step -> Fmt.pf ppf "%a@." Engine.pp_step step)
      (Engine.steps plan.Session.rewrite_stats);
    print_plan ppf session plan;
    `Continue
  | ".trace-file" ->
    (match arg with
    | "" | "off" ->
      stop_tracing ();
      Fmt.pf ppf "tracing off@."
    | path ->
      start_tracing path;
      Fmt.pf ppf "tracing to %s (Chrome trace-event format)@." path);
    `Continue
  | ".profile" ->
    (match (arg, Obs.Profile.current ()) with
    | "on", _ ->
      Obs.Profile.set_current (Some (Obs.Profile.create ()));
      Fmt.pf ppf "profiling on@."
    | "off", Some p ->
      print_profile ppf session p;
      Obs.Profile.set_current None
    | "off", None -> Fmt.pf ppf "profiling was already off@."
    | "", Some p -> print_profile ppf session p
    | "report", Some p ->
      (match Obs.Profile.never_fired ~all_rules:(all_rules session) p with
      | [] -> Fmt.pf ppf "no dead rules: every rule fired at least once@."
      | dead ->
        List.iter
          (fun (b, r) -> Fmt.pf ppf "dead rule: %s/%s (never fired)@." b r)
          dead)
    | "report", None -> Fmt.pf ppf "profiling is off (.profile on first)@."
    | _ -> Fmt.pf ppf "usage: .profile on|off|report@.");
    `Continue
  | ".stats" ->
    (match arg with
    | "reset" ->
      Session.reset_stats session;
      Fmt.pf ppf "stats reset (generations and integrity counters preserved)@."
    | _ -> print_session_stats ppf session);
    `Continue
  | ".analyze" ->
    print_result ppf (Session.exec_string session ("EXPLAIN ANALYZE " ^ arg));
    `Continue
  | ".refresh" ->
    (match arg with
    | "" -> Fmt.pf ppf "usage: .refresh VIEW@."
    | name -> print_result ppf (Session.exec_string session ("REFRESH " ^ name)));
    `Continue
  | ".rules" ->
    let program = Session.program session in
    List.iter
      (fun b ->
        Fmt.pf ppf "%a@." Rule.pp_block b;
        List.iter (fun r -> Fmt.pf ppf "  %a@." Rule.pp r) b.Rule.rules)
      program.Rule.blocks;
    `Continue
  | ".check" ->
    (match Session.check_program session with
    | [] -> Fmt.pf ppf "rule program is termination-safe (§4.2)@."
    | warnings ->
      List.iter
        (fun w -> Fmt.pf ppf "%a@." Eds_rewriter.Rule_analysis.pp_warning w)
        warnings);
    `Continue
  | ".limits" ->
    (match int_of_string_opt arg with
    | Some n -> Session.set_config session (limits_config n)
    | None -> Fmt.pf ppf "usage: .limits N   (negative N = infinite)@.");
    `Continue
  | ".norewrite" ->
    Session.set_rewriting session false;
    `Continue
  | ".rewrite" ->
    Session.set_rewriting session true;
    `Continue
  | ".physical" ->
    (match Eval.Physical.of_string arg with
    | Some p ->
      Session.set_physical session p;
      Fmt.pf ppf "physical layer: %s@." (Eval.Physical.to_string p)
    | None ->
      Fmt.pf ppf "physical layer: %s (usage: .physical naive|indexed)@."
        (Eval.Physical.to_string (Session.physical session)));
    `Continue
  | ".verify" ->
    (match arg with
    | "" -> Fmt.pf ppf "usage: .verify FILE@."
    | path ->
      let text = In_channel.with_open_text path In_channel.input_all in
      ignore (verify_rules_text ppf session text));
    `Continue
  | ".constraint" ->
    Session.add_integrity_constraint session arg;
    Fmt.pf ppf "constraint recorded@.";
    `Continue
  | _ ->
    Fmt.pf ppf "unknown directive %s, try .help@." directive;
    `Continue

let handle_save_load ppf session line =
  let strip prefix =
    String.sub line (String.length prefix)
      (String.length line - String.length prefix)
    |> String.trim
  in
  if String.length line >= 5 && String.sub line 0 5 = ".save" then begin
    Storage.save session (strip ".save");
    Fmt.pf ppf "saved@.";
    Some session
  end
  else if String.length line >= 5 && String.sub line 0 5 = ".load" then begin
    let s' = Storage.load (strip ".load") in
    Fmt.pf ppf "loaded@.";
    Some s'
  end
  else None

let describe_error = function
  | Session.Session_error msg
  | Storage.Storage_error msg
  | Sys_error msg
  | Failure msg
  | Invalid_argument msg -> msg
  | Eds_esql.Parser.Parse_error msg -> "parse error: " ^ msg
  | Eds_engine.Cancel.Timeout budget ->
    Fmt.str "query timeout after %gs (the connection survives)" budget
  | e -> Printexc.to_string e

(* one REPL line must never kill the session: anything except the
   genuinely fatal runtime conditions becomes a one-line report *)
let protect ppf ~default f =
  try f () with
  | (Out_of_memory | Stack_overflow) as e -> raise e
  | e ->
    Fmt.pf ppf "error: %s@." (describe_error e);
    default

(* One dot-directive line: [`Swap] is a successful [.load] handing back
   the restored session. *)
let dispatch ppf session line =
  match handle_save_load ppf session line with
  | Some s' -> if s' == session then `Continue else `Swap s'
  | None -> handle_directive ppf session line

let repl ?(banner = true) ?(ppf = Fmt.stdout) ~read_line session0 =
  if banner then begin
    Fmt.pf ppf "edsql — EDS extensible query rewriter (ICDE'91 reproduction)@.";
    Fmt.pf ppf
      "terminate statements with ';', directives with newline; .quit to leave@."
  end;
  let session = ref session0 in
  let buffer = Buffer.create 256 in
  let rec loop () =
    if Buffer.length buffer = 0 then Fmt.pf ppf "edsql> @?"
    else Fmt.pf ppf "  ...> @?";
    match read_line () with
    | None -> ()
    | Some line ->
      let trimmed = String.trim line in
      if Buffer.length buffer = 0 && String.length trimmed > 0 && trimmed.[0] = '.'
      then begin
        match
          protect ppf ~default:`Continue (fun () ->
              dispatch ppf !session trimmed)
        with
        | `Quit -> ()
        | `Swap s' ->
          session := s';
          loop ()
        | `Continue -> loop ()
      end
      else begin
        Buffer.add_string buffer line;
        Buffer.add_char buffer '\n';
        if String.length trimmed > 0 && trimmed.[String.length trimmed - 1] = ';'
        then begin
          let stmt = Buffer.contents buffer in
          Buffer.clear buffer;
          protect ppf ~default:() (fun () ->
              print_result ppf (Session.exec_string !session stmt));
          loop ()
        end
        else loop ()
      end
  in
  loop ();
  !session

let run_file ?(ppf = Fmt.stdout) ~explain session path =
  let text = In_channel.with_open_text path In_channel.input_all in
  let stmts = Eds_esql.Parser.parse_program text in
  List.iter
    (fun stmt ->
      match stmt with
      | Eds_esql.Ast.Select_stmt _ when explain ->
        let input = Fmt.str "%a" Eds_esql.Ast.pp_stmt stmt in
        print_plan ppf session (Session.explain session input);
        print_result ppf (Session.exec session stmt)
      | _ -> print_result ppf (Session.exec session stmt))
    stmts
