module Value = Eds_value.Value
module Vtype = Eds_value.Vtype
module Adt = Eds_value.Adt
module Term = Eds_term.Term
module Lera = Eds_lera.Lera
module Schema = Eds_lera.Schema
module Relation = Eds_engine.Relation
module Database = Eds_engine.Database
module Materializer = Eds_engine.Materializer
module Eval = Eds_engine.Eval
module Cancel = Eds_engine.Cancel
module Expr_eval = Eds_engine.Expr_eval
module Ast = Eds_esql.Ast
module Parser = Eds_esql.Parser
module Lexer = Eds_esql.Lexer
module Catalog = Eds_esql.Catalog
module Translate = Eds_esql.Translate
module Template = Eds_esql.Template
module Rule = Eds_rewriter.Rule
module Rule_parser = Eds_rewriter.Rule_parser
module Engine = Eds_rewriter.Engine
module Optimizer = Eds_rewriter.Optimizer
module Obs = Eds_obs.Obs
module Metrics = Eds_obs.Metrics

(* always-on per-phase latency histograms (paper pipeline: parse →
   translate → rewrite → execute), shared by every session in the
   process; the slow-query log and METRICS PROM read these back *)
let m_phase p =
  Metrics.histogram ~help:"Pipeline phase latency in seconds"
    ~labels:[ ("phase", p) ]
    "eds_phase_duration_seconds"

let m_parse = m_phase "parse"
let m_translate = m_phase "translate"
let m_rewrite = m_phase "rewrite"
let m_execute = m_phase "execute"

let m_statements =
  Metrics.counter ~help:"Statements executed by sessions"
    "eds_session_statements_total"

type t = {
  cat : Catalog.t;
  db : Database.t;
  mutable config : Optimizer.config;
  mutable rule_program : Rule.program;
  mutable rewriting : bool;
  mutable adaptive : bool;
  mutable physical : Eval.Physical.t;
  mutable semantic_constraints : (string * Term.t) list;
  mutable extra_methods : (string * Engine.method_fn) list;
  mutable profile : Obs.Profile.t option;
      (** the rule profile every rewrite of this session aggregates into *)
  mviews : Materializer.t;  (** materialized views and their extents *)
  fix_cache : Eval.Shared_fix_cache.t;
      (** cross-statement closed-fixpoint memo, validated per-relation
          against the copy-on-write database — DML invalidates only the
          fixpoints that read the written relation *)
  mutable last_rewrite_stats : Engine.stats option;
  mutable last_parse_s : float;
      (** parse time of the statement currently being executed, set by
          {!exec_string} so {!plan_select} can fold it into the plan *)
  mutable generation : int;
      (** bumped by every change that can alter what a SELECT plans to —
          config, rule program, catalog DDL, registered functions /
          methods / constraints.  Cached rewritten plans are valid only
          within one generation (the server's plan cache keys on it). *)
}

exception Session_error of string

let error fmt = Fmt.kstr (fun s -> raise (Session_error s)) fmt

let create ?(config = Optimizer.default_config) () =
  let cat = Catalog.create () in
  let db = Database.create ~types:(Catalog.types cat) ~adts:(Catalog.adts cat) () in
  {
    cat;
    db;
    config;
    rule_program = Optimizer.program ~config ();
    rewriting = true;
    adaptive = false;
    physical = Eval.Physical.Indexed;
    semantic_constraints = [];
    extra_methods = [];
    profile = None;
    mviews = Materializer.create ();
    fix_cache = Eval.Shared_fix_cache.create ();
    last_rewrite_stats = None;
    last_parse_s = 0.;
    generation = 0;
  }

let catalog s = s.cat
let database s = s.db
let generation s = s.generation

let invalidate_plans s =
  s.generation <- s.generation + 1;
  (* memoized fixpoint results stay {e correct} across plan changes, but
     the layers' work counters must remain comparable: start cold *)
  Eval.Shared_fix_cache.clear s.fix_cache

let set_config s config =
  s.config <- config;
  s.rule_program <- Optimizer.program ~config ();
  invalidate_plans s

let set_rewriting s flag =
  s.rewriting <- flag;
  invalidate_plans s

let set_adaptive s flag =
  s.adaptive <- flag;
  invalidate_plans s
let set_physical s p =
  s.physical <- p;
  (* results memoized under another layer would make this layer's
     counters incomparable to a cold run *)
  Eval.Shared_fix_cache.clear s.fix_cache

let physical s = s.physical
let set_profile s p = s.profile <- p
let profile s = s.profile

(* the catalog owns types and ADTs; keep the database's view in sync *)
let sync s =
  Database.set_types s.db (Catalog.types s.cat);
  Database.set_adts s.db (Catalog.adts s.cat)

let make_ctx ?params s =
  Optimizer.make_ctx
    ~semantic_constraints:s.semantic_constraints
    ~extra_methods:s.extra_methods ?profile:s.profile ?params
    (Catalog.schema_env s.cat)

type result =
  | Done
  | Inserted of int
  | Deleted of int
  | Updated of int
  | Rows of Relation.t
  | Report of string

type plan = {
  translated : Lera.rel;
  rewritten : Lera.rel;
  rewrite_stats : Engine.stats;
  guards : Lera.guard list;
  parse_s : float;
  translate_s : float;
  rewrite_s : float;
}

let wrap_errors f =
  try f () with
  | Lexer.Lex_error (msg, pos) -> error "syntax error at offset %d: %s" pos msg
  | Parser.Parse_error msg -> error "parse error: %s" msg
  | Catalog.Catalog_error msg -> error "catalog error: %s" msg
  | Translate.Type_error msg -> error "type error: %s" msg
  | Schema.Schema_error msg -> error "schema error: %s" msg
  | Engine.Rewrite_error msg -> error "rewrite error: %s" msg
  | Eval.Eval_error msg -> error "evaluation error: %s" msg
  | Expr_eval.Eval_error msg -> error "evaluation error: %s" msg
  | Rule_parser.Rule_parse_error e ->
    error "rule error: %s" (Rule_parser.error_to_string e)

let plan_select ?(parse_s = 0.) s (sel : Ast.select) : plan =
  let translated, rewritten, stats, guards, translate_s, rewrite_s =
    let t0 = Obs.now () in
    let translated =
      Obs.span ~cat:"pipeline" "translate" (fun () -> Translate.select s.cat sel)
    in
    let t1 = Obs.now () in
    if not s.rewriting then
      (translated, translated, Engine.fresh_stats (), [], t1 -. t0, 0.)
    else begin
      let stats = Engine.fresh_stats () in
      let program =
        if s.adaptive then
          Optimizer.program ~config:(Optimizer.adaptive_config translated) ()
        else s.rule_program
      in
      (* a template is planned with its literals: the rewrite reads
         them through guards *)
      let ctx = make_ctx ~params:(Template.values sel) s in
      let rewritten =
        Obs.span ~cat:"pipeline" "rewrite" (fun () ->
            Optimizer.rewrite ~program ~stats ctx translated)
      in
      (translated, rewritten, stats, Engine.guards ctx, t1 -. t0, Obs.now () -. t1)
    end
  in
  Metrics.Histogram.observe m_translate translate_s;
  Metrics.Histogram.observe m_rewrite rewrite_s;
  s.last_rewrite_stats <- Some stats;
  { translated; rewritten; rewrite_stats = stats; guards; parse_s; translate_s;
    rewrite_s }

let snapshot_db s = Database.snapshot s.db
let data_generation s = Database.data_generation s.db

let run_plan ?stats ?db ?deadline s rel =
  let db = Option.value db ~default:s.db in
  wrap_errors (fun () ->
      Eval.run ~physical:s.physical ?stats ~fix_cache:s.fix_cache ?deadline db
        rel)

let estimate s rel =
  let card name =
    Option.map Relation.cardinality (Database.relation_opt s.db name)
  in
  Eds_lera.Cost.estimate ~relation_cardinality:card (Catalog.schema_env s.cat) rel

let mviews s = s.mviews
let mv_stats s = Materializer.stats s.mviews

let fix_cache_stats s =
  (Eval.Shared_fix_cache.size s.fix_cache,
   Eval.Shared_fix_cache.invalidations s.fix_cache)

(* Install a base-relation change together with every maintained
   materialized extent under one publish: readers (and the plan cache,
   which keys on the data generation) see the statement atomically. *)
let apply_dml ?deadline s ~table ~before ~after =
  let updates =
    Materializer.apply s.mviews ~physical:s.physical ?deadline
      ~recompute_cost:(fun rel -> (estimate s rel).Eds_lera.Cost.cost)
      s.db ~table ~before ~after
  in
  Database.replace_many s.db updates

(* the plan halves of an EXPLAIN report, shaped like the REPL's
   .explain output so both surfaces read the same *)
let render_plan s (p : plan) =
  let buf = Buffer.create 256 in
  let ppf = Fmt.with_buffer buf in
  let side label rel =
    if Lera.operator_count rel <= 3 then
      Fmt.pf ppf "%s: %a@.            (%a)@." label Lera.pp rel Eds_lera.Cost.pp
        (estimate s rel)
    else
      Fmt.pf ppf "%s: (%a)@.%a" label Eds_lera.Cost.pp (estimate s rel)
        Lera.pp_tree rel
  in
  side "translated" p.translated;
  side "rewritten " p.rewritten;
  Fmt.pf ppf "rewriting : %a@." Engine.pp_stats p.rewrite_stats;
  Fmt.flush ppf ();
  Buffer.contents buf

(* EXPLAIN ANALYZE labels scans of materialized extents [mview:NAME] so
   a plan reading a stored extent is distinguishable from a base scan *)
let rec tag_mv_scans s (r : Eval.node_report) : Eval.node_report =
  let op =
    match String.index_opt r.Eval.op ':' with
    | Some i
      when String.sub r.Eval.op 0 i = "base"
           && Materializer.is_view s.mviews
                (String.sub r.Eval.op (i + 1) (String.length r.Eval.op - i - 1))
      ->
      "mview:" ^ String.sub r.Eval.op (i + 1) (String.length r.Eval.op - i - 1)
    | _ -> r.Eval.op
  in
  { r with Eval.op; Eval.children = List.map (tag_mv_scans s) r.Eval.children }

let render_analyze s (p : plan) (report : Eval.node_report) rel ~exec_s
    ~(stats : Eval.stats) =
  let report = tag_mv_scans s report in
  let buf = Buffer.create 512 in
  let ppf = Fmt.with_buffer buf in
  Fmt.pf ppf "EXPLAIN ANALYZE (physical=%s)@."
    (Eval.Physical.to_string s.physical);
  Eval.pp_report ppf report;
  Fmt.pf ppf
    "planning : parse %.3fms  translate %.3fms  rewrite %.3fms (%a)@."
    (p.parse_s *. 1000.) (p.translate_s *. 1000.) (p.rewrite_s *. 1000.)
    Engine.pp_stats p.rewrite_stats;
  Fmt.pf ppf "execution: %.3fms, %d tuple%s@." (exec_s *. 1000.)
    (Relation.cardinality rel)
    (if Relation.cardinality rel = 1 then "" else "s");
  Fmt.pf ppf "work     : %a@." Eval.pp_stats stats;
  Fmt.flush ppf ();
  Buffer.contents buf

let exec ?deadline s (stmt : Ast.stmt) : result =
  wrap_errors @@ fun () ->
  Metrics.Counter.incr m_statements;
  let parse_s = s.last_parse_s in
  s.last_parse_s <- 0.;
  match stmt with
  | Ast.Create_type _ | Ast.Create_view { materialized = false; _ } ->
    Catalog.apply_ddl s.cat stmt;
    sync s;
    invalidate_plans s;
    Done
  | Ast.Create_view { name; materialized = true; _ } ->
    (* declare, translate the definition by expansion, then store and
       maintain the extent; once the schema is recorded, queries (and
       later view definitions) read the view as a stored base relation *)
    Catalog.apply_ddl s.cat stmt;
    let v =
      match Catalog.view s.cat name with
      | Some v -> v
      | None -> error "materialized view %s failed to register" name
    in
    let plan, schema = Translate.view_plan s.cat v in
    Catalog.set_view_schema s.cat name schema;
    Materializer.register s.mviews ~name ~plan ~schema;
    ignore
      (Obs.span ~cat:"pipeline" "materialize" (fun () ->
           Materializer.initialize s.mviews ~physical:s.physical ?deadline
             s.db name));
    sync s;
    invalidate_plans s;
    Done
  | Ast.Refresh name -> (
    match
      Obs.span ~cat:"pipeline" "materialize" (fun () ->
          Materializer.refresh s.mviews ~physical:s.physical ?deadline s.db
            name)
    with
    | Some _ -> Done
    | None -> error "unknown materialized view %s" name)
  | Ast.Create_table { name; columns } ->
    let schema = Catalog.declare_table s.cat ~name columns in
    Database.add_relation s.db name (Relation.empty schema);
    sync s;
    invalidate_plans s;
    Done
  | Ast.Insert { table; values } -> (
    match Catalog.table s.cat table with
    | None -> error "unknown table %s" table
    | Some schema ->
      if List.length values <> Schema.arity schema then
        error "INSERT into %s: %d values for %d columns" table (List.length values)
          (Schema.arity schema);
      let tuple =
        List.map2
          (fun (_, ty) e -> Translate.expr_to_value ~expected:ty s.cat e)
          schema values
      in
      let before = Database.relation s.db table in
      let after = Relation.make schema (tuple :: before.Relation.tuples) in
      apply_dml ?deadline s ~table ~before ~after;
      Inserted 1)
  | Ast.Delete { table; where } -> (
    match Catalog.table s.cat table with
    | None -> error "unknown table %s" table
    | Some schema ->
      let qual =
        match where with
        | None -> Lera.tru
        | Some w -> fst (Translate.expr_over_table s.cat ~table w)
      in
      let rel = Database.relation s.db table in
      let keep, drop =
        List.partition
          (fun tup -> not (Expr_eval.eval_bool s.db ~inputs:[ tup ] qual))
          rel.Relation.tuples
      in
      apply_dml ?deadline s ~table ~before:rel ~after:(Relation.make schema keep);
      Deleted (List.length drop))
  | Ast.Update { table; assignments; where } -> (
    match Catalog.table s.cat table with
    | None -> error "unknown table %s" table
    | Some schema ->
      let qual =
        match where with
        | None -> Lera.tru
        | Some w -> fst (Translate.expr_over_table s.cat ~table w)
      in
      let resolved =
        List.map
          (fun (col, e) ->
            let lc = String.lowercase_ascii col in
            match
              List.find_index (fun (n, _) -> String.lowercase_ascii n = lc) schema
            with
            | Some idx -> (idx, fst (Translate.expr_over_table s.cat ~table e))
            | None -> error "table %s has no column %s" table col)
          assignments
      in
      let touched = ref 0 in
      let update tup =
        if Expr_eval.eval_bool s.db ~inputs:[ tup ] qual then begin
          incr touched;
          List.mapi
            (fun idx v ->
              match List.assoc_opt idx resolved with
              | Some e -> Expr_eval.eval s.db ~inputs:[ tup ] e
              | None -> v)
            tup
        end
        else tup
      in
      let rel = Database.relation s.db table in
      apply_dml ?deadline s ~table ~before:rel
        ~after:(Relation.make schema (List.map update rel.Relation.tuples));
      Updated !touched)
  | Ast.Select_stmt sel ->
    let plan = plan_select ~parse_s s sel in
    let t0 = Obs.now () in
    let rel =
      Obs.span ~cat:"pipeline" "execute" (fun () ->
          Eval.run ~physical:s.physical ~fix_cache:s.fix_cache ?deadline s.db
            plan.rewritten)
    in
    Metrics.Histogram.observe m_execute (Obs.now () -. t0);
    Rows rel
  | Ast.Explain { analyze; query } ->
    let plan = plan_select ~parse_s s query in
    if not analyze then Report (render_plan s plan)
    else begin
      let stats = Eval.fresh_stats () in
      let t0 = Obs.now () in
      let rel, report =
        Obs.span ~cat:"pipeline" "execute" (fun () ->
            Eval.run_analyzed ~physical:s.physical ~stats
              ~fix_cache:s.fix_cache ?deadline s.db plan.rewritten)
      in
      let exec_s = Obs.now () -. t0 in
      Metrics.Histogram.observe m_execute exec_s;
      Report (render_analyze s plan report rel ~exec_s ~stats)
    end

let exec_string ?deadline s input =
  wrap_errors (fun () ->
      let t0 = Obs.now () in
      let stmt =
        Obs.span ~cat:"pipeline" "parse" (fun () -> Parser.parse_stmt input)
      in
      let parse_s = Obs.now () -. t0 in
      Metrics.Histogram.observe m_parse parse_s;
      s.last_parse_s <- parse_s;
      exec ?deadline s stmt)

let exec_script s input =
  wrap_errors (fun () -> List.map (exec s) (Parser.parse_program input))

let query s input =
  match exec_string s input with
  | Rows rel -> rel
  | Done | Inserted _ | Deleted _ | Updated _ | Report _ ->
    error "expected a SELECT statement"

let parse_select input =
  wrap_errors @@ fun () ->
  let t0 = Obs.now () in
  let stmt =
    Obs.span ~cat:"pipeline" "parse" (fun () -> Parser.parse_stmt input)
  in
  let parse_s = Obs.now () -. t0 in
  Metrics.Histogram.observe m_parse parse_s;
  match stmt with
  | Ast.Select_stmt sel | Ast.Explain { query = sel; _ } -> (sel, parse_s)
  | _ -> error "EXPLAIN expects a SELECT statement"

let plan_ast ?parse_s s sel = wrap_errors (fun () -> plan_select ?parse_s s sel)

let explain s input =
  let sel, parse_s = parse_select input in
  plan_ast ~parse_s s sel

let last_rewrite_stats s = s.last_rewrite_stats
let count_statement () = Metrics.Counter.incr m_statements

(* STATS RESET / .stats reset: zero the registry's cumulative counters;
   the generations (plan + data epochs) are integrity markers and survive *)
let reset_stats s =
  s.last_rewrite_stats <- None;
  Metrics.reset_values ()

(* -- DBI extension surface ---------------------------------------------- *)

let add_integrity_constraint s text =
  wrap_errors @@ fun () ->
  let c = Optimizer.parse_integrity_constraint text in
  s.semantic_constraints <- s.semantic_constraints @ [ c ];
  invalidate_plans s

let use_enum_domains s =
  s.semantic_constraints <-
    s.semantic_constraints @ Optimizer.enum_domain_constraints (Catalog.types s.cat);
  invalidate_plans s

let add_rules s ~block ?(limit = None) text =
  wrap_errors @@ fun () ->
  let rules = Rule_parser.parse_rules text in
  let blocks = s.rule_program.Rule.blocks in
  let extended =
    if List.exists (fun b -> b.Rule.block_name = block) blocks then
      List.map
        (fun b ->
          if b.Rule.block_name = block then { b with Rule.rules = b.Rule.rules @ rules }
          else b)
        blocks
    else blocks @ [ { Rule.block_name = block; rules; limit } ]
  in
  s.rule_program <- { s.rule_program with Rule.blocks = extended };
  invalidate_plans s;
  (* §4.2: warn the DBI when a new rule may loop under the block's limit *)
  List.iter
    (fun w ->
      Logs.warn (fun m ->
          m "%a" Eds_rewriter.Rule_analysis.pp_warning w))
    (Eds_rewriter.Rule_analysis.check_program s.rule_program)

let set_program s program =
  s.rule_program <- program;
  invalidate_plans s

let program s = s.rule_program

let check_program s = Eds_rewriter.Rule_analysis.check_program s.rule_program

let register_function s entry =
  Catalog.set_adts s.cat (Adt.register (Catalog.adts s.cat) entry);
  sync s;
  invalidate_plans s

let register_method s name fn =
  s.extra_methods <- (name, fn) :: s.extra_methods;
  invalidate_plans s

let new_object s v = Database.new_object s.db v
