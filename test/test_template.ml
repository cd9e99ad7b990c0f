(* Tests for generic plans: literal erasure and template keys, opaque
   parameters through translation and the term bridge, the vetoes of the
   value-reading rewrite built-ins, and the planner's template entries
   (generic, custom-only, pinned), their sweeping and their races. *)

module Value = Eds_value.Value
module Vtype = Eds_value.Vtype
module Term = Eds_term.Term
module Lera = Eds_lera.Lera
module Lera_term = Eds_lera.Lera_term
module Relation = Eds_engine.Relation
module Database = Eds_engine.Database
module Eval = Eds_engine.Eval
module Catalog = Eds_esql.Catalog
module Template = Eds_esql.Template
module Engine = Eds_rewriter.Engine
module Methods = Eds_rewriter.Methods
module Magic = Eds_rewriter.Magic
module Optimizer = Eds_rewriter.Optimizer
module Rule = Eds_rewriter.Rule
module Subst = Eds_term.Subst
module Metrics = Eds_obs.Metrics
module Session = Eds.Session
module Plan_cache = Eds_server.Plan_cache
module Planner = Eds_server.Planner
module Server = Eds_server.Server
module Client = Eds_server.Client
module Protocol = Eds_server.Protocol
module Gen = Eds_rulelab.Gen

let rel = Alcotest.testable Lera.pp Lera.equal

let origin =
  Alcotest.testable
    (fun ppf o -> Fmt.string ppf (match o with `Hit -> "hit" | `Miss -> "miss"))
    ( = )

let session_of script =
  let s = Session.create () in
  ignore (Session.exec_script s script);
  s

let shop () =
  session_of
    {|
  TYPE Color ENUMERATION OF ('Red', 'Green', 'Blue') ;
  TABLE ITEM (Idi : INT, Label : CHAR, Hue : Color, Price : INT) ;
  INSERT INTO ITEM VALUES (1, 'ball', 'Red', 5) ;
  INSERT INTO ITEM VALUES (2, 'cube', 'Green', 7) ;
  INSERT INTO ITEM VALUES (3, 'cone', 'Red', 11) ;
  INSERT INTO ITEM VALUES (4, 'disc', 'Blue', 3) ;
|}

let contains ~affix s =
  let n = String.length affix and m = String.length s in
  let rec probe i = i + n <= m && (String.sub s i n = affix || probe (i + 1)) in
  n = 0 || probe 0

let template text = Template.erase (fst (Session.parse_select text))
let key text = Template.key (fst (template text))
let rows s text = (Session.query s text).Relation.tuples

(* -- templates ------------------------------------------------------------ *)

let test_erase_and_key () =
  let tmpl, values = template "SELECT Label FROM ITEM WHERE Idi = 1 AND Label = 'ball'" in
  Alcotest.(check (list string)) "literals by slot" [ "1"; "'ball'" ]
    (List.map Value.to_string (Array.to_list values));
  Alcotest.(check string) "slots replace literals"
    "SELECT Label FROM ITEM WHERE ((Idi = $1) and (Label = $2))"
    (Fmt.str "%a" Eds_esql.Ast.pp_select tmpl);
  let same a b = Alcotest.(check bool) (a ^ " ~ " ^ b) true (key a = key b) in
  let differ a b = Alcotest.(check bool) (a ^ " !~ " ^ b) false (key a = key b) in
  same "SELECT A FROM P WHERE A = 1" "SELECT A FROM P WHERE A = 2";
  same "SELECT A FROM P WHERE A = 'x'" "SELECT A FROM P WHERE A = 'y'";
  (* the slot type is part of the key *)
  differ "SELECT A FROM P WHERE A = 1" "SELECT A FROM P WHERE A = 1.5";
  differ "SELECT A FROM P WHERE A = 1" "SELECT A FROM P WHERE A = '1'";
  (* booleans, NULL and collection literals stay in the key *)
  differ "SELECT A FROM P WHERE A = 1 AND TRUE" "SELECT A FROM P WHERE A = 1 AND FALSE";
  differ "SELECT A FROM P WHERE A IN (1, 2)" "SELECT A FROM P WHERE A IN (1, 3)";
  differ "SELECT A FROM P WHERE A = 1" "SELECT B FROM P WHERE A = 1";
  (* pinning a slot puts its exact value back *)
  let tmpl, _ = template "SELECT A FROM P WHERE A = 0.1" in
  let tmpl', _ = template "SELECT A FROM P WHERE A = 0.1000000001" in
  Alcotest.(check bool) "pinned reals keep every bit" false
    (Template.key (Template.pin [ 1 ] tmpl) = Template.key (Template.pin [ 1 ] tmpl'))

let test_param_round_trip () =
  let p = Lera.Param (2, Vtype.String) in
  let plan =
    Lera.Search
      ([ Lera.Base "ITEM" ], Lera.conj [ Lera.eq (Lera.col 1 2) p ], [ Lera.col 1 1 ])
  in
  Alcotest.check rel "through the term bridge" plan
    (Lera_term.of_term (Lera_term.to_term plan));
  Alcotest.(check bool) "encoded as an opaque nullary term" true
    (Lera_term.is_param (Lera_term.scalar_to_term p));
  Alcotest.(check (list int)) "params" [ 2 ] (Lera.params plan);
  Alcotest.check rel "bind"
    (Lera.Search
       ( [ Lera.Base "ITEM" ],
         Lera.conj [ Lera.eq (Lera.col 1 2) (Lera.Cst (Value.Str "cube")) ],
         [ Lera.col 1 1 ] ))
    (Lera.bind [| Value.Int 0; Value.Str "cube" |] plan)

let test_enum_literal_stays_literal () =
  let s = shop () in
  let tmpl, _ = template "SELECT Label FROM ITEM WHERE Hue = 'Red' AND Price > 4" in
  let p = Session.plan_ast s tmpl in
  Alcotest.(check (list int)) "the coerced slot is no parameter" [ 2 ]
    (Lera.params p.Session.translated);
  Alcotest.check rel "it translated to the enumeration constant"
    (Session.explain s "SELECT Label FROM ITEM WHERE Hue = 'Red' AND Price > 4")
      .Session.translated
    (Lera.bind [| Value.Str "ignored"; Value.Int 4 |] p.Session.translated);
  (* through the planner: the pinned literal joins the key *)
  let planner = Planner.create s in
  let run text = Planner.execute planner text in
  let check text =
    let r, o = run text in
    Alcotest.(check (list (list string))) text
      (List.map (List.map Value.to_string) (rows (shop ()) text))
      (List.map (List.map Value.to_string) r.Relation.tuples);
    o
  in
  Alcotest.check origin "first" `Miss
    (check "SELECT Label FROM ITEM WHERE Hue = 'Red' AND Price > 4");
  Alcotest.check origin "another hue plans" `Miss
    (check "SELECT Label FROM ITEM WHERE Hue = 'Green' AND Price > 1");
  Alcotest.check origin "same hue, new bound: generic" `Hit
    (check "SELECT Label FROM ITEM WHERE Hue = 'Red' AND Price > 6");
  (* a label outside the domain is detected per literal, never shared *)
  Session.use_enum_domains s;
  Alcotest.check origin "domains bump the generation" `Miss
    (check "SELECT Label FROM ITEM WHERE Hue = 'Purple' AND Price > 1");
  ignore (check "SELECT Label FROM ITEM WHERE Hue = 'Blue' AND Price > 1")

(* -- guards: a built-in reads a parameter and records the read ------------ *)

let ctx ?params s = Optimizer.make_ctx ?params (Catalog.schema_env (Session.catalog s))

let item_env s =
  {
    Engine.top_env with
    Engine.input_schemas =
      Some [ Eds_esql.Translate.schema_of_name (Session.catalog s) "ITEM" ];
  }

let p1 = Lera_term.scalar_to_term (Lera.Param (1, Vtype.Int))
let p2 = Lera_term.scalar_to_term (Lera.Param (2, Vtype.Int))
let ps = Lera_term.scalar_to_term (Lera.Param (3, Vtype.String))
let col j = Term.app "@" [ Term.int 1; Term.int j ]
let int n = Term.Cst (Value.Int n)

let holds s t = Engine.eval_constraint (ctx s) Engine.top_env t

(* planning literals: $1 = 3, $2 = 3 *)
let literals = [| Value.Int 3; Value.Int 3 |]

(* a constraint's outcome under the planning literals, and the guards
   it recorded, rendered "op(a, b)=outcome" *)
let guarded ?(params = literals) s t =
  let c = ctx ~params s in
  let outcome = Engine.eval_constraint c Engine.top_env t in
  let show (g : Lera.guard) =
    let scalar x = Fmt.str "%a" Lera.pp_scalar x in
    Fmt.str "%s(%s, %s)=%b" g.Lera.op (scalar (fst g.Lera.args)) (scalar (snd g.Lera.args))
      g.Lera.outcome
  in
  (outcome, List.map show (Engine.guards c))

let check_guarded name want got =
  Alcotest.(check (pair bool (list string))) name want got

let test_guard_isa_constant () =
  let s = shop () in
  Alcotest.(check bool) "a constant is one" true
    (holds s (Term.app "isa" [ int 3; Term.var "constant" ]));
  (* a per-execution constant, whatever its value: nothing read *)
  check_guarded "a parameter is one, and reads nothing" (true, [])
    (guarded s (Term.app "isa" [ p1; Term.var "constant" ]));
  (* its type is no secret: it is part of the template key *)
  Alcotest.(check bool) "it has its literal's type" true
    (holds s (Term.app "isa" [ p1; Term.var "int" ]))

let test_guard_ground_comparison () =
  let s = shop () in
  Alcotest.(check bool) "constants compare" true (holds s (Term.app ">=" [ int 4; int 2 ]));
  check_guarded "constants record nothing" (true, [])
    (guarded s (Term.app ">=" [ int 4; int 2 ]));
  check_guarded "parameter vs constant" (true, [ ">=($1:INT, 2)=true" ])
    (guarded s (Term.app ">=" [ p1; int 2 ]));
  check_guarded "either side, a false outcome too" (false, [ "<(4, $1:INT)=false" ])
    (guarded s (Term.app "<" [ int 4; p1 ]));
  check_guarded "two parameters" (true, [ "=($1:INT, $2:INT)=true" ])
    (guarded s (Term.app "=" [ p1; p2 ]));
  check_guarded "a parameter with no literal fails and records nothing" (false, [])
    (guarded ~params:[||] s (Term.app ">=" [ p1; int 2 ]));
  (* the recorded guard repeats the read on other literals *)
  let adts = Eds_esql.Catalog.adts (Session.catalog s) in
  let g =
    {
      Lera.op = ">=";
      args = (Lera.Param (1, Vtype.Int), Lera.Cst (Value.Int 2));
      outcome = true;
    }
  in
  List.iter
    (fun (k, want) ->
      Alcotest.(check bool) (Fmt.str "$1 = %d" k) want
        (Lera.guard_holds adts [| Value.Int k |] g))
    [ (1, false); (2, true); (3, true) ];
  Alcotest.(check bool) "no literal: the guard fails" false (Lera.guard_holds adts [||] g)

let method_ name = List.assoc name Methods.all

let test_veto_evaluate () =
  let s = shop () in
  let run e =
    method_ "evaluate" (ctx s) Engine.top_env Subst.empty [ e; Term.var "out" ]
  in
  Alcotest.(check bool) "constants fold" true
    (Option.is_some (run (Term.app "+" [ int 1; int 2 ])));
  Alcotest.(check bool) "a parameter argument vetoes" true
    (Option.is_none (run (Term.app "+" [ p1; int 2 ])));
  Alcotest.(check bool) "a bare parameter vetoes" true (Option.is_none (run p1))

let test_veto_const_fold () =
  let s = shop () in
  let program =
    {
      Rule.blocks =
        [
          {
            Rule.block_name = "fold";
            rules = [ Eds_rewriter.Rulesets.find "const_fold" ];
            limit = None;
          };
        ];
      rounds = 1;
    }
  in
  let rewrite t = Optimizer.rewrite_term ~program (ctx s) t in
  Alcotest.(check bool) "folds constants" true
    (Term.equal (int 3) (rewrite (Term.app "+" [ int 1; int 2 ])));
  let t = Term.app "+" [ p1; int 2 ] in
  Alcotest.(check bool) "leaves a parameter sum alone" true (Term.equal t (rewrite t))

let test_veto_not_in_domain () =
  let s = shop () in
  let env = item_env s in
  let check name expected t =
    Alcotest.(check bool) name expected (Engine.eval_constraint (ctx s) env t)
  in
  check "a constant outside the domain" true
    (Term.app "not_in_domain" [ Term.Cst (Value.Str "Purple"); col 3 ]);
  check "a parameter vetoes" false (Term.app "not_in_domain" [ ps; col 3 ])

let test_guard_distinct_notin () =
  let s = shop () in
  let distinct ?params a b = guarded ?params s (Term.app "distinct" [ a; b ]) in
  let notin ?params a ms = guarded ?params s (Term.app "notin" (a :: ms)) in
  check_guarded "constants" (true, []) (distinct (int 1) (int 2));
  check_guarded "two parameters holding one value" (false, [ "=($1:INT, $2:INT)=true" ])
    (distinct p1 p2);
  check_guarded "two parameters holding two values" (true, [ "=($1:INT, $2:INT)=false" ])
    (distinct ~params:[| Value.Int 3; Value.Int 4 |] p1 p2);
  check_guarded "a parameter and a constant" (true, [ "=($1:INT, 2)=false" ])
    (distinct p1 (int 2));
  check_guarded "a parameter never equals a column: nothing read" (true, [])
    (distinct p1 (col 1));
  check_guarded "same parameter: nothing read" (false, []) (distinct p1 p1);
  let eq a b = Term.app "=" [ a; b ] in
  check_guarded "notin: the parameters hold one value" (false, [ "=($1:INT, $2:INT)=true" ])
    (notin (eq (col 1) p1) [ eq (col 1) p2 ]);
  check_guarded "notin: settled by a column" (true, [])
    (notin (eq (col 1) p1) [ eq (col 2) p2 ]);
  check_guarded "notin: a differing constant settles it unread" (true, [])
    (notin (eq p1 (int 1)) [ eq p2 (int 2) ]);
  check_guarded "notin: without parameters, plain equality" (true, [])
    (notin (eq (col 1) (int 1)) [ eq (col 1) (int 2) ])

let test_magic_accepts_parameter () =
  let p = Lera.Param (1, Vtype.Int) in
  let qual =
    Lera.conj
      [
        Lera.eq (Lera.col 1 1) p;
        Lera.Call (">", [ Lera.col 1 2; Lera.Param (2, Vtype.Int) ]);
      ]
  in
  Alcotest.(check int) "bound by the parameter" 1
    (List.length (Magic.adornment qual ~slot:1 ~arity:2));
  (* REACH-style: the template gets magic seeding like its bindings *)
  let s =
    session_of
      {|
    TABLE EDGE (Src : INT, Dst : INT) ;
    INSERT INTO EDGE VALUES (1, 2) ; INSERT INTO EDGE VALUES (2, 3) ;
    CREATE VIEW REACH (Src, Dst) AS ( SELECT Src, Dst FROM EDGE UNION
      SELECT E1.Src, E2.Dst FROM REACH E1, REACH E2 WHERE E1.Dst = E2.Src ) ;
|}
  in
  let tmpl, values = template "SELECT Dst FROM REACH WHERE Src = 1 AND Dst > 1" in
  let generic = (Session.plan_ast s tmpl).Session.rewritten in
  Alcotest.(check bool) "magic fixpoint in the generic plan" true
    (contains ~affix:"_magic" (Lera.to_string generic));
  Alcotest.check rel "bound generic = custom"
    (Session.explain s "SELECT Dst FROM REACH WHERE Src = 1 AND Dst > 1").Session.rewritten
    (Lera.bind values generic)

(* -- the planner ----------------------------------------------------------- *)

let strings rel = List.map (List.map Value.to_string) rel.Relation.tuples

let counter_delta f =
  let templates kind =
    Test_metrics.total ~labels:[ ("kind", kind) ] "eds_plan_cache_templates"
  in
  let hits () = Test_metrics.total "eds_plan_cache_template_hits_total" in
  let g0 = templates "generic" and c0 = templates "custom" and h0 = hits () in
  f ();
  (templates "generic" - g0, templates "custom" - c0, hits () - h0)

let test_generic_equals_custom () =
  let s = shop () in
  let planner = Planner.create s in
  let text = "SELECT Label FROM ITEM WHERE Idi > 1 AND Price < 10" in
  let generic, custom, hits =
    counter_delta (fun () ->
        let plan, o = Planner.plan planner text in
        Alcotest.check origin "cold" `Miss o;
        (* the entry was stored because this request's bound plan is the
           custom plan, exactly *)
        Alcotest.check rel "first binding = custom plan"
          (Session.explain s text).Session.rewritten plan;
        let other = "SELECT Label FROM ITEM WHERE Idi > 2 AND Price < 6" in
        let plan', o' = Planner.plan planner other in
        Alcotest.check origin "literal-distinct text hits the template" `Hit o';
        Alcotest.check rel "and binds its own literals"
          (Session.explain s other).Session.rewritten plan')
  in
  Alcotest.(check (triple int int int)) "one generic template, one hit" (1, 0, 1)
    (generic, custom, hits);
  (* the template's bound plan is also remembered under the text *)
  let _, o = Planner.plan planner "SELECT Label FROM ITEM WHERE Idi > 2 AND Price < 6" in
  Alcotest.check origin "repeat text" `Hit o

(* A view bound subsumes the query's bound only for some literals (the
   V8 shape): [subsume_gt] keeps the stronger bound, and which one that
   is depends on the literal.  Each side of the view bound plans one
   guarded variant; every later binding is served by its side's
   variant, correctly on both sides and on the bound itself. *)
let test_subsumption_guarded_variants () =
  let script =
    {|
    TABLE P (A : INT, B : INT) ;
    INSERT INTO P VALUES (1, 10) ; INSERT INTO P VALUES (3, 30) ;
    INSERT INTO P VALUES (5, 50) ; INSERT INTO P VALUES (8, 80) ;
    CREATE VIEW V (A, B) AS SELECT A, B FROM P WHERE A > 4 ;
|}
  in
  let s = session_of script in
  let planner = Planner.create s in
  let generic, custom, hits =
    counter_delta (fun () ->
        List.iter
          (fun (k, want) ->
            let text = Fmt.str "SELECT B FROM V WHERE A > %d" k in
            let plan, o = Planner.plan planner text in
            Alcotest.check origin text want o;
            Alcotest.check rel (text ^ ": the custom plan")
              (Session.explain s text).Session.rewritten plan;
            Alcotest.(check (list (list string))) text
              (strings (Session.query (session_of script) text))
              (strings (Session.run_plan s plan)))
          (* 2 plans the "view bound is stronger" side, 7 the other;
             the bound itself and both sides then hit *)
          [ (2, `Miss); (7, `Miss); (4, `Hit); (5, `Hit); (0, `Hit) ])
  in
  Alcotest.(check (triple int int int)) "one variant per side, no custom-only template"
    (2, 0, 3) (generic, custom, hits)

let test_generation_sweeps_templates () =
  let s = shop () in
  let planner = Planner.create s in
  let text k = Fmt.str "SELECT Label FROM ITEM WHERE Price > %d" k in
  ignore (Planner.plan planner (text 1));
  let _, o = Planner.plan planner (text 2) in
  Alcotest.check origin "template hit" `Hit o;
  let size () = (Planner.cache_stats planner).Plan_cache.size in
  let swept =
    let s0 = Test_metrics.total "eds_plan_cache_swept_total" in
    fun () -> Test_metrics.total "eds_plan_cache_swept_total" - s0
  in
  Alcotest.(check int) "template + remembered text" 2 (size ());
  ignore (Session.exec_string s "TABLE OTHER (X : INT)");
  let _, o = Planner.plan planner (text 3) in
  Alcotest.check origin "DDL: the template is gone" `Miss o;
  Alcotest.(check int) "both swept" 2 (swept ());
  Alcotest.(check int) "only the new template lives" 1 (size ());
  Session.add_rules s ~block:"shop" "cheap: @(1,4) < 1000 --> true ;";
  let _, o = Planner.plan planner (text 4) in
  Alcotest.check origin "add_rules: the template is gone" `Miss o;
  Alcotest.(check int) "swept again" 3 (swept ())

(* Two threads miss one cold template with different literals; the
   exclusive section lets both in only after both missed.  The template
   plans once: the second thread binds the first one's generic plan. *)
let test_race_plans_template_once () =
  let s = shop () in
  let planner = Planner.create s in
  let arrived = Atomic.make 0 and lock = Mutex.create () in
  let exclusive f =
    Atomic.incr arrived;
    let t0 = Unix.gettimeofday () in
    while Atomic.get arrived < 2 && Unix.gettimeofday () -. t0 < 5. do
      Thread.yield ()
    done;
    Mutex.lock lock;
    Fun.protect ~finally:(fun () -> Mutex.unlock lock) f
  in
  let rewrites () =
    match
      Metrics.find_sample ~labels:[ ("phase", "rewrite") ] "eds_phase_duration_seconds"
    with
    | Some { Metrics.value = Metrics.Histogram_v h; _ } -> Metrics.Histogram.count h
    | _ -> 0
  in
  let r0 = rewrites () in
  let results = Array.make 2 (`Hit, []) in
  let generic, custom, _ =
    counter_delta (fun () ->
        let threads =
          List.init 2 (fun i ->
              Thread.create
                (fun () ->
                  let text = Fmt.str "SELECT Label FROM ITEM WHERE Price > %d" (4 + i) in
                  let r, o = Planner.execute ~exclusive planner text in
                  results.(i) <- (o, strings r))
                ())
        in
        List.iter Thread.join threads)
  in
  Alcotest.(check int) "both reached the exclusive section" 2 (Atomic.get arrived);
  Alcotest.(check (pair int int)) "one template" (1, 0) (generic, custom);
  Alcotest.(check int) "planned once: one generic + one custom rewrite" 2
    (rewrites () - r0);
  List.iteri
    (fun i (o, got) ->
      let text = Fmt.str "SELECT Label FROM ITEM WHERE Price > %d" (4 + i) in
      Alcotest.check origin "both missed" `Miss o;
      Alcotest.(check (list (list string)))
        text (strings (Session.query (shop ()) text)) got)
    (Array.to_list results)

let test_program_parsed_once () =
  let a = Optimizer.program () and b = Optimizer.program () in
  List.iter2
    (fun (x : Rule.block) (y : Rule.block) ->
      Alcotest.(check bool) (x.Rule.block_name ^ " shares its rules") true
        (x.Rule.rules == y.Rule.rules))
    a.Rule.blocks b.Rule.blocks;
  Alcotest.(check bool) "find reads the parsed packs" true
    (List.memq (Eds_rewriter.Rulesets.find "const_fold")
       (Eds_rewriter.Rulesets.simplification ()))

(* -- observability --------------------------------------------------------- *)

(* PROM samples as (family, labels, value); histogram series are
   skipped (no table row reads one) *)
let prom_samples text =
  List.filter_map
    (fun line ->
      match String.rindex_opt line ' ' with
      | _ when line = "" || line.[0] = '#' -> None
      | None -> None
      | Some i ->
          let series = String.sub line 0 i in
          let value = float_of_string (String.sub line (i + 1) (String.length line - i - 1)) in
          let name, labels =
            match String.index_opt series '{' with
            | None -> (series, [])
            | Some j ->
                let body = String.sub series (j + 1) (String.length series - j - 2) in
                ( String.sub series 0 j,
                  List.map
                    (fun kv ->
                      match String.split_on_char '=' kv with
                      | [ k; v ] -> (k, String.sub v 1 (String.length v - 2))
                      | _ -> Alcotest.failf "label %S" kv)
                    (String.split_on_char ',' body) )
          in
          Some (name, labels, value))
    (String.split_on_char '\n' text)

(* the integers of a STATS line after its label, in order *)
let stats_ints stats label =
  match
    List.find_opt
      (fun l -> String.starts_with ~prefix:label l)
      (String.split_on_char '\n' stats)
  with
  | None -> Alcotest.failf "STATS has no %S line" label
  | Some l ->
      let body = String.sub l (String.index l ':' + 1) (String.length l - String.index l ':' - 1) in
      List.filter_map int_of_string_opt
        (String.split_on_char ' '
           (String.map (function ',' | '/' | '(' | ')' -> ' ' | c -> c) body))

let test_stats_metrics_match_prom () =
  (* the shop, served with a WAL so the wal.* rows are rendered too *)
  let db = Filename.temp_file "eds_template_wal" ".esql" in
  Eds.Storage.save (shop ()) db;
  let s, wal, _ = Eds.Wal.Manager.recover ~sync:false ~db () in
  let srv = Server.start ~wal ~config:{ Server.default_config with Server.port = 0 } s in
  Fun.protect
    ~finally:(fun () ->
      Server.stop srv;
      Eds.Wal.Manager.close wal;
      List.iter Sys.remove [ db; Eds.Wal.Manager.wal_path db ])
    (fun () ->
      let c = Client.connect (Server.port srv) in
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          let ask line =
            match Client.request c line with
            | Protocol.Ok, payload -> payload
            | _, payload -> Alcotest.failf "%s: %s" line payload
          in
          let hits0 = Server.metric srv "server.plan_cache.hits" in
          ignore (ask "INSERT INTO ITEM VALUES (5, 'rod', 'Blue', 9)");
          (* an error, so the errors and timeouts rows differ *)
          ignore (Client.request c "SELECT FROM");
          List.iter
            (fun k -> ignore (ask (Fmt.str "SELECT Label FROM ITEM WHERE Price > %d" k)))
            [ 1; 2; 3 ];
          let stats = ask "STATS" in
          let json =
            match Eds_obs.Obs.Json.parse (String.trim (ask "METRICS")) with
            | Ok j -> j
            | Error e -> Alcotest.failf "METRICS: %s" e
          in
          let prom = prom_samples (ask "METRICS PROM") in
          let prom_value (_, family, labels) =
            List.fold_left
              (fun acc (name, ls, v) ->
                if name = family && List.for_all (fun l -> List.mem l ls) labels then
                  acc +. v
                else acc)
              0. prom
          in
          let row key = List.find (fun (k, _, _) -> k = key) Server.table in
          let prom_int key = int_of_float (prom_value (row key)) in
          let stats_line =
            List.find
              (fun l -> String.starts_with ~prefix:"plan templates" l)
              (String.split_on_char '\n' stats)
          in
          let hits, generic, custom =
            Scanf.sscanf stats_line
              "plan templates : %d template hits, %d generic, %d custom-only"
              (fun a b c -> (a, b, c))
          in
          let json_int k =
            match Eds_obs.Obs.Json.member k json with
            | Some v -> Option.get (Eds_obs.Obs.Json.to_int v)
            | None -> Alcotest.failf "%s missing from METRICS" k
          in
          let hits_p = prom_int "server.plan_cache.template_hits" in
          let generic_p = prom_int "server.plan_cache.templates_generic" in
          let custom_p = prom_int "server.plan_cache.templates_custom" in
          Alcotest.(check bool) "template hits happened" true (hits_p >= 2);
          Alcotest.(check int) "STATS template hits" hits_p hits;
          Alcotest.(check int) "STATS generic" generic_p generic;
          Alcotest.(check int) "STATS custom" custom_p custom;
          Alcotest.(check int) "METRICS template hits" hits_p
            (json_int "server.plan_cache.template_hits");
          Alcotest.(check int) "METRICS generic" generic_p
            (json_int "server.plan_cache.templates_generic");
          Alcotest.(check int) "METRICS custom" custom_p
            (json_int "server.plan_cache.templates_custom");
          Alcotest.(check int) "template hits count as hits" 2
            (json_int "server.plan_cache.hits" - int_of_float hits0);
          (* Every row: the METRICS value equals its PROM sample.  Each
             request counts itself once answered, so the METRICS PROM
             request sees one more ok query than METRICS, and two more
             than STATS. *)
          let answered_since key n = if key = "server.queries.ok" then n else 0 in
          List.iter
            (fun ((key, _, _) as r) ->
              if String.ends_with ~suffix:"_s" key then
                Alcotest.(check (float 1.)) ("METRICS " ^ key) (prom_value r)
                  (match Eds_obs.Obs.Json.member key json with
                  | Some v -> Option.get (Eds_obs.Obs.Json.to_float v)
                  | None -> Alcotest.failf "%s missing from METRICS" key)
              else
                Alcotest.(check int) ("METRICS " ^ key)
                  (int_of_float (prom_value r) - answered_since key 1)
                  (json_int key))
            Server.table;
          (* every STATS line reading the table, integer by integer *)
          List.iter
            (fun (label, keys) ->
              Alcotest.(check (list int)) ("STATS " ^ label)
                (List.filter_map
                   (Option.map (fun key -> prom_int key - answered_since key 2))
                   keys)
                (List.filteri
                   (fun i _ -> Option.is_some (List.nth keys i))
                   (stats_ints stats label)))
            [
              ( "connections",
                List.map Option.some
                  [ "server.connections.active"; "server.connections.accepted";
                    "server.connections.refused" ] );
              ( "requests",
                List.map Option.some
                  [ "server.queries.ok"; "server.queries.errors"; "server.queries.timeouts" ] );
              ( "plan cache",
                List.map Option.some
                  [ "server.plan_cache.size"; "server.plan_cache.capacity";
                    "server.plan_cache.hits"; "server.plan_cache.misses";
                    "server.plan_cache.evictions"; "server.plan_cache.swept" ] );
              ( "plan templates",
                List.map Option.some
                  [ "server.plan_cache.template_hits"; "server.plan_cache.templates_generic";
                    "server.plan_cache.templates_custom" ] );
              ("plan generation", [ Some "session.generation" ]);
              ("data generation", [ Some "session.data_generation" ]);
              ("rwlock", [ Some "server.rwlock.write_acquired" ]);
              ("statements run", [ Some "session.statements_run" ]);
              ("eval combinations", [ Some "session.eval.combinations" ]);
              ("tuples read", [ Some "session.eval.tuples_read" ]);
              ("tuples produced", [ Some "session.eval.tuples_produced" ]);
              ("fixpoint iters", [ Some "session.eval.fix_iterations" ]);
              ("index probes", [ Some "session.eval.probes" ]);
              ("index builds", [ Some "session.eval.builds" ]);
              ( "fix-cache hit/miss",
                [ Some "session.eval.fix_cache_hits"; Some "session.eval.fix_cache_misses" ] );
              (* the invalidation count has no registry family *)
              ("fix-cache shared", [ Some "session.fix_cache.entries"; None ]);
              (* the WAL file's records, bytes and replay count are
                 instance state with no registry family *)
              ("wal ", [ None; None; Some "wal.epoch"; None ]);
              ("wal group commit", [ Some "wal.commits"; Some "wal.fsyncs" ]);
              ( "mat. views",
                List.map Option.some
                  [ "session.mviews.extents"; "session.mviews.maintenance_runs";
                    "session.mviews.fallback_recomputes"; "session.mviews.refreshes";
                    "session.mviews.delta_tuples" ] );
            ]))

(* -- differential: one planner vs a fresh naive session -------------------- *)

(* Rulelab's four relations and random instance, two views (a bound
   the query's bounds may subsume, a recursive closure) and queries
   built from Rulelab.Gen's atom kinds — column equalities, equality
   and [<] against constants — plus [>] bounds.  Each query shape is
   run with several re-drawn literal vectors through one shared
   planner, so most requests are template hits; every answer must equal
   the unrewritten naive evaluation row for row. *)
let relations =
  [
    ("R0", [ "A"; "B" ]); ("R1", [ "A"; "B" ]); ("R2", [ "A"; "B"; "C" ]);
    ("RV", [ "A"; "B"; "C" ]); ("TC", [ "Src"; "Dst" ]);
  ]

let setup =
  {|
  TABLE R0 (A : INT, B : INT) ;
  TABLE R1 (A : INT, B : INT) ;
  TABLE R2 (A : INT, B : INT, C : INT) ;
  TABLE EDGE (A : INT, B : INT) ;
  CREATE VIEW RV (A, B, C) AS SELECT A, B, C FROM R2 WHERE A > 2 ;
  CREATE VIEW TC (Src, Dst) AS ( SELECT A, B FROM EDGE UNION
    SELECT E1.Src, E2.Dst FROM TC E1, TC E2 WHERE E1.Dst = E2.Src ) ;
|}

let load_instance s db =
  List.iter
    (fun name ->
      List.iter
        (fun tup ->
          ignore
            (Session.exec_string s
               (Fmt.str "INSERT INTO %s VALUES (%s)" name
                  (String.concat ", " (List.map Value.to_string tup)))))
        (Database.relation db name).Relation.tuples)
    [ "R0"; "R1"; "R2"; "EDGE" ]

(* a query shape: text pieces with literal holes *)
type piece = Text of string | Hole

let gen_shape =
  let open QCheck2.Gen in
  int_range 1 2 >>= fun n ->
  list_repeat n (oneofl relations) >>= fun rels ->
  let cols =
    List.concat
      (List.mapi (fun i (_, cs) -> List.map (fun c -> Fmt.str "X%d.%s" (i + 1) c) cs) rels)
  in
  let col = oneofl cols in
  let atom =
    oneof
      [
        (col >>= fun a -> col >|= fun b -> [ Text (a ^ " = " ^ b) ]);
        (col >|= fun a -> [ Text (a ^ " = "); Hole ]);
        (col >|= fun a -> [ Text (a ^ " < "); Hole ]);
        (col >|= fun a -> [ Text (a ^ " > "); Hole ]);
      ]
  in
  list_size (int_range 1 3) atom >>= fun atoms ->
  list_size (int_range 1 2) col >|= fun proj ->
  let from =
    String.concat ", " (List.mapi (fun i (r, _) -> Fmt.str "%s X%d" r (i + 1)) rels)
  in
  [ Text (Fmt.str "SELECT %s FROM %s WHERE " (String.concat ", " proj) from) ]
  @ List.concat (List.mapi (fun i a -> if i = 0 then a else Text " AND " :: a) atoms)

let render shape lits =
  let lits = ref lits in
  String.concat ""
    (List.map
       (function
         | Text t -> t
         | Hole -> (
             match !lits with
             | v :: rest ->
                 lits := rest;
                 string_of_int v
             | [] -> "0"))
       shape)

let print_shape shape = render shape []

let prop_generic_plans_match_naive =
  let rand = Random.State.make [| 20_261_017 |] in
  let db = Gen.instance rand in
  let served = session_of setup in
  load_instance served db;
  let oracle = session_of setup in
  load_instance oracle db;
  Session.set_physical oracle Eval.Physical.Naive;
  Session.set_rewriting oracle false;
  let planner = Planner.create served in
  QCheck2.Test.make ~name:"generic plans ≡ naive, re-drawn literals" ~count:60
    ~print:(fun (shape, _) -> print_shape shape)
    QCheck2.Gen.(pair gen_shape (list_repeat 4 (list_repeat 4 (int_range 0 6))))
    (fun (shape, draws) ->
      List.for_all
        (fun lits ->
          let text = render shape lits in
          let got, _ = Planner.execute planner text in
          let want = Session.query oracle text in
          if got.Relation.tuples = want.Relation.tuples then true
          else QCheck2.Test.fail_reportf "%s: rows differ" text)
        draws)

(* -- guard completeness ------------------------------------------------------ *)

(* Templates whose qualifications compare columns with plan constants:
   view bounds (stacked two deep in GI2 and GM) over INT, NUMERIC and
   CHAR columns, under 1-3 query conjuncts [col op literal].  Literals
   are drawn equal to a plan constant, one step on either side of one,
   or at random, so every guard is met on both of its sides and on its
   boundary.  Every plan the planner serves — a variant's binding, a
   custom plan, an exact hit — must be the custom plan of its text, and
   its rows those of an unrewritten naive session. *)
let guarded_setup =
  String.concat ""
    ("TABLE G (I : INT, R : NUMERIC, S : CHAR) ;\n"
    :: List.init 14 (fun i ->
           Fmt.str "INSERT INTO G VALUES (%d, %.1f, '%c') ;\n" i (float_of_int i *. 0.5)
             (Char.chr (Char.code 'a' + (i * 7 mod 26)))))
  ^ {|
  CREATE VIEW GI (I, R, S) AS SELECT I, R, S FROM G WHERE I > 4 ;
  CREATE VIEW GI2 (I, R, S) AS SELECT I, R, S FROM GI WHERE I <= 9 ;
  CREATE VIEW GR (I, R, S) AS SELECT I, R, S FROM G WHERE R < 2.5 ;
  CREATE VIEW GS (I, R, S) AS SELECT I, R, S FROM G WHERE S >= 'm' ;
  CREATE VIEW GM (I, R, S) AS SELECT I, R, S FROM GI2 WHERE R >= 3.0 AND S < 'x' ;
|}

(* each column's literal draws around the view bounds' constants *)
let gen_literal col =
  let open QCheck2.Gen in
  let around consts step random =
    oneof [ oneofl consts; map2 ( + ) (oneofl consts) (oneofl [ -step; step ]); random ]
  in
  match col with
  | "I" -> around [ 4; 9 ] 1 (int_range 0 13) >|= string_of_int
  | "R" ->
      (* in half units: the bounds 2.5 and 3.0 *)
      around [ 5; 6 ] 1 (int_range 0 14) >|= fun k -> Fmt.str "%.1f" (float_of_int k *. 0.5)
  | _ ->
      around [ Char.code 'm'; Char.code 'x' ] 1 (int_range (Char.code 'a') (Char.code 'z'))
      >|= fun c -> Fmt.str "'%c'" (Char.chr c)

let gen_guarded_case =
  let open QCheck2.Gen in
  oneofl [ "G"; "GI"; "GI2"; "GR"; "GS"; "GM" ] >>= fun view ->
  list_size (int_range 1 3)
    (pair (oneofl [ "I"; "R"; "S" ]) (oneofl [ ">"; "<"; ">="; "<="; "=" ]))
  >>= fun conjuncts ->
  list_repeat 6 (flatten_l (List.map (fun (col, _) -> gen_literal col) conjuncts))
  >|= fun draws -> (view, conjuncts, draws)

let guarded_text (view, conjuncts, _) lits =
  Fmt.str "SELECT I, S FROM %s WHERE %s" view
    (String.concat " AND "
       (List.map2 (fun (col, op) lit -> Fmt.str "%s %s %s" col op lit) conjuncts lits))

let prop_guards_complete =
  let served = session_of guarded_setup in
  let oracle = session_of guarded_setup in
  Session.set_physical oracle Eval.Physical.Naive;
  Session.set_rewriting oracle false;
  let planner = Planner.create served in
  QCheck2.Test.make ~name:"guarded variants serve exactly the custom plan" ~count:150
    ~print:(fun ((_, _, draws) as case) ->
      String.concat "\n" (List.map (guarded_text case) draws))
    gen_guarded_case
    (fun ((_, _, draws) as case) ->
      List.for_all
        (fun lits ->
          let text = guarded_text case lits in
          let plan, _ = Planner.plan planner text in
          let custom = (Session.explain served text).Session.rewritten in
          if not (Lera.equal plan custom) then
            QCheck2.Test.fail_reportf "%s: served %s, custom %s" text (Lera.to_string plan)
              (Lera.to_string custom)
          else if
            (Session.run_plan served plan).Relation.tuples
            <> (Session.query oracle text).Relation.tuples
          then QCheck2.Test.fail_reportf "%s: rows differ" text
          else true)
        draws)

let suite =
  [
    Alcotest.test_case "template: erase and key" `Quick test_erase_and_key;
    Alcotest.test_case "template: parameter round trip" `Quick test_param_round_trip;
    Alcotest.test_case "template: enum-coerced literal stays literal" `Quick
      test_enum_literal_stays_literal;
    Alcotest.test_case "guard: ISA(p, constant)" `Quick test_guard_isa_constant;
    Alcotest.test_case "guard: ground comparison" `Quick test_guard_ground_comparison;
    Alcotest.test_case "veto: evaluate" `Quick test_veto_evaluate;
    Alcotest.test_case "veto: const_fold" `Quick test_veto_const_fold;
    Alcotest.test_case "veto: not_in_domain" `Quick test_veto_not_in_domain;
    Alcotest.test_case "guard: distinct and notin" `Quick test_guard_distinct_notin;
    Alcotest.test_case "magic adornment accepts a parameter" `Quick
      test_magic_accepts_parameter;
    Alcotest.test_case "planner: generic plan equals custom plan" `Quick
      test_generic_equals_custom;
    Alcotest.test_case "subsumption template: one guarded variant per side of the view bound"
      `Quick test_subsumption_guarded_variants;
    Alcotest.test_case "planner: generation bump sweeps templates" `Quick
      test_generation_sweeps_templates;
    Alcotest.test_case "planner: racing threads plan a template once" `Quick
      test_race_plans_template_once;
    Alcotest.test_case "rulesets parsed once" `Quick test_program_parsed_once;
    Alcotest.test_case "wire: template counters agree with PROM" `Quick
      test_stats_metrics_match_prom;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 14 |])
      prop_generic_plans_match_naive;
    QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 7 |]) prop_guards_complete;
  ]
