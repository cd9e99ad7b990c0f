(* The per-figure experiment report (see DESIGN.md's experiment index and
   EXPERIMENTS.md).  The paper publishes no measured tables — its figures
   are rule/query listings — so each section reproduces the figure's
   artifact and measures the quantitative effect its section claims. *)

module Value = Eds_value.Value
module Collection = Eds_value.Collection
module Term = Eds_term.Term
module Lera = Eds_lera.Lera
module Relation = Eds_engine.Relation
module Database = Eds_engine.Database
module Eval = Eds_engine.Eval
module Rule = Eds_rewriter.Rule
module Rulesets = Eds_rewriter.Rulesets
module Engine = Eds_rewriter.Engine
module Optimizer = Eds_rewriter.Optimizer
module Session = Eds.Session
module Rule_parser = Eds_rewriter.Rule_parser
module Verify = Eds_rulelab.Verify
module Discover = Eds_rulelab.Discover
module Corpus = Eds_rulelab.Corpus

let section id title = Fmt.pr "@.=== %s — %s@." id title

let row fmt = Fmt.pr fmt

let ratio a b = float_of_int a /. float_of_int (max 1 b)

(* -- machine-readable counters (bench/main.exe --json) -------------------- *)

module Json = Eds_obs.Obs.Json

let metrics : (string * Json.t) list ref = ref []
let metric key v = metrics := (key, v) :: !metrics
let metric_int key n = metric key (Json.Int n)
let metric_bool key b = metric key (Json.Bool b)
let metric_float key f = metric key (Json.Float f)

let metrics_json () = Json.Obj (List.rev !metrics)

(* -- F1: Figure 1, collection ADT hierarchy ------------------------------ *)

let f1 () =
  section "F1" "generic collection ADTs (Figure 1)";
  let n = 1000 in
  let set_a = Value.set (List.init n (fun i -> Value.Int i)) in
  let set_b = Value.set (List.init n (fun i -> Value.Int (i + (n / 2)))) in
  let u = Collection.union set_a set_b in
  let i = Collection.inter set_a set_b in
  let d = Collection.diff set_a set_b in
  row "  |A| = |B| = %d: |A∪B| = %d, |A∩B| = %d, |A−B| = %d@."
    n
    (Collection.cardinality u)
    (Collection.cardinality i)
    (Collection.cardinality d);
  let bag = Value.bag (List.init n (fun i -> Value.Int (i mod 100))) in
  row "  convert bag(%d) to set: %d distinct elements@." n
    (Collection.cardinality (Collection.convert Set bag));
  row "  hierarchy: set/bag/list/array ISA collection: %b@."
    (List.for_all
       (fun ty ->
         Eds_value.Vtype.isa Eds_value.Vtype.empty_env ty
           (Eds_value.Vtype.Collection Eds_value.Vtype.Any))
       Eds_value.Vtype.[ Set Int; Bag Int; List Int; Array Int ])

(* -- F3: Figure 3 / §3.1, canonical compound search ----------------------- *)

let f3 () =
  section "F3" "ESQL → LERA translation of the Figure-3 query (§3.1)";
  let s = Workloads.film_session ~films:50 ~actors:30 in
  let q =
    {|SELECT Title, Categories, Salary(Refactor)
      FROM FILM, APPEARS_IN
      WHERE FILM.Numf = APPEARS_IN.Numf AND Name(Refactor) = 'actor1'
        AND MEMBER('Adventure', Categories)|}
  in
  let plan = Session.explain s q in
  row "  translated: %a@." Lera.pp plan.Session.translated;
  row "  paper     : search((APPEARS_IN, FILM), [1.1=2.1 ∧ name(1.2)='Quinn' ∧ member('Adventure', 2.3)], (2.2, 2.3, salary(1.2)))@.";
  row "  shape     : one compound search, conversions value/project inserted: %b@."
    (match plan.Session.translated with
    | Lera.Search ([ _; _ ], _, [ _; _; Lera.Call ("project", _) ]) -> true
    | _ -> false)

(* -- F4: Figure 4, nested view + quantifier ------------------------------- *)

let f4 () =
  section "F4" "nested view with MakeSet/GROUP BY and ALL quantifier (Figure 4)";
  let s = Workloads.film_session ~films:100 ~actors:50 in
  let q =
    {|SELECT Title FROM FilmActors
      WHERE MEMBER('Adventure', Categories) AND ALL (Salary(Actors) > 10000)|}
  in
  let plan = Session.explain s q in
  let db = Session.database s in
  let before = Workloads.eval_work db plan.Session.translated in
  let after = Workloads.eval_work db plan.Session.rewritten in
  let result = Session.query s q in
  row "  result: %d films; identical before/after rewriting: %b@."
    (Relation.cardinality result)
    (Relation.equal
       (Eds_engine.Eval.run db plan.Session.translated)
       (Eds_engine.Eval.run db plan.Session.rewritten));
  metric_int "f4.combinations_before" before.Eval.combinations;
  metric_int "f4.combinations_after" after.Eval.combinations;
  metric_int "f4.result_tuples" (Relation.cardinality result);
  row "  work: %d → %d combinations (%.1fx)@." before.Eval.combinations
    after.Eval.combinations
    (ratio before.Eval.combinations after.Eval.combinations)

(* -- F5: Figure 5 / §3.2, recursive view as fixpoint ----------------------- *)

let f5 () =
  section "F5" "recursive view → fixpoint; naive vs semi-naive (§3.2)";
  List.iter
    (fun n ->
      let db = Workloads.chain_db n in
      let naive = Eval.fresh_stats () and semi = Eval.fresh_stats () in
      (* naive physical layer: F5 measures the fixpoint strategies' own
         enumerated space (E2 covers the physical layers) *)
      let r1 =
        Eval.run ~mode:Eval.Naive ~physical:Eval.Physical.Naive ~stats:naive db
          Workloads.tc_fix
      in
      let r2 =
        Eval.run ~mode:Eval.Seminaive ~physical:Eval.Physical.Naive ~stats:semi db
          Workloads.tc_fix
      in
      metric_int (Fmt.str "f5.chain%d.naive_combinations" n) naive.Eval.combinations;
      metric_int (Fmt.str "f5.chain%d.seminaive_combinations" n) semi.Eval.combinations;
      row
        "  chain %-3d: closure %d tuples, naive %d combos / semi-naive %d combos (%.1fx), equal %b@."
        n (Relation.cardinality r1) naive.Eval.combinations semi.Eval.combinations
        (ratio naive.Eval.combinations semi.Eval.combinations)
        (Relation.equal r1 r2))
    [ 8; 16; 24 ]

(* -- F6: Figure 6, the rule language -------------------------------------- *)

let f6 () =
  section "F6" "rule language (Figure 6): the built-in library is rule text";
  let sets =
    [
      ("merging", Rulesets.merging ());
      ("permutation", Rulesets.permutation ());
      ("fixpoint", Rulesets.fixpoint ());
      ("semantic", Rulesets.semantic ());
      ("simplification", Rulesets.simplification ());
    ]
  in
  List.iter
    (fun (name, rules) -> row "  %-14s %2d rules, all parsed from concrete syntax@." name (List.length rules))
    sets;
  let r = Rulesets.find "search_merge" in
  row "  e.g. %a@." Rule.pp r

(* -- F7: Figure 7, merging ------------------------------------------------- *)

let merging_program =
  { Rule.blocks = [ Rule.block "merging" (Rulesets.merging ()) ]; rounds = 1 }

let f7 () =
  section "F7" "operation merging (Figure 7): operators before/after";
  List.iter
    (fun depth ->
      let s = Workloads.view_stack_session ~depth in
      let q = Fmt.str "SELECT A FROM V%d WHERE B > 50" depth in
      let plan = Session.explain s q in
      let ctx = Optimizer.make_ctx (Eds_esql.Catalog.schema_env (Session.catalog s)) in
      let merged = Optimizer.rewrite ~program:merging_program ctx plan.Session.translated in
      metric_int
        (Fmt.str "f7.depth%d.operators_before" depth)
        (Lera.operator_count plan.Session.translated);
      metric_int
        (Fmt.str "f7.depth%d.operators_after" depth)
        (Lera.operator_count merged);
      row "  view depth %-2d: %2d operators → %2d after merging (one search: %b)@."
        depth
        (Lera.operator_count plan.Session.translated)
        (Lera.operator_count merged)
        (Lera.operator_count merged = 1))
    [ 1; 3; 6; 10 ]

(* -- F8: Figure 8, permutation --------------------------------------------- *)

let f8 () =
  section "F8" "operation permutation (Figure 8): work with and without pushing";
  let s = Workloads.film_session ~films:200 ~actors:100 in
  let db = Session.database s in
  let q =
    {|SELECT Title FROM FILM, APPEARS_IN
      WHERE FILM.Numf = APPEARS_IN.Numf AND FILM.Numf = 7|}
  in
  let plan = Session.explain s q in
  let before = Workloads.eval_work db plan.Session.translated in
  let after = Workloads.eval_work db plan.Session.rewritten in
  metric_int "f8.join.combinations_before" before.Eval.combinations;
  metric_int "f8.join.combinations_after" after.Eval.combinations;
  row "  select on a join: %d → %d combinations (%.1fx fewer)@."
    before.Eval.combinations after.Eval.combinations
    (ratio before.Eval.combinations after.Eval.combinations);
  (* nest pushing on the Figure-4 view *)
  let qn = {|SELECT Title FROM FilmActors WHERE MEMBER('Western', Categories)|} in
  let plan = Session.explain s qn in
  let before = Workloads.eval_work db plan.Session.translated in
  let after = Workloads.eval_work db plan.Session.rewritten in
  metric_int "f8.nest.combinations_before" before.Eval.combinations;
  metric_int "f8.nest.combinations_after" after.Eval.combinations;
  row "  select through nest: %d → %d combinations (%.1fx fewer)@."
    before.Eval.combinations after.Eval.combinations
    (ratio before.Eval.combinations after.Eval.combinations)

(* -- F9: Figure 9, fixpoint reduction --------------------------------------- *)

let magic_program =
  {
    Rule.blocks =
      [
        Rule.block "merging" (Rulesets.merging ());
        Rule.block "fixpoint" (Rulesets.fixpoint ());
        Rule.block "merging_again" (Rulesets.merging ());
      ];
    rounds = 1;
  }

let f9 () =
  section "F9" "Alexander/magic rewriting of recursion (Figure 9)";
  List.iter
    (fun (clusters, nodes) ->
      let db = Workloads.clustered_db ~clusters ~nodes ~edges_per_cluster:(nodes * 2) in
      let q = Workloads.reachable_from 2 in
      let ctx = Optimizer.make_ctx (Database.schema_env db) in
      let q' = Optimizer.rewrite ~program:magic_program ctx q in
      let before = Workloads.eval_work db q in
      let after = Workloads.eval_work db q' in
      let same =
        Relation.equal (Eds_engine.Eval.run db q) (Eds_engine.Eval.run db q')
      in
      metric_int
        (Fmt.str "f9.c%dn%d.naive_combinations" clusters nodes)
        before.Eval.combinations;
      metric_int
        (Fmt.str "f9.c%dn%d.magic_combinations" clusters nodes)
        after.Eval.combinations;
      metric_bool (Fmt.str "f9.c%dn%d.equal" clusters nodes) same;
      row
        "  %d clusters × %d nodes: naive %8d combos, magic %7d combos (%.1fx fewer), equal %b@."
        clusters nodes before.Eval.combinations after.Eval.combinations
        (ratio before.Eval.combinations after.Eval.combinations)
        same)
    [ (2, 10); (4, 12); (8, 14) ]

(* -- F10/F11: semantic knowledge ------------------------------------------- *)

let f10_11 () =
  section "F10/F11" "integrity constraints and implicit knowledge (Figures 10-11)";
  let s = Workloads.film_session ~films:100 ~actors:50 in
  Session.use_enum_domains s;
  let db = Session.database s in
  let inconsistent =
    {|SELECT Numf FROM FILM WHERE MEMBER('Cartoon', Categories)|}
  in
  let plan = Session.explain s inconsistent in
  let before = Workloads.eval_work db plan.Session.translated in
  let after = Workloads.eval_work db plan.Session.rewritten in
  row "  MEMBER('Cartoon', Categories) detected unsatisfiable: %b@."
    (Lera.obviously_empty plan.Session.rewritten);
  row "  work: %d combinations → %d@."
    before.Eval.combinations after.Eval.combinations;
  (* transitivity closure growth under a limit (the §7 trade-off input) *)
  let cat = Session.catalog s in
  let ctx = Optimizer.make_ctx (Eds_esql.Catalog.schema_env cat) in
  let chain_qual n =
    Eds_rewriter.Rule_parser.parse_term
      (String.concat " AND "
         (List.init n (fun i -> Fmt.str "@(1,%d) < @(1,%d)" (i + 1) (i + 2))))
  in
  List.iter
    (fun n ->
      let stats = Engine.fresh_stats () in
      let program =
        { Rule.blocks = [ Rule.block "semantic" (Rulesets.semantic ()) ]; rounds = 1 }
      in
      let t = Optimizer.rewrite_term ~program ~stats ctx (chain_qual n) in
      let conjuncts =
        match t with
        | Term.App ("and", [ Term.Coll (Term.Bag, cs) ]) -> List.length cs
        | _ -> 1
      in
      row "  transitivity closure of a <-chain of %d: %d conjuncts derived, %d condition checks@."
        n conjuncts stats.Engine.conditions_checked)
    [ 3; 5; 7 ]

(* -- F12: simplification ----------------------------------------------------- *)

let f12 () =
  section "F12" "predicate simplification (Figure 12)";
  let ctx = Optimizer.make_ctx (Database.schema_env (Database.create ())) in
  let program =
    { Rule.blocks = [ Rule.block "simplification" (Rulesets.simplification ()) ]; rounds = 1 }
  in
  let cases =
    [
      "@(1,1) > @(1,2) AND @(1,1) <= @(1,2)";
      "@(1,1) - @(1,2) = 0";
      "3 + 4 < 8";
      "member('Cartoon', {'Comedy', 'Adventure', 'Science Fiction', 'Western'})";
      "not(not(@(1,1) = 2))";
    ]
  in
  List.iter
    (fun src ->
      let t = Eds_rewriter.Rule_parser.parse_term src in
      let t' = Optimizer.rewrite_term ~program ctx t in
      row "  %-62s → %a@." src Term.pp t')
    cases

(* -- E1: engine instrumentation ---------------------------------------------- *)

(* the rewrite loop itself: the indexed engine (head-symbol dispatch,
   incremental re-scan, schema memoization) against the reference engine
   on deep view stacks.  All limits are infinite so that the budget never
   binds — both engines must then produce identical terms and traces, and
   the work counters isolate what the indexing and the re-scan save. *)
let e1 () =
  section "E1" "engine instrumentation: indexed vs reference rewrite loop";
  let no_limits =
    {
      Optimizer.merging_limit = None;
      fixpoint_limit = None;
      permutation_limit = None;
      semantic_limit = None;
      simplification_limit = None;
      rounds = 4;
    }
  in
  let program = Optimizer.program ~config:no_limits () in
  let same_steps a b =
    List.length a = List.length b
    && List.for_all2
         (fun (x : Engine.step) (y : Engine.step) ->
           x.Engine.rule_name = y.Engine.rule_name
           && x.Engine.block_name = y.Engine.block_name
           && Term.equal x.Engine.redex y.Engine.redex
           && Term.equal x.Engine.replacement y.Engine.replacement)
         a b
  in
  let total_time s =
    List.fold_left (fun acc (_, bs) -> acc +. bs.Engine.time_s) 0. s.Engine.per_block
  in
  let pct num den = 100. *. float_of_int num /. float_of_int (max 1 (num + den)) in
  row "  %-8s %-22s %-22s %-10s %-12s %s@." "depth" "match attempts (i/r)"
    "conditions (i/r)" "ratio" "index hit%" "schema hit%";
  let deepest = ref None in
  List.iter
    (fun depth ->
      let ctx, translated = Workloads.view_stack_rewrite ~depth in
      let t = Eds_lera.Lera_term.to_term translated in
      let s_idx = Engine.fresh_stats () and s_ref = Engine.fresh_stats () in
      let t_idx = Optimizer.rewrite_term ~program ~stats:s_idx ctx t in
      let t_ref = Optimizer.rewrite_term_reference ~program ~stats:s_ref ctx t in
      let same =
        Term.equal t_idx t_ref && same_steps (Engine.steps s_idx) (Engine.steps s_ref)
      in
      if not same then row "  depth %d: ENGINES DISAGREE@." depth;
      metric_int (Fmt.str "e1.depth%d.indexed_match_attempts" depth)
        s_idx.Engine.match_attempts;
      metric_int (Fmt.str "e1.depth%d.reference_match_attempts" depth)
        s_ref.Engine.match_attempts;
      metric_int (Fmt.str "e1.depth%d.indexed_conditions" depth)
        s_idx.Engine.conditions_checked;
      metric_int (Fmt.str "e1.depth%d.reference_conditions" depth)
        s_ref.Engine.conditions_checked;
      metric_bool (Fmt.str "e1.depth%d.engines_agree" depth) same;
      row "  %-8d %-22s %-22s %-10s %-12.1f %.1f@." depth
        (Fmt.str "%d / %d" s_idx.Engine.match_attempts s_ref.Engine.match_attempts)
        (Fmt.str "%d / %d" s_idx.Engine.conditions_checked s_ref.Engine.conditions_checked)
        (Fmt.str "%.1fx" (ratio s_ref.Engine.match_attempts s_idx.Engine.match_attempts))
        (pct s_idx.Engine.index_hits s_idx.Engine.index_misses)
        (pct s_idx.Engine.schema_hits s_idx.Engine.schema_misses);
      if depth = 10 then deepest := Some s_idx)
    [ 4; 7; 10 ];
  (* wall-clock, averaged over repeated runs (a single rewrite is
     sub-millisecond and too noisy to time on its own) *)
  let repeats = 30 in
  let timed rewrite ctx t =
    let s = Engine.fresh_stats () in
    for _ = 1 to repeats do
      ignore (rewrite s ctx t)
    done;
    ( float_of_int s.Engine.rewrites_applied /. max 1e-9 (total_time s),
      total_time s *. 1000. /. float_of_int repeats )
  in
  (match !deepest with
  | None -> ()
  | Some s_idx ->
    let ctx, translated = Workloads.view_stack_rewrite ~depth:10 in
    let t = Eds_lera.Lera_term.to_term translated in
    let sps_idx, ms_idx =
      timed (fun s -> Optimizer.rewrite_term ~program ~stats:s) ctx t
    in
    let sps_ref, ms_ref =
      timed (fun s -> Optimizer.rewrite_term_reference ~program ~stats:s) ctx t
    in
    row "  depth 10 throughput: indexed %.0f steps/s (%.2f ms), reference %.0f steps/s (%.2f ms)@."
      sps_idx ms_idx sps_ref ms_ref;
    row "  per-block (indexed, depth 10, one run):@.";
    List.iter
      (fun entry -> row "    %a@." Engine.pp_block_stats entry)
      s_idx.Engine.per_block);
  (* the same comparison on the C1 view join, whose catalog schemas make
     the per-visit schema derivation expensive *)
  let s = Workloads.film_session ~films:10 ~actors:10 in
  let cat = Session.catalog s in
  let translated =
    Eds_esql.Translate.select cat
      (Eds_esql.Parser.parse_select
         {|SELECT FilmActors.Title FROM FilmActors, FILM
           WHERE FilmActors.Title = FILM.Title
             AND MEMBER('Adventure', FilmActors.Categories)
             AND FILM.Numf = 3|})
  in
  let ctx = Optimizer.make_ctx (Eds_esql.Catalog.schema_env cat) in
  let t = Eds_lera.Lera_term.to_term translated in
  let s_idx = Engine.fresh_stats () and s_ref = Engine.fresh_stats () in
  let t_idx = Optimizer.rewrite_term ~program ~stats:s_idx ctx t in
  let t_ref = Optimizer.rewrite_term_reference ~program ~stats:s_ref ctx t in
  let _, ms_idx =
    timed (fun s -> Optimizer.rewrite_term ~program ~stats:s) ctx t
  in
  let _, ms_ref =
    timed (fun s -> Optimizer.rewrite_term_reference ~program ~stats:s) ctx t
  in
  row
    "  film view join: attempts %d / %d (%.1fx), schema derivations %d / %d, %.2f / %.2f ms, agree %b@."
    s_idx.Engine.match_attempts s_ref.Engine.match_attempts
    (ratio s_ref.Engine.match_attempts s_idx.Engine.match_attempts)
    s_idx.Engine.schema_misses s_ref.Engine.schema_misses ms_idx ms_ref
    (Term.equal t_idx t_ref
    && same_steps (Engine.steps s_idx) (Engine.steps s_ref))

(* -- E2: the physical evaluation layer ---------------------------------------- *)

(* naive enumeration vs indexed hash joins on the same plans.  The naive
   counter is [combinations] (full cartesian product); the indexed layer
   reports the combinations surviving the equi conjuncts plus the hash
   work that found them ([builds] + [probes]).  Both layers must agree
   exactly on results. *)
let e2 () =
  section "E2" "physical layers: naive enumeration vs indexed hash joins";
  let compare key label db rel =
    let naive, r_naive = Workloads.eval_work_physical Eval.Physical.Naive db rel in
    let idx, r_idx = Workloads.eval_work_physical Eval.Physical.Indexed db rel in
    let equal = Relation.equal r_naive r_idx in
    metric_int (key ^ ".naive_combinations") naive.Eval.combinations;
    metric_int (key ^ ".indexed_combinations") idx.Eval.combinations;
    metric_int (key ^ ".indexed_probes") idx.Eval.probes;
    metric_int (key ^ ".indexed_builds") idx.Eval.builds;
    metric_bool (key ^ ".equal") equal;
    let touched = idx.Eval.combinations + idx.Eval.probes + idx.Eval.builds in
    row
      "  %-26s naive %8d combos | indexed %6d combos + %6d probes + %5d builds (%.1fx less), equal %b@."
      label naive.Eval.combinations idx.Eval.combinations idx.Eval.probes
      idx.Eval.builds
      (ratio naive.Eval.combinations touched)
      equal
  in
  (* the Figure-8 selective join, before and after rewriting: indexed
     evaluation collapses even the unrewritten plan *)
  let s = Workloads.film_session ~films:200 ~actors:100 in
  let db = Session.database s in
  let plan =
    Session.explain s
      {|SELECT Title FROM FILM, APPEARS_IN
        WHERE FILM.Numf = APPEARS_IN.Numf AND FILM.Numf = 7|}
  in
  compare "e2.fig8_unrewritten" "Fig. 8 join, unrewritten" db plan.Session.translated;
  compare "e2.fig8_rewritten" "Fig. 8 join, rewritten" db plan.Session.rewritten;
  (* the Figure-9 reachability recursion (fixpoint arms are hash-joined) *)
  let rec_db = Workloads.clustered_db ~clusters:4 ~nodes:12 ~edges_per_cluster:24 in
  compare "e2.fig9_recursion" "Fig. 9 reachability" rec_db (Workloads.reachable_from 2);
  (* the fixpoint memo cache: a self-join of the closure evaluates the
     same closed Fix twice — the second occurrence must be a cache hit *)
  let tc_self_join =
    Lera.Search
      ( [ Workloads.tc_fix; Workloads.tc_fix ],
        Lera.eq (Lera.col 1 2) (Lera.col 2 1),
        [ Lera.col 1 1; Lera.col 2 2 ] )
  in
  let fc = Eval.fresh_stats () in
  ignore (Eval.run ~stats:fc rec_db tc_self_join);
  metric_int "e2.fix_cache.hits" fc.Eval.fix_cache_hits;
  metric_int "e2.fix_cache.misses" fc.Eval.fix_cache_misses;
  row "  fix cache (TC ⋈ TC self-join): %d hits / %d misses@."
    fc.Eval.fix_cache_hits fc.Eval.fix_cache_misses;
  (* the C1 complex view join, unrewritten *)
  let cat = Session.catalog s in
  let view_q =
    Eds_esql.Translate.select cat
      (Eds_esql.Parser.parse_select
         {|SELECT FilmActors.Title FROM FilmActors, FILM
           WHERE FilmActors.Title = FILM.Title
             AND MEMBER('Adventure', FilmActors.Categories)
             AND FILM.Numf = 3|})
  in
  compare "e2.c1_view_join" "C1 view join, unrewritten" db view_q;
  (* scaling: the three-way chain join R ⋈ S ⋈ T *)
  List.iter
    (fun size ->
      let db = Workloads.chain_join_db ~size in
      compare
        (Fmt.str "e2.chain%d" size)
        (Fmt.str "R⋈S⋈T, size %d" size)
        db Workloads.chain_join_query)
    [ 20; 40; 80 ]

(* -- E3: fat-intermediate chain joins ------------------------------------------ *)

(* the indexed layer on a fat-intermediate chain (see
   Workloads.fat_chain_db) and on the Fig. 8 selective join, rewritten
   vs unrewritten: hash-join work counters plus the chain's wall-clock,
   recorded in EXPERIMENTS.md §E3 *)
let e3 () =
  section "E3" "fat-intermediate chain joins on the indexed layer";
  let time f =
    ignore (f ());
    (* warm-up *)
    let reps = 3 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (f ())
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps *. 1000.
  in
  List.iter
    (fun (size, fan) ->
      let key = Fmt.str "e3.chain%d_fan%d" size fan in
      let db = Workloads.fat_chain_db ~size ~fan in
      let q = Workloads.fat_chain_query in
      let si = Eval.fresh_stats () in
      ignore (Eval.run ~physical:Eval.Physical.Indexed ~stats:si db q);
      let t_idx =
        time (fun () -> Eval.run ~physical:Eval.Physical.Indexed db q)
      in
      metric_int (key ^ ".combinations") si.Eval.combinations;
      metric_int (key ^ ".probes") si.Eval.probes;
      metric_int (key ^ ".builds") si.Eval.builds;
      metric (key ^ ".indexed_ms") (Json.Float t_idx);
      row "  %-24s %6d combos + %6d probes + %5d builds  %8.2fms@."
        (Fmt.str "chain %d fan %d" size fan)
        si.Eval.combinations si.Eval.probes si.Eval.builds t_idx)
    [ (2000, 50); (4000, 50); (4000, 100) ];
  (* the Fig. 8 selective join, rewritten vs unrewritten: the rewrite
     benefit shows as counter shrinkage on the hash-join layer too *)
  let s = Workloads.film_session ~films:200 ~actors:100 in
  let db = Session.database s in
  let plan =
    Session.explain s
      {|SELECT Title FROM FILM, APPEARS_IN
        WHERE FILM.Numf = APPEARS_IN.Numf AND FILM.Numf = 7|}
  in
  List.iter
    (fun (tag, rel) ->
      let si = Eval.fresh_stats () in
      ignore (Eval.run ~physical:Eval.Physical.Indexed ~stats:si db rel);
      metric_int (Fmt.str "e3.fig8_%s.combinations" tag) si.Eval.combinations;
      metric_int (Fmt.str "e3.fig8_%s.probes" tag) si.Eval.probes;
      metric_int (Fmt.str "e3.fig8_%s.builds" tag) si.Eval.builds;
      row "  Fig. 8 %-12s %6d combos + %5d probes + %5d builds@." tag
        si.Eval.combinations si.Eval.probes si.Eval.builds)
    [
      ("unrewritten", plan.Session.translated);
      ("rewritten", plan.Session.rewritten);
    ]

(* -- C1: the §7 block-limit trade-off ----------------------------------------- *)

(* the paper's conclusion: simple queries need a 0 limit (rewriting cannot
   pay off), complex queries need a high one; rewriting effort is measured
   in rule-condition checks, plan cost in evaluator combinations *)
let c1 () =
  section "C1" "block-limit trade-off (§7): rewriting effort vs plan cost";
  let s = Workloads.film_session ~films:150 ~actors:80 in
  let db = Session.database s in
  let cat = Session.catalog s in
  let queries =
    [
      ("simple (key lookup)", "SELECT Title FROM FILM WHERE Numf = 3");
      ( "complex (view join)",
        {|SELECT FilmActors.Title FROM FilmActors, FILM
          WHERE FilmActors.Title = FILM.Title
            AND MEMBER('Adventure', FilmActors.Categories)
            AND FILM.Numf = 3|} );
    ]
  in
  List.iter
    (fun (label, q) ->
      let translated =
        Eds_esql.Translate.select cat (Eds_esql.Parser.parse_select q)
      in
      row "  %s@." label;
      row "    %-10s %-18s %-18s %s@." "limit" "condition checks" "plan combinations"
        "plan ops";
      List.iter
        (fun (l_label, limit) ->
          let config =
            {
              Optimizer.merging_limit = limit;
              fixpoint_limit = limit;
              permutation_limit = limit;
              semantic_limit = limit;
              simplification_limit = limit;
              rounds = 2;
            }
          in
          let stats = Engine.fresh_stats () in
          let ctx = Optimizer.make_ctx (Eds_esql.Catalog.schema_env cat) in
          let rewritten =
            Optimizer.rewrite ~program:(Optimizer.program ~config ()) ~stats ctx
              translated
          in
          let work = Workloads.eval_work db rewritten in
          let qkey = if label = "simple (key lookup)" then "simple" else "complex" in
          metric_int
            (Fmt.str "c1.%s.limit_%s.condition_checks" qkey l_label)
            stats.Engine.conditions_checked;
          metric_int
            (Fmt.str "c1.%s.limit_%s.plan_combinations" qkey l_label)
            work.Eval.combinations;
          row "    %-10s %-18d %-18d %d@." l_label stats.Engine.conditions_checked
            work.Eval.combinations
            (Lera.operator_count rewritten))
        [
          ("0", Some 0);
          ("10", Some 10);
          ("40", Some 40);
          ("infinite", None);
        ])
    queries

(* -- C2: re-running the merging block (§5.3) ----------------------------------- *)

let c2 () =
  section "C2" "same rule in several blocks (§4.2/§5.3): merge, fixpoint, merge";
  (* a recursive predicate whose base case carries a restriction: after
     linearization, the base-arm search ends up nested inside the
     recursive arm's search, so the merging rules have new work exactly
     as §5.3 predicts ("the search merging rule is a typical case of rule
     which takes advantage of being applied more than once") *)
  let db = Database.create () in
  let schema =
    [
      ("Src", Eds_value.Vtype.Int);
      ("Dst", Eds_value.Vtype.Int);
      ("W", Eds_value.Vtype.Int);
    ]
  in
  let rng = Workloads.make_rng 99 in
  let tuples =
    List.init 150 (fun _ ->
        Eds_value.Value.[ Int (1 + rng 40); Int (1 + rng 40); Int (rng 10) ])
  in
  Database.add_relation db "WEDGE" (Eds_engine.Relation.make schema tuples);
  let base_arm =
    Lera.Search
      ( [ Lera.Base "WEDGE" ],
        Lera.Call (">", [ Lera.col 1 3; Lera.Cst (Eds_value.Value.Int 2) ]),
        [ Lera.col 1 1; Lera.col 1 2 ] )
  in
  let fix =
    Lera.Fix
      ( "TCW",
        Lera.Union
          [
            base_arm;
            Lera.Search
              ( [ Lera.Base "TCW"; Lera.Base "TCW" ],
                Lera.eq (Lera.col 1 2) (Lera.col 2 1),
                [ Lera.col 1 1; Lera.col 2 2 ] );
          ] )
  in
  let q =
    Lera.Search
      ( [ fix ],
        Lera.eq (Lera.col 1 1) (Lera.Cst (Eds_value.Value.Int 5)),
        [ Lera.col 1 2 ] )
  in
  let ctx = Optimizer.make_ctx (Database.schema_env db) in
  let once =
    {
      Rule.blocks =
        [
          Rule.block "merging" (Rulesets.merging ());
          Rule.block "fixpoint" (Rulesets.fixpoint ());
          Rule.block "permutation" (Rulesets.permutation ());
        ];
      rounds = 1;
    }
  in
  let twice =
    {
      Rule.blocks =
        [
          Rule.block "merging" (Rulesets.merging ());
          Rule.block "fixpoint" (Rulesets.fixpoint ());
          Rule.block "merging_again" (Rulesets.merging ());
          Rule.block "permutation" (Rulesets.permutation ());
        ];
      rounds = 1;
    }
  in
  let stats_once = Engine.fresh_stats () and stats_twice = Engine.fresh_stats () in
  let q_once = Optimizer.rewrite ~program:once ~stats:stats_once ctx q in
  let q_twice = Optimizer.rewrite ~program:twice ~stats:stats_twice ctx q in
  let w_once = Workloads.eval_work db q_once in
  let w_twice = Workloads.eval_work db q_twice in
  let same =
    Eds_engine.Relation.equal (Eds_engine.Eval.run db q_once)
      (Eds_engine.Eval.run db q_twice)
  in
  row "  merge once : %2d ops, %7d combinations, %5d produced@."
    (Lera.operator_count q_once) w_once.Eval.combinations w_once.Eval.tuples_produced;
  row "  merge twice: %2d ops, %7d combinations, %5d produced (equal results: %b)@."
    (Lera.operator_count q_twice) w_twice.Eval.combinations
    w_twice.Eval.tuples_produced same;
  row "  second merging pass applied %d more rewrites@."
    (stats_twice.Engine.rewrites_applied - stats_once.Engine.rewrites_applied);
  (* per-pass breakdown: [stats.passes] keeps one entry per executed block
     pass (the name-keyed [per_block] view sums the two merging passes) *)
  row "  per-pass (merge twice):@.";
  List.iteri
    (fun i (name, bs) ->
      metric_int
        (Fmt.str "c2.pass%d_%s.rewrites" (i + 1) name)
        bs.Engine.rewrites;
      metric_int
        (Fmt.str "c2.pass%d_%s.conditions" (i + 1) name)
        bs.Engine.conditions;
      row "    pass %d %-14s %2d rewrites, %3d conditions, %3d nodes@." (i + 1)
        name bs.Engine.rewrites bs.Engine.conditions bs.Engine.nodes)
    stats_twice.Engine.passes;
  metric_int "c2.ops_once" (Lera.operator_count q_once);
  metric_int "c2.ops_twice" (Lera.operator_count q_twice);
  metric_int "c2.combinations_once" w_once.Eval.combinations;
  metric_int "c2.combinations_twice" w_twice.Eval.combinations;
  metric_bool "c2.equal" same

(* -- C3: §7 future work — dynamic limit allocation -------------------------- *)

let c3 () =
  section "C3" "adaptive limits (§7 future work): per-query allocation";
  let s = Workloads.film_session ~films:150 ~actors:80 in
  let cat = Session.catalog s in
  let db = Session.database s in
  let queries =
    [
      ("key lookup", "SELECT Title FROM FILM WHERE Numf = 3");
      ( "nested view",
        {|SELECT Title FROM FilmActors WHERE MEMBER('Adventure', Categories)|} );
      ( "recursive view",
        {|SELECT Name(Refactor1) FROM BETTER_THAN WHERE Name(Refactor2) = 'actor1'|} );
    ]
  in
  row "  %-16s %-11s %-18s %-18s %s@." "query" "complexity" "checks (adaptive)"
    "checks (default)" "plan combos (adaptive)";
  List.iter
    (fun (label, q) ->
      let translated =
        Eds_esql.Translate.select cat (Eds_esql.Parser.parse_select q)
      in
      let ctx = Optimizer.make_ctx (Eds_esql.Catalog.schema_env cat) in
      let run config =
        let stats = Engine.fresh_stats () in
        let rewritten =
          Optimizer.rewrite ~program:(Optimizer.program ~config ()) ~stats ctx
            translated
        in
        (stats.Engine.conditions_checked, Workloads.eval_work db rewritten)
      in
      let checks_a, work_a = run (Optimizer.adaptive_config translated) in
      let checks_d, _ = run Optimizer.default_config in
      let qkey =
        String.map (function ' ' -> '_' | c -> c) label
      in
      metric_int (Fmt.str "c3.%s.checks_adaptive" qkey) checks_a;
      metric_int (Fmt.str "c3.%s.checks_default" qkey) checks_d;
      row "  %-16s %-11d %-18d %-18d %d@." label
        (Optimizer.complexity translated)
        checks_a checks_d work_a.Eval.combinations)
    queries

(* -- A1: block ablation ------------------------------------------------------ *)

(* which block contributes what: run the default program with one block
   family disabled at a time and measure the resulting plan's work.
   "merging" removes both merging passes. *)
let a1 () =
  section "A1" "ablation: contribution of each rule block";
  let s = Workloads.film_session ~films:150 ~actors:80 in
  let view_db = Session.database s in
  let cat = Session.catalog s in
  let view_q =
    Eds_esql.Translate.select cat
      (Eds_esql.Parser.parse_select
         {|SELECT FilmActors.Title FROM FilmActors, FILM
           WHERE FilmActors.Title = FILM.Title
             AND MEMBER('Adventure', FilmActors.Categories)
             AND FILM.Numf = 3|})
  in
  let view_ctx = Optimizer.make_ctx (Eds_esql.Catalog.schema_env cat) in
  let rec_db = Workloads.clustered_db ~clusters:5 ~nodes:12 ~edges_per_cluster:22 in
  let rec_q = Workloads.reachable_from 3 in
  let rec_ctx = Optimizer.make_ctx (Database.schema_env rec_db) in
  let sem_ctx =
    Optimizer.make_ctx
      ~semantic_constraints:(Optimizer.enum_domain_constraints (Eds_esql.Catalog.types cat))
      (Eds_esql.Catalog.schema_env cat)
  in
  let bad_q =
    Eds_esql.Translate.select cat
      (Eds_esql.Parser.parse_select
         "SELECT Numf FROM FILM WHERE MEMBER('Cartoon', Categories) AND Numf > 1")
  in
  let subjects =
    [
      ("view join", view_db, view_ctx, view_q);
      ("recursion", rec_db, rec_ctx, rec_q);
      ("inconsistent", view_db, sem_ctx, bad_q);
    ]
  in
  let all_blocks = (Optimizer.program ~config:Optimizer.default_config ()).Rule.blocks in
  let family name b =
    match name with
    | "merging" -> b.Rule.block_name = "merging" || b.Rule.block_name = "merging_again"
    | other -> b.Rule.block_name = other
  in
  row "  %-22s %14s %14s %14s@." "" "view join" "recursion" "inconsistent";
  let run label blocks =
    let work (_, db, ctx, q) =
      let rewritten = Optimizer.rewrite ~program:{ Rule.blocks; rounds = 4 } ctx q in
      (Workloads.eval_work db rewritten).Eval.combinations
    in
    let cells = List.map work subjects in
    let lkey = String.map (function ' ' -> '_' | c -> c) label in
    List.iter2
      (fun (subject, _, _, _) combos ->
        let skey = String.map (function ' ' -> '_' | c -> c) subject in
        metric_int (Fmt.str "a1.%s.%s.combinations" lkey skey) combos)
      subjects cells;
    row "  %-22s %14d %14d %14d@." label (List.nth cells 0) (List.nth cells 1)
      (List.nth cells 2)
  in
  run "full program" all_blocks;
  List.iter
    (fun victim ->
      run (Fmt.str "without %s" victim)
        (List.filter (fun b -> not (family victim b)) all_blocks))
    [ "merging"; "fixpoint"; "permutation"; "semantic"; "simplification" ];
  run "no rewriting" []

(* -- E4: concurrent query server ----------------------------------------- *)

(* The edsd server under concurrent load (EXPERIMENTS.md E4): the same
   480-request mixed workload (Figure-8 selection-pushdown joins, an
   R ⋈ S ⋈ T chain join, recursive reachability) fanned over 1, 4 and
   16 client connections against one shared session + plan cache, with
   every response checked byte-for-byte against a lone-session replay.

   Gate discipline: wall-clock numbers (q/s, percentiles) are reported
   but never gated — only integrity counters that are deterministic by
   construction.  Cache hit/miss totals are exact only in the
   single-client run (concurrent first-probes of the same key can race,
   each miss planning the same text); the concurrent runs gate the
   boolean hit-rate floor instead. *)
let e4 () =
  section "E4" "concurrent query server: shared plan cache under load";
  let module Server = Eds_server.Server in
  let module Loadtest = Eds_server.Loadtest in
  let twin = Session.create () in
  Loadtest.apply_setup twin;
  let expected = Loadtest.expected_payloads twin in
  let total = 480 in
  List.iter
    (fun clients ->
      let s = Session.create () in
      Loadtest.apply_setup s;
      let srv = Server.start s in
      Fun.protect
        ~finally:(fun () -> Server.stop srv)
        (fun () ->
          let per_client = total / clients in
          let o =
            Loadtest.run ~expected ~port:(Server.port srv) ~clients ~per_client ()
          in
          row
            "  %2d clients × %3d: %4d ok, %5.0f q/s, p50 %5.2f ms, p95 %5.2f ms, \
             p99 %5.2f ms, hit rate %.2f@."
            clients per_client o.Loadtest.ok o.Loadtest.qps o.Loadtest.p50_ms
            o.Loadtest.p95_ms o.Loadtest.p99_ms o.Loadtest.hit_rate;
          let key fmt = Fmt.str ("e4.c%d." ^^ fmt) clients in
          metric_int (key "ok") o.Loadtest.ok;
          metric_int (key "dropped_connections") o.Loadtest.dropped_connections;
          metric_int (key "protocol_errors") o.Loadtest.protocol_errors;
          metric_int (key "busy_refusals") o.Loadtest.busy;
          metric_int (key "error_responses") o.Loadtest.errors;
          metric_bool (key "bit_identical") o.Loadtest.bit_identical;
          metric_bool (key "hit_rate_gt_half") (o.Loadtest.hit_rate > 0.5);
          metric_float (key "qps") o.Loadtest.qps;
          metric_float (key "p95_ms") o.Loadtest.p95_ms;
          metric_float (key "p99_ms") o.Loadtest.p99_ms;
          if clients = 1 then begin
            (* sequential: exact, gateable cache totals — 8 distinct
               statements miss once each, everything else hits *)
            metric_int "e4.plan_cache.hits" o.Loadtest.cache_hits;
            metric_int "e4.plan_cache.misses" o.Loadtest.cache_misses;
            metric_float "e4.plan_cache.hit_rate" o.Loadtest.hit_rate
          end))
    [ 1; 4; 16 ];
  (* distinct literals: every request a text never seen before, so the
     exact-text cache alone would miss each one; the template-keyed cache
     plans each of the four templates once.  One client, so the miss
     count is exact and gated as a work counter. *)
  let s = Session.create () in
  Loadtest.apply_setup s;
  let srv = Server.start s in
  Fun.protect
    ~finally:(fun () -> Server.stop srv)
    (fun () ->
      let o = Loadtest.run_param ~port:(Server.port srv) ~clients:1 ~per_client:total () in
      row
        "  distinct literals, 1 client × %3d: %4d ok, %5.0f q/s, p50 %5.2f ms, \
         %d misses, hit rate %.2f, verified %b@."
        total o.Loadtest.ok o.Loadtest.qps o.Loadtest.p50_ms o.Loadtest.cache_misses
        o.Loadtest.hit_rate o.Loadtest.bit_identical;
      metric_int "e4.param.ok" o.Loadtest.ok;
      metric_int "e4.param.error_responses" o.Loadtest.errors;
      metric_bool "e4.param.bit_identical" o.Loadtest.bit_identical;
      metric_int "e4.param.plan_cache.misses" o.Loadtest.cache_misses;
      metric_bool "e4.param.hit_rate_ge_95" (o.Loadtest.hit_rate >= 0.95);
      metric_float "e4.param.qps" o.Loadtest.qps)

(* -- E5: mixed read/write load, lock-free snapshot reads ------------------ *)

(* Writers churn per-client private tables while shared-table SELECTs
   run concurrently against copy-on-write snapshots (EXPERIMENTS.md
   E5).  Every response — write acks included — is verified
   byte-for-byte against a per-client oracle replay.  The server has one
   exclusive section; writes and plan-cache misses enter it and nothing
   else on this load should.  [read_lock_acquisitions] counts the
   entries left after one per write request and one per miss, and is
   gated at zero: a cached SELECT never waits behind a writer.
   Wall-clock numbers are reported, never gated. *)
let e5 () =
  section "E5" "mixed read/write load: lock-free snapshot reads";
  let module Server = Eds_server.Server in
  let module Loadtest = Eds_server.Loadtest in
  let twin = Session.create () in
  Loadtest.apply_setup twin;
  let expected = Loadtest.expected_payloads twin in
  let total = 480 in
  List.iter
    (fun clients ->
      let s = Session.create () in
      Loadtest.apply_setup s;
      let srv = Server.start s in
      Fun.protect
        ~finally:(fun () -> Server.stop srv)
        (fun () ->
          let per_client = total / clients in
          (* registry counters are process-wide: this run's are deltas *)
          let counts () =
            let v key = int_of_float (Server.metric srv key) in
            let samples = Eds_obs.Metrics.registry_samples () in
            let requests verb =
              int_of_float
                (Eds_obs.Metrics.sum ~labels:[ ("verb", verb) ] samples "eds_queries_total")
            in
            ( v "server.rwlock.write_acquired",
              requests "write" + requests "explain" + v "server.plan_cache.misses" )
          in
          let x0, due0 = counts () in
          let o =
            Loadtest.run_mixed ~expected ~port:(Server.port srv) ~clients
              ~per_client ()
          in
          let x1, due1 = counts () in
          let entries = x1 - x0 in
          let unexplained = entries - (due1 - due0) in
          row
            "  %2d clients × %3d: %4d ok (%3d writes), %5.0f q/s, p95 %5.2f ms, \
             %d exclusive entries (%d unexplained)@."
            clients per_client o.Loadtest.ok o.Loadtest.writes o.Loadtest.qps
            o.Loadtest.p95_ms entries unexplained;
          let key fmt = Fmt.str ("e5.c%d." ^^ fmt) clients in
          metric_int (key "ok") o.Loadtest.ok;
          metric_int (key "writes") o.Loadtest.writes;
          metric_int (key "dropped_connections") o.Loadtest.dropped_connections;
          metric_int (key "protocol_errors") o.Loadtest.protocol_errors;
          metric_int (key "busy_refusals") o.Loadtest.busy;
          metric_int (key "error_responses") o.Loadtest.errors;
          metric_bool (key "bit_identical") o.Loadtest.bit_identical;
          metric_int (key "read_lock_acquisitions") unexplained;
          metric_float (key "qps") o.Loadtest.qps;
          metric_float (key "p95_ms") o.Loadtest.p95_ms))
    [ 1; 4; 16 ]

(* -- E6: always-on telemetry — overhead, agreement, accounting ------------ *)

(* Three claims, each gated (EXPERIMENTS.md §E6): (1) the always-on
   metrics registry costs ≤ 5% of E4 loadgen throughput (best-of-3 each
   way, metrics force-disabled vs enabled); (2) the server-side latency
   histogram agrees with client-side percentiles within one log₂ bucket
   at 16 concurrent clients; (3) the EXPLAIN ANALYZE per-operator report
   accounts for the E2 work counters exactly — summing a counter over
   the report tree reproduces an independent plain run's stats. *)
let e6 () =
  section "E6" "always-on telemetry: overhead, percentiles, accounting";
  let module Server = Eds_server.Server in
  let module Loadtest = Eds_server.Loadtest in
  let module Metrics = Eds_obs.Metrics in
  let twin = Session.create () in
  Loadtest.apply_setup twin;
  let expected = Loadtest.expected_payloads twin in
  let run_once ~clients ~per_client =
    let s = Session.create () in
    Loadtest.apply_setup s;
    let srv = Server.start s in
    Fun.protect
      ~finally:(fun () -> Server.stop srv)
      (fun () ->
        Loadtest.run ~expected ~port:(Server.port srv) ~clients ~per_client ())
  in
  (* (1) recording overhead.  The end-to-end A/B (registry force-gated
     off vs on, sequential so scheduling noise is minimal, off/on runs
     alternating so machine drift lands on both sides) is reported —
     but its run-to-run wall-clock noise (±5-10% on a shared box)
     swamps a sub-1% effect, so the gated figure times the record path
     itself: the per-request metric work (two histogram observes for
     the duration and execute-phase cells, the verb/outcome and cache
     counters, and the evaluator's 8-field stats batch) measured over
     200k iterations, as a fraction of the mean request service time.
     That ratio is what "cheap enough to leave on" means, and it is
     stable enough to gate at 5%. *)
  let timed enabled =
    Metrics.set_enabled enabled;
    Fun.protect
      ~finally:(fun () -> Metrics.set_enabled true)
      (fun () ->
        let o = run_once ~clients:1 ~per_client:800 in
        o.Loadtest.qps)
  in
  let qps_off = ref 0. and qps_on = ref 0. in
  List.iter
    (fun _ ->
      qps_off := Float.max !qps_off (timed false);
      qps_on := Float.max !qps_on (timed true))
    [ 1; 2; 3 ];
  let qps_off = !qps_off and qps_on = !qps_on in
  let e2e_delta_pct =
    if qps_off <= 0. then 0. else (qps_off -. qps_on) /. qps_off *. 100.
  in
  let record_ns =
    let h = Metrics.histogram "e6_bench_record_seconds" in
    let c = Metrics.counter "e6_bench_record_total" in
    let iters = 200_000 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to iters do
      Metrics.Histogram.observe h 1.2e-4;
      Metrics.Histogram.observe h 0.9e-4;
      Metrics.Counter.incr c;
      Metrics.Counter.incr c;
      for _ = 1 to 8 do
        Metrics.Counter.add c 3
      done
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int iters *. 1e9
  in
  let request_ns = if qps_on > 0. then 1e9 /. qps_on else 0. in
  let overhead_pct =
    if request_ns > 0. then record_ns /. request_ns *. 100. else 0.
  in
  row
    "  throughput: %5.0f q/s metrics off, %5.0f q/s on (e2e delta %+.1f%%, \
     noise-bound)@."
    qps_off qps_on e2e_delta_pct;
  row "  record path: %.0f ns per request of %.0f ns → overhead %.2f%%@."
    record_ns request_ns overhead_pct;
  metric_float "e6.qps_metrics_off" qps_off;
  metric_float "e6.qps_metrics_on" qps_on;
  metric_float "e6.e2e_delta_pct" e2e_delta_pct;
  metric_float "e6.record_path_ns" record_ns;
  metric_float "e6.metrics_overhead_pct" overhead_pct;
  metric_bool "e6.metrics_overhead_le_5pct" (overhead_pct <= 5.0);
  (* (2) server-side histogram vs client-side percentiles at 16 clients *)
  let o = run_once ~clients:16 ~per_client:30 in
  row
    "  16 clients: client p50/p95/p99 %5.2f/%5.2f/%5.2f ms, server \
     %5.2f/%5.2f/%5.2f ms, agree %b@."
    o.Loadtest.p50_ms o.Loadtest.p95_ms o.Loadtest.p99_ms
    o.Loadtest.server_p50_ms o.Loadtest.server_p95_ms o.Loadtest.server_p99_ms
    o.Loadtest.server_within_client;
  row "  means: client %.3f ms = ping floor %.3f ms + server %.3f ms (+ noise)@."
    o.Loadtest.client_mean_ms o.Loadtest.ping_mean_ms o.Loadtest.server_mean_ms;
  metric_float "e6.c16.client_p99_ms" o.Loadtest.p99_ms;
  metric_float "e6.c16.server_p99_ms" o.Loadtest.server_p99_ms;
  (* the full two-sided cross-check (mean identity + floor-adjusted
     median) is enforced by the out-of-process CI smoke via loadgen
     --check-percentiles; in-process the loadgen shares the server's
     runtime lock, which inflates client-side readings of multi-chunk
     replies, so only the structural direction is gateable here *)
  metric_bool "e6.c16.server_le_client" o.Loadtest.server_within_client;
  metric_bool "e6.c16.bit_identical" o.Loadtest.bit_identical;
  (* (3) EXPLAIN ANALYZE accounting on the Fig. 8 workload: report-tree
     sums must reproduce an independent plain run's E2 work counters *)
  let s = Workloads.film_session ~films:200 ~actors:100 in
  let db = Session.database s in
  let plan =
    Session.explain s
      {|SELECT Title FROM FILM, APPEARS_IN
        WHERE FILM.Numf = APPEARS_IN.Numf AND FILM.Numf = 7|}
  in
  List.iter
    (fun (key, label, rel) ->
      let plain, r_plain =
        Workloads.eval_work_physical Eval.Physical.Indexed db rel
      in
      let r_an, report =
        Eval.run_analyzed ~physical:Eval.Physical.Indexed db rel
      in
      let total get = Eval.fold_report (fun acc n -> acc + get n) 0 report in
      let combos = total (fun n -> n.Eval.combinations) in
      let probes = total (fun n -> n.Eval.probes) in
      let builds = total (fun n -> n.Eval.builds) in
      let matches =
        combos = plain.Eval.combinations
        && probes = plain.Eval.probes
        && builds = plain.Eval.builds
        && Relation.equal r_plain r_an
      in
      row
        "  %-26s report sums %6d combos + %6d probes + %5d builds, match %b@."
        label combos probes builds matches;
      metric_bool (key ^ ".analyze_sums_match") matches)
    [
      ("e6.fig8_unrewritten", "Fig. 8 join, unrewritten", plan.Session.translated);
      ("e6.fig8_rewritten", "Fig. 8 join, rewritten", plan.Session.rewritten);
    ]

(* -- E7: interned, columnar storage — vectorized loops vs boxed ------------ *)

(* The columnar A/B (DESIGN.md decision 14) at the layer where both
   representations live: the two join executors of {!Join_plan} on the
   same operands and plan, each with the residual test and projection
   the Indexed layer applies ({!Workloads.join_executors}).  The boxed
   executor is the seed implementation and the only one for inputs
   without a columnar shadow.  The work counters must be identical —
   the columnar executor changes the representation, not the algorithm
   — so result+counter parity and columnar-path liveness are gated
   booleans; the wall-clock and allocation shrinkage is the payoff
   recorded in EXPERIMENTS.md §E7.  Allocation is measured in kilowords
   and gated decrease-or-hold: the columnar loops must never start
   allocating per tuple again. *)
let e7 () =
  section "E7" "columnar layout: the two join executors on one plan";
  let time f =
    ignore (f ());
    (* warm-up *)
    let reps = 3 in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (f ())
    done;
    (Unix.gettimeofday () -. t0) /. float_of_int reps *. 1000.
  in
  let alloc_kwords f =
    (* measured on a fresh domain: Gc.allocated_bytes is domain-local,
       and a clean domain carries none of the earlier sections' worker
       threads, so the sequential run's count is exact and repeatable *)
    Domain.join
      (Domain.spawn (fun () ->
           ignore (f ());
           let b0 = Gc.allocated_bytes () in
           ignore (f ());
           int_of_float ((Gc.allocated_bytes () -. b0) /. float_of_int (8 * 1000))))
  in
  row "  %-26s %10s %10s %8s %9s %s@." "" "boxed" "columnar" "speedup"
    "alloc kw" "parity";
  let compare key label db q =
    (* building the executors forces the lazy column build out of the
       measured runs *)
    let ex = Workloads.join_executors db q in
    let columnar_live = Option.is_some ex.Workloads.columnar in
    let boxed = ex.Workloads.boxed in
    let columnar = Option.value ex.Workloads.columnar ~default:boxed in
    let sb = Eval.fresh_stats () in
    let rb = boxed sb in
    let sc = Eval.fresh_stats () in
    let rc = columnar sc in
    let canonical = List.sort_uniq Relation.compare_tuples in
    let equal = canonical rb = canonical rc in
    let counters_equal =
      sb.Eval.combinations = sc.Eval.combinations
      && sb.Eval.probes = sc.Eval.probes
      && sb.Eval.builds = sc.Eval.builds
      && List.length rb = List.length rc
    in
    let t_boxed = time (fun () -> boxed (Eval.fresh_stats ())) in
    let t_col = time (fun () -> columnar (Eval.fresh_stats ())) in
    let speedup = t_boxed /. t_col in
    metric_int (key ^ ".combinations") sc.Eval.combinations;
    metric_int (key ^ ".probes") sc.Eval.probes;
    metric_int (key ^ ".builds") sc.Eval.builds;
    metric_bool (key ^ ".equal") equal;
    metric_bool (key ^ ".counters_equal") counters_equal;
    metric_bool (key ^ ".columnar_live") columnar_live;
    metric_float (key ^ ".boxed_ms") t_boxed;
    metric_float (key ^ ".columnar_ms") t_col;
    metric_float (key ^ ".speedup") speedup;
    let a_boxed = alloc_kwords (fun () -> boxed (Eval.fresh_stats ())) in
    let a_col = alloc_kwords (fun () -> columnar (Eval.fresh_stats ())) in
    (* the columnar count is exactly repeatable (int loops, no
       hash-bucket shape sensitivity) and gated decrease-or-hold; the
       boxed baseline is bimodal across processes (hash-table growth
       interacts with minor-heap phase), so it is reported under a
       non-gated key and only the 2x-margin shrink claim is asserted *)
    metric_int (key ^ ".boxed_heap_kwords") a_boxed;
    metric_int (key ^ ".columnar_alloc_kwords") a_col;
    metric_bool (key ^ ".alloc_shrinks") (2 * a_col <= a_boxed);
    row "  %-26s %8.2fms %8.2fms %7.1fx %4d→%-4d equal %b, counters %b, live %b@."
      label t_boxed t_col speedup a_boxed a_col equal counters_equal
      columnar_live;
    speedup
  in
  (* the E2 chain join at its bench sizes: counter-parity evidence *)
  ignore (compare "e7.chain40" "R⋈S⋈T, size 40" (Workloads.chain_join_db ~size:40)
            Workloads.chain_join_query);
  (* the E3 fat-intermediate chain: the hot-loop payoff *)
  let s_chain =
    compare "e7.chain2000_fan50" "chain 2000 fan 50"
      (Workloads.fat_chain_db ~size:2000 ~fan:50)
      Workloads.fat_chain_query
  in
  (* a Figure-8-shaped selective join over interned CHAR columns: FILM ⋈
     APPEARS_IN with a selective Title probe, every title distinct so the
     intern table carries real weight *)
  let module Vtype = Eds_value.Vtype in
  let films = 4000 in
  let fig8_db =
    let db = Database.create () in
    Database.add_relation db "FILM8"
      (Relation.make
         [ ("Numf", Vtype.Int); ("Title", Vtype.String) ]
         (List.init films (fun i ->
              [ Value.Int i; Value.Str (Fmt.str "e7film-%d" i) ])));
    Database.add_relation db "APPEARS8"
      (Relation.make
         [ ("Numf", Vtype.Int); ("Actor", Vtype.String) ]
         (List.concat_map
            (fun i ->
              List.init 5 (fun j ->
                  [ Value.Int i; Value.Str (Fmt.str "e7actor-%d" ((i + j) mod 97)) ]))
            (List.init films Fun.id)));
    db
  in
  let fig8_q =
    Lera.Search
      ( [ Lera.Base "FILM8"; Lera.Base "APPEARS8" ],
        Lera.conj
          [
            Lera.eq (Lera.col 1 1) (Lera.col 2 1);
            Lera.eq (Lera.col 2 2) (Lera.Cst (Value.Str "e7actor-13"));
          ],
        [ Lera.col 1 2 ] )
  in
  let s_fig8 = compare "e7.fig8" "Fig. 8 interned CHAR join" fig8_db fig8_q in
  metric_int "e7.interned_strings" (Eds_value.Intern.size ());
  row "  intern table: %d distinct strings@." (Eds_value.Intern.size ());
  (* the headline gate: the hot loops must hold a 5x margin on at least
     one of the heavy workloads (chain-2000, fig8) *)
  let best = Float.max s_fig8 s_chain in
  metric_float "e7.best_speedup" best;
  metric_bool "e7.speedup_ge_5" (best >= 5.0);
  row "  best columnar speedup: %.1fx (gate: >= 5x)@." best

let e8 () =
  section "E8"
    "materialized views: incremental maintenance vs recompute-per-read";
  (* An update-heavy reachability workload: [chains] disjoint chains of
     [len] edges each, then [n_ops] DML statements — head-prepending
     INSERTs on a rotating chain (the inserted edge joins the already
     materialized closure, so the delta saturates in a round or two), a
     periodic mid-chain DELETE (delete-and-rederive) and its re-INSERT —
     with the full transitive closure read back after every statement.
     The maintained session answers each read from the stored extent and
     pays a delta confined to the touched chain on writes; the twin
     session with the same view kept {e plain} re-expands the fixpoint
     over the whole graph on every read, which is exactly what a reader
     had to do before this subsystem existed. *)
  let chains = 48 in
  let len = 28 in
  let n_ops = 48 in
  (* node [i] of chain [c]; [i] goes negative as heads are prepended *)
  let node c i = (c * 1000) + 500 + i in
  let probe = "SELECT TC.A, TC.B FROM TC" in
  let view_body =
    "( SELECT Src, Dst FROM EDGE UNION SELECT E.Src, TC.B FROM EDGE E, TC \
     WHERE E.Dst = TC.A )"
  in
  (* one full run on a fresh session; only the op loop is timed *)
  let run ~materialized () =
    let s = Session.create () in
    let exec stmt = ignore (Session.exec_string s stmt) in
    exec "TABLE EDGE (Src : INT, Dst : INT)";
    exec
      (Fmt.str "CREATE %sVIEW TC (A, B) AS %s"
         (if materialized then "MATERIALIZED " else "")
         view_body);
    for c = 0 to chains - 1 do
      for i = 0 to len - 1 do
        exec
          (Fmt.str "INSERT INTO EDGE VALUES (%d, %d)" (node c i)
             (node c (i + 1)))
      done
    done;
    (* the registry's evaluator totals: this loop is the process's only
       evaluation while it runs *)
    let total family =
      int_of_float (Eds_obs.Metrics.sum (Eds_obs.Metrics.samples ()) family)
    in
    let work () =
      ( total "eds_eval_combinations_total",
        total "eds_eval_probes_total",
        total "eds_eval_builds_total" )
    in
    let c0, p0, b0 = work () in
    let heads = Array.make chains 0 in
    let last = ref (Relation.empty []) in
    let t0 = Unix.gettimeofday () in
    for j = 0 to n_ops - 1 do
      let c = j mod chains in
      (match j mod 12 with
      | 6 ->
        exec
          (Fmt.str "DELETE FROM EDGE WHERE Src = %d AND Dst = %d" (node c 3)
             (node c 4))
      | 7 ->
        let c' = (j - 1) mod chains in
        exec
          (Fmt.str "INSERT INTO EDGE VALUES (%d, %d)" (node c' 3) (node c' 4))
      | _ ->
        let h = heads.(c) in
        exec
          (Fmt.str "INSERT INTO EDGE VALUES (%d, %d)" (node c (h - 1))
             (node c h));
        heads.(c) <- h - 1);
      last := Session.query s probe
    done;
    let ms = (Unix.gettimeofday () -. t0) *. 1000. in
    let c1, p1, b1 = work () in
    (ms, !last, (c1 - c0, p1 - p0, b1 - b0), Session.mv_stats s)
  in
  let avg ~materialized =
    ignore (run ~materialized ());
    (* warm-up *)
    let reps = 3 in
    let acc = ref 0. in
    let out = ref None in
    for _ = 1 to reps do
      let ms, rel, work, mv = run ~materialized () in
      acc := !acc +. ms;
      out := Some (rel, work, mv)
    done;
    let rel, work, mv = Option.get !out in
    (!acc /. float_of_int reps, rel, work, mv)
  in
  let t_mv, r_mv, (mc, mp, mb), mv = avg ~materialized:true in
  let t_plain, r_plain, (pc, _, _), _ = avg ~materialized:false in
  let equal = Relation.equal r_mv r_plain in
  let speedup = t_plain /. t_mv in
  row
    "  %d chains × %d edges + %d DML, closure read back after every \
     statement@."
    chains len n_ops;
  row "  plain view (recompute per read) : %8.1fms  %9d combinations@."
    t_plain pc;
  row "  materialized (incremental)      : %8.1fms  %9d combinations@." t_mv
    mc;
  row
    "  maintenance: %d incremental steps, %d fallback recomputes, %d delta \
     tuples@."
    mv.Eds_engine.Materializer.maintenance_runs
    mv.Eds_engine.Materializer.fallback_recomputes
    mv.Eds_engine.Materializer.delta_tuples;
  row "  speedup %.1fx (gate: >= 5x), extents identical: %b@." speedup equal;
  metric_int "e8.maintained_combinations" mc;
  metric_int "e8.maintained_probes" mp;
  metric_int "e8.maintained_builds" mb;
  metric_int "e8.recompute_combinations" pc;
  metric_int "e8.maintenance_steps"
    mv.Eds_engine.Materializer.maintenance_runs;
  metric_int "e8.fallback_recomputes"
    mv.Eds_engine.Materializer.fallback_recomputes;
  metric_int "e8.delta_tuples" mv.Eds_engine.Materializer.delta_tuples;
  metric_float "e8.maintained_ms" t_mv;
  metric_float "e8.recompute_ms" t_plain;
  metric_float "e8.maintain_speedup" speedup;
  metric_bool "e8.maintain_speedup_ge_5" (speedup >= 5.0);
  metric_bool "e8.bit_identical" equal

let e9 () =
  section "E9"
    "rule lab: differential verifier catch rate + rule discovery savings";
  (* catch rate on the committed known-bad corpus: every rule must be
     flagged unsound with a replayable, shrunk counterexample *)
  let bad = Rule_parser.parse_rules Corpus.known_bad in
  let bad_report = Verify.verify_rules ~trials:32 bad in
  let flagged, replayed, max_shrink =
    List.fold_left
      (fun (f, rep, mx) (rr : Verify.rule_report) ->
        match rr.Verify.soundness with
        | Verify.Unsound ce ->
          ( f + 1,
            (rep && Verify.check_counterexample rr.Verify.rule ce),
            max mx ce.Verify.shrink_steps )
        | _ -> (f, rep, mx))
      (0, true, 0) bad_report.Verify.rules
  in
  row "  known-bad corpus: %d/%d rules flagged unsound, replayable: %b@."
    flagged (List.length bad) replayed;
  row "  deepest shrink: %d accepted steps@." max_shrink;
  (* the paper's own rule library must come out clean *)
  let paper_report = Verify.verify_rules ~trials:32 (Rulesets.all ()) in
  row "  paper rules: clean %b, %d/%d exercised on the seeded trials@."
    (Verify.clean paper_report)
    (Verify.exercised paper_report)
    (List.length paper_report.Verify.rules);
  (* discovery: enumerate, screen, measure, verify *)
  let d = Discover.run ~screen_trials:16 ~verify_trials:16 ~max_candidates:80 () in
  row "  discovery: %d enumerated, %d screened out, %d without savings@."
    d.Discover.enumerated d.Discover.screened_out d.Discover.no_savings;
  List.iter
    (fun (c : Discover.candidate) ->
      row "    %a --> %a  (+%d work units, fired %d)@." Term.pp
        c.Discover.rule.Rule.lhs Term.pp c.Discover.rule.Rule.rhs
        c.Discover.savings c.Discover.fired)
    d.Discover.survivors;
  let best =
    match d.Discover.survivors with c :: _ -> c.Discover.savings | [] -> 0
  in
  metric_int "e9.corpus_size" (List.length bad);
  metric_int "e9.verifier.bad_flagged" flagged;
  metric_bool "e9.verifier.all_bad_flagged" (flagged = List.length bad);
  metric_bool "e9.verifier.counterexamples_replay" replayed;
  metric_bool "e9.verifier.paper_rules_clean" (Verify.clean paper_report);
  metric_int "e9.verifier.exercised" (Verify.exercised paper_report);
  metric_int "e9.discovery.survivors" (List.length d.Discover.survivors);
  metric_int "e9.discovery.best_savings" best;
  metric_bool "e9.discovery.positive_savings"
    (List.length d.Discover.survivors > 0 && best > 0)

let all () =
  Fmt.pr "EDS rule-based query rewriter — experiment report (per-figure)@.";
  Fmt.pr "paper: Finance & Gardarin, ICDE 1991 (no measured tables: each@.";
  Fmt.pr "figure is reproduced as an executable artifact and measured)@.";
  f1 ();
  f3 ();
  f4 ();
  f5 ();
  f6 ();
  f7 ();
  f8 ();
  f9 ();
  f10_11 ();
  f12 ();
  e1 ();
  e2 ();
  e3 ();
  e4 ();
  e5 ();
  e6 ();
  e7 ();
  e8 ();
  e9 ();
  c1 ();
  c2 ();
  c3 ();
  a1 ()
