(* Differential rule verification (the rule lab's soundness engine).

   A candidate rule is mounted as an extra block *in front of* the base
   program (redexes like filter(r, f) exist on the raw translated term
   and are consumed by the merging block, so a prepended block sees
   them).  For every trial — a plan seeded to contain redexes for the
   whole LERA vocabulary, or drawn from the random plan generator, plus
   a randomized instance — the query is rewritten twice, with and
   without the candidate, and both results are evaluated under the
   indexed physical layer.  A rule that changes results, or that makes
   the rewrite/evaluation pipeline fail where the baseline succeeded,
   is unsound; its counterexample is then shrunk greedily to a minimal
   failing plan + instance.

   The candidate block always gets a finite condition-check limit, so
   nonterminating rules stay bounded during verification; whether the
   rule *needs* a limit is reported separately by the static
   termination audit (Rule_analysis).  A final pack-level pass mounts
   all rules together under an Obs.Profile and replays the trials to
   find dead rules (never fire) and shadowed rules (dead, but overlap
   an earlier rule that did fire). *)

module Term = Eds_term.Term
module Value = Eds_value.Value
module Lera = Eds_lera.Lera
module Relation = Eds_engine.Relation
module Database = Eds_engine.Database
module Eval = Eds_engine.Eval
module Rule = Eds_rewriter.Rule
module Rule_parser = Eds_rewriter.Rule_parser
module Rule_analysis = Eds_rewriter.Rule_analysis
module Engine = Eds_rewriter.Engine
module Optimizer = Eds_rewriter.Optimizer
module Obs = Eds_obs.Obs
module Metrics = Eds_obs.Metrics

let m_rules =
  Metrics.counter ~help:"Rules checked by the differential verifier"
    "eds_rulelab_rules_checked_total"

let m_trials =
  Metrics.counter ~help:"Differential verification trials run"
    "eds_rulelab_trials_total"

let m_unsound =
  Metrics.counter ~help:"Rules flagged unsound by the verifier"
    "eds_rulelab_unsound_total"

let m_shrink =
  Metrics.counter ~help:"Counterexample shrinking steps taken"
    "eds_rulelab_shrink_steps_total"

(* -- reports ------------------------------------------------------------- *)

type counterexample = {
  plan : Lera.rel;
  relations : (string * Relation.t) list;
  expected : Relation.t;
  got : (Relation.t, string) result;
  shrink_steps : int;
}

type soundness =
  | Sound of { fired : int; trials : int }
  | Not_exercised of { trials : int }
  | Unsound of counterexample

type liveness = Live | Dead | Shadowed of string

type rule_report = {
  rule : Rule.t;
  soundness : soundness;
  behaviour : Rule_analysis.size_behaviour;
  warnings : Rule_analysis.warning list;
  liveness : liveness;
}

type report = {
  rules : rule_report list;
  overlaps : (string * string) list;
  trials : int;
  seed : int;
}

let clean r =
  List.for_all
    (fun rr -> match rr.soundness with Unsound _ -> false | _ -> true)
    r.rules

let unsound r =
  List.filter
    (fun rr -> match rr.soundness with Unsound _ -> true | _ -> false)
    r.rules

let exercised r =
  List.length
    (List.filter
       (fun rr ->
         match rr.soundness with
         | Sound { fired; _ } -> fired > 0
         | Unsound _ -> true
         | Not_exercised _ -> false)
       r.rules)

(* -- seeded redex templates ---------------------------------------------- *)

let c = Lera.col
let k n = Lera.Cst (Value.Int n)
let lt a b = Lera.Call ("<", [ a; b ])
let le a b = Lera.Call ("<=", [ a; b ])
let ge a b = Lera.Call (">=", [ a; b ])
let gt a b = Lera.Call (">", [ a; b ])
let ne a b = Lera.Call ("<>", [ a; b ])
let r0 = Lera.Base "R0"
let r1 = Lera.Base "R1"
let r2 = Lera.Base "R2"

let tc_fix =
  Lera.Fix
    ( "TCV",
      Lera.Union
        [
          Lera.Base "EDGE";
          Lera.Search
            ( [ Lera.Rvar "TCV"; Lera.Base "EDGE" ],
              Lera.eq (c 1 2) (c 2 1),
              [ c 1 1; c 2 2 ] );
        ] )

(* one plan per redex family of the LERA vocabulary: plain and stacked
   filters, searches with every comparison operator, unions (duplicate,
   mixed, nested), diff/inter, joins, nest/unnest, fixpoints plain and
   under a constant selection (the magic-sets redex), plus
   qualification shapes the semantic/simplification blocks feed on *)
let templates =
  [
    Lera.Filter (r0, lt (c 1 1) (k 4));
    Lera.Filter (Lera.Filter (r1, lt (c 1 1) (k 4)), Lera.eq (c 1 2) (k 2));
    Lera.Filter (r0, Lera.tru);
    Lera.Search
      ( [ r0; r1 ],
        Lera.conj [ Lera.eq (c 1 1) (c 2 1); le (c 1 2) (k 5) ],
        [ c 1 2; c 2 2 ] );
    Lera.Search (r2 :: [], Lera.conj [ gt (c 1 3) (k 1); ge (c 1 1) (k 2) ], [ c 1 1; c 1 3 ]);
    Lera.Search
      ( [ Lera.Search (r2 :: [], lt (c 1 1) (k 5), [ c 1 1; c 1 2 ]) ],
        Lera.eq (c 1 2) (k 3),
        [ c 1 1 ] );
    Lera.Search
      ( [ r0 ],
        Lera.conj [ Lera.eq (c 1 1) (c 1 2); Lera.eq (c 1 2) (k 3) ],
        [ c 1 1; c 1 2 ] );
    Lera.Search ([ r1 ], Lera.Call ("not", [ lt (c 1 1) (c 1 2) ]), [ c 1 1 ]);
    Lera.Filter (r0, le (c 1 1) (k 3));
    Lera.Filter (r1, ge (c 1 2) (k 3));
    Lera.Search ([ r2 ], le (c 1 1) (c 1 2), [ c 1 1; c 1 2 ]);
    Lera.Union [ r0; r0 ];
    Lera.Union [ r0; r1 ];
    Lera.Union [ Lera.Union [ r0; r1 ]; Lera.Base "EDGE" ];
    Lera.Inter (r0, r0);
    Lera.Inter (r0, r1);
    Lera.Diff (r1, r0);
    Lera.Search ([ Lera.Diff (r0, r1) ], Lera.eq (c 1 1) (k 2), [ c 1 2 ]);
    Lera.Search ([ Lera.Inter (r0, r1) ], lt (c 1 1) (k 3), [ c 1 1 ]);
    Lera.Search ([ Lera.Union [ r0; r1 ] ], Lera.eq (c 1 1) (k 2), [ c 1 2 ]);
    Lera.Join (r0, r1, Lera.conj [ Lera.eq (c 1 1) (c 2 1); ne (c 1 2) (c 2 2) ]);
    Lera.Project (r2, [ c 1 1; c 1 3 ]);
    tc_fix;
    Lera.Search ([ tc_fix ], Lera.eq (c 1 1) (k 2), [ c 1 2 ]);
    Lera.Nest (r2, [ 1 ], [ 2 ]);
    Lera.Search ([ Lera.Nest (r2, [ 1 ], [ 2 ]) ], Lera.eq (c 1 1) (k 3), [ c 1 1 ]);
    Lera.Unnest (Lera.Nest (r0, [ 1 ], [ 2 ]), 2);
  ]

let make_trials ~seed ~trials =
  let rand = Random.State.make [| seed |] in
  List.init trials (fun i ->
      let plan =
        match List.nth_opt templates i with
        | Some p -> p
        | None -> fst (Gen.plan rand)
      in
      (plan, Gen.instance rand))

(* -- the differential core ----------------------------------------------- *)

let budget = 300 (* candidate-block condition checks per rewrite *)
let cand_block ?(limit = budget) rules =
  { Rule.block_name = "~candidate"; rules; limit = Some limit }

let mount base rules =
  { Rule.blocks = cand_block rules :: base.Rule.blocks; rounds = base.Rule.rounds }

(* a reserved alias keeps Engine.stats.by_rule unambiguous even when the
   candidate duplicates a base-program rule (self-verification) *)
let alias r = { r with Rule.name = r.Rule.name ^ "~cand" }

let evaluate db rel =
  match Eval.run ~physical:Eval.Physical.Indexed db rel with
  | r -> Ok r
  | exception e -> Error (Printexc.to_string e)

type verdict =
  | Skip  (** the baseline itself fails on this trial *)
  | Agree of bool  (** fired? *)
  | Differ of Relation.t * (Relation.t, string) result

(* the rule-independent half of a trial: rewrite with the base program
   alone and evaluate; [None] when the baseline itself fails *)
let baseline_of ~ctx ~base db plan =
  match Optimizer.rewrite ~program:base ctx plan with
  | exception _ -> None
  | baseline -> (
    match evaluate db baseline with Error _ -> None | Ok r -> Some r)

let with_candidate ~ctx ~base ~rule ~expected db plan =
  let aliased = alias rule in
  let with_prog = mount base [ aliased ] in
  Metrics.Counter.incr m_trials;
  let stats = Engine.fresh_stats () in
  let fired st =
    match List.assoc_opt aliased.Rule.name st.Engine.by_rule with
    | Some n -> n > 0
    | None -> false
  in
  match Optimizer.rewrite ~program:with_prog ~stats ctx plan with
  | exception e ->
    if fired stats then Differ (expected, Error (Printexc.to_string e))
    else Skip
  | rewritten ->
    if not (fired stats) then Agree false
    else (
      match evaluate db rewritten with
      | Error msg -> Differ (expected, Error msg)
      | Ok got ->
        if Relation.equal expected got then Agree true
        else Differ (expected, Ok got))

let differential ~ctx ~base ~rule db plan =
  match baseline_of ~ctx ~base db plan with
  | None -> Skip
  | Some expected -> with_candidate ~ctx ~base ~rule ~expected db plan

let fails ~ctx ~base ~rule db plan =
  match differential ~ctx ~base ~rule db plan with
  | Differ _ -> true
  | Skip | Agree _ -> false

(* -- counterexample shrinking -------------------------------------------- *)

let drop_one xs =
  List.mapi (fun i _ -> List.filteri (fun j _ -> j <> i) xs) xs

let shrink_qual q =
  match Lera.conjuncts q with
  | [] | [ _ ] -> []
  | cs -> List.map Lera.conj (drop_one cs)

(* candidate replacements, structurally smaller; arity-breaking
   candidates are discarded by re-running the property (an invalid plan
   no longer *fails*, it just errors in the baseline, which [fails]
   treats as Skip) *)
let rec shrink_rel r =
  let open Lera in
  let sub = inputs r in
  let rebuilt =
    match r with
    | Base _ | Rvar _ -> []
    | Filter (a, q) ->
      List.map (fun a' -> Filter (a', q)) (shrink_rel a)
      @ List.map (fun q' -> Filter (a, q')) (shrink_qual q)
    | Project (a, ps) -> List.map (fun a' -> Project (a', ps)) (shrink_rel a)
    | Join (a, b, q) ->
      List.map (fun a' -> Join (a', b, q)) (shrink_rel a)
      @ List.map (fun b' -> Join (a, b', q)) (shrink_rel b)
      @ List.map (fun q' -> Join (a, b, q')) (shrink_qual q)
    | Union ops ->
      (if List.length ops > 1 then List.map (fun l -> Union l) (drop_one ops)
       else [])
      @ List.concat
          (List.mapi
             (fun i op ->
               List.map
                 (fun op' ->
                   Union (List.mapi (fun j o -> if j = i then op' else o) ops))
                 (shrink_rel op))
             ops)
    | Diff (a, b) ->
      List.map (fun a' -> Diff (a', b)) (shrink_rel a)
      @ List.map (fun b' -> Diff (a, b')) (shrink_rel b)
    | Inter (a, b) ->
      List.map (fun a' -> Inter (a', b)) (shrink_rel a)
      @ List.map (fun b' -> Inter (a, b')) (shrink_rel b)
    | Search (ops, q, ps) ->
      (if List.length ops > 1 then
         List.map (fun l -> Search (l, q, ps)) (drop_one ops)
       else [])
      @ List.map (fun q' -> Search (ops, q', ps)) (shrink_qual q)
      @ (if List.length ps > 1 then
           List.map (fun ps' -> Search (ops, q, ps')) (drop_one ps)
         else [])
      @ List.concat
          (List.mapi
             (fun i op ->
               List.map
                 (fun op' ->
                   Search
                     (List.mapi (fun j o -> if j = i then op' else o) ops, q, ps))
                 (shrink_rel op))
             ops)
    | Fix (n, b) -> List.map (fun b' -> Fix (n, b')) (shrink_rel b)
    | Nest (a, g, ns) -> List.map (fun a' -> Nest (a', g, ns)) (shrink_rel a)
    | Unnest (a, i) -> List.map (fun a' -> Unnest (a', i)) (shrink_rel a)
  in
  sub @ rebuilt

let db_of_relations rels =
  let db = Database.create () in
  List.iter (fun (name, r) -> Database.add_relation db name r) rels;
  db

let relations_of_db db =
  List.map (fun n -> (n, Database.relation db n)) (Database.relation_names db)

let shrink_db db =
  List.concat_map
    (fun (name, r) ->
      let tuples = r.Relation.tuples in
      let n = List.length tuples in
      if n = 0 then []
      else
        let variants =
          if n > 6 then
            (* halves first, then single drops at the ends *)
            [
              List.filteri (fun i _ -> i < n / 2) tuples;
              List.filteri (fun i _ -> i >= n / 2) tuples;
              List.tl tuples;
              List.filteri (fun i _ -> i <> n - 1) tuples;
            ]
          else List.map (fun ts -> ts) (drop_one tuples)
        in
        List.map
          (fun ts ->
            let r' = Relation.make r.Relation.schema ts in
            List.map (fun (m, s) -> if m = name then (m, r') else (m, s))
              (relations_of_db db)
            |> db_of_relations)
          variants)
    (relations_of_db db)

let shrink ~ctx ~base ~rule ~max_steps plan db =
  let steps = ref 0 in
  let try_fails db plan =
    if !steps >= max_steps then false
    else begin
      incr steps;
      Metrics.Counter.incr m_shrink;
      fails ~ctx ~base ~rule db plan
    end
  in
  let rec go plan db =
    match List.find_opt (fun db' -> try_fails db' plan) (shrink_db db) with
    | Some db' -> go plan db'
    | None -> (
      match List.find_opt (fun p -> try_fails db p) (shrink_rel plan) with
      | Some p -> go p db
      | None -> (plan, db))
  in
  let plan, db = go plan db in
  (plan, db, !steps)

(* -- per-rule soundness -------------------------------------------------- *)

let check_rule ~ctx ~base ~trial_list ~baselines rule =
  Metrics.Counter.incr m_rules;
  let fired = ref 0 in
  let rec loop i =
    if i >= Array.length trial_list then None
    else
      match baselines.(i) with
      | None -> loop (i + 1)
      | Some expected -> (
        let plan, db = trial_list.(i) in
        match with_candidate ~ctx ~base ~rule ~expected db plan with
        | Skip -> loop (i + 1)
        | Agree f ->
          if f then incr fired;
          loop (i + 1)
        | Differ _ -> Some (plan, db))
  in
  match loop 0 with
  | None ->
    if !fired > 0 then Sound { fired = !fired; trials = Array.length trial_list }
    else Not_exercised { trials = Array.length trial_list }
  | Some (plan, db) ->
    Metrics.Counter.incr m_unsound;
    let plan, db, shrink_steps = shrink ~ctx ~base ~rule ~max_steps:400 plan db in
    let expected, got =
      match differential ~ctx ~base ~rule db plan with
      | Differ (e, g) -> (e, g)
      | Skip | Agree _ ->
        (* unreachable: [shrink] only keeps failing candidates *)
        (Relation.empty [], Error "counterexample no longer reproduces")
    in
    Unsound
      { plan; relations = relations_of_db db; expected; got; shrink_steps }

(* replay a counterexample: true when it still demonstrates the rule is
   unsound (used by tests and by sceptical operators) *)
let check_counterexample ?base rule ce =
  let base = match base with Some b -> b | None -> Optimizer.program () in
  let ctx = Optimizer.make_ctx (Database.schema_env (Gen.db ())) in
  fails ~ctx ~base ~rule (db_of_relations ce.relations) ce.plan

(* -- liveness: the pack-level profile pass ------------------------------- *)

let liveness_pass ~ctx ~base ~trial_list rules =
  let profile = Obs.Profile.create () in
  let ctx = { ctx with Engine.profile = Some profile } in
  let prog = mount base rules in
  Array.iter
    (fun (plan, _db) ->
      try ignore (Optimizer.rewrite ~program:prog ctx plan) with _ -> ())
    trial_list;
  let fires name =
    match
      List.assoc_opt ("~candidate", name) (Obs.Profile.cells profile)
    with
    | Some cell -> cell.Obs.Profile.fires
    | None -> 0
  in
  List.mapi
    (fun i rule ->
      if fires rule.Rule.name > 0 then Live
      else
        let shadow =
          List.find_opt
            (fun earlier ->
              fires earlier.Rule.name > 0
              && Rule_analysis.could_overlap earlier rule)
            (List.filteri (fun j _ -> j < i) rules)
        in
        match shadow with
        | Some earlier -> Shadowed earlier.Rule.name
        | None -> Dead)
    rules

(* -- entry points -------------------------------------------------------- *)

let verify_rules ?(seed = 42) ?(trials = 48) ?base rules =
  let base = match base with Some b -> b | None -> Optimizer.program () in
  let ctx = Optimizer.make_ctx (Database.schema_env (Gen.db ())) in
  let trial_list = Array.of_list (make_trials ~seed ~trials) in
  let baselines =
    Array.map (fun (plan, db) -> baseline_of ~ctx ~base db plan) trial_list
  in
  let liveness = liveness_pass ~ctx ~base ~trial_list rules in
  let reports =
    List.map2
      (fun rule liveness ->
        let soundness = check_rule ~ctx ~base ~trial_list ~baselines rule in
        {
          rule;
          soundness;
          behaviour = Rule_analysis.size_behaviour rule;
          warnings =
            Rule_analysis.check_block
              { Rule.block_name = "pack"; rules = [ rule ]; limit = None };
          liveness;
        })
      rules liveness
  in
  let overlaps =
    Rule_analysis.overlaps
      { Rule.block_name = "pack"; rules; limit = None }
  in
  { rules = reports; overlaps; trials; seed }

let verify_pack ?seed ?trials ?base text =
  verify_rules ?seed ?trials ?base (Rule_parser.parse_rules text)

(* -- rendering ----------------------------------------------------------- *)

let pp_counterexample ppf ce =
  Fmt.pf ppf "@[<v 4>counterexample (shrunk in %d steps):@ plan: %s"
    ce.shrink_steps (Lera.to_string ce.plan);
  List.iter
    (fun (name, r) ->
      if Relation.cardinality r > 0 then
        Fmt.pf ppf "@ %s = %a" name Relation.pp r)
    ce.relations;
  Fmt.pf ppf "@ expected: %a" Relation.pp ce.expected;
  (match ce.got with
  | Ok r -> Fmt.pf ppf "@ got     : %a" Relation.pp r
  | Error msg -> Fmt.pf ppf "@ got     : error: %s" msg);
  Fmt.pf ppf "@]"

let pp_rule_report ppf rr =
  (match rr.soundness with
  | Sound { fired; trials } ->
    Fmt.pf ppf "rule %-20s sound (fired in %d/%d trials)" rr.rule.Rule.name
      fired trials
  | Not_exercised { trials } ->
    Fmt.pf ppf "rule %-20s NOT EXERCISED (never fired in %d trials)"
      rr.rule.Rule.name trials
  | Unsound ce ->
    Fmt.pf ppf "rule %-20s UNSOUND@,    %a" rr.rule.Rule.name pp_counterexample
      ce);
  (match rr.liveness with
  | Live -> ()
  | Dead -> Fmt.pf ppf "@,    liveness: dead in pack context (never fired)"
  | Shadowed by -> Fmt.pf ppf "@,    liveness: shadowed by earlier rule %s" by);
  List.iter
    (fun w -> Fmt.pf ppf "@,    termination: %a" Rule_analysis.pp_warning w)
    rr.warnings

let pp_report ppf r =
  Fmt.pf ppf "@[<v>verified %d rules over %d trials (seed %d)@,"
    (List.length r.rules) r.trials r.seed;
  List.iter (fun rr -> Fmt.pf ppf "%a@," pp_rule_report rr) r.rules;
  (match r.overlaps with
  | [] -> ()
  | ps ->
    Fmt.pf ppf "overlaps (earlier rule wins the redex):@,";
    List.iter (fun (a, b) -> Fmt.pf ppf "    %s <-> %s@," a b) ps);
  let bad = List.length (unsound r) in
  if bad = 0 then Fmt.pf ppf "verdict: CLEAN (%d/%d rules exercised)@]"
      (exercised r) (List.length r.rules)
  else Fmt.pf ppf "verdict: %d UNSOUND RULE%s@]" bad
      (if bad = 1 then "" else "S")
