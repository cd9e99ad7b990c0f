(* The physical evaluation layer (Eval.Physical): the indexed hash-join
   evaluator against the naive cartesian reference.  Every relation
   carries a columnar shadow whose columns are typed where the cells
   allow and [Values] (boxed cells) elsewhere, so the one join executor
   is covered on typed keys, on [Values] keys and across the two, with
   Naive (always boxed) as the oracle.

   - golden cross-mode suite: on every fixture plan, Naive and Indexed
     produce Relation.equal results;
   - work bounds: the Figure-8-shaped selective join stays within a
     hash-work budget that the naive layer exceeds by orders of
     magnitude;
   - set-operation operand validation (union/diff/inter arity errors);
   - Join_plan equi-conjunct extraction, and a qcheck property that the
     executor, over operands of mixed flavors, yields exactly the
     cartesian combinations satisfying the qualification and counts
     exactly those satisfying its equi conjuncts;
   - a qcheck property over random schema-correct LERA plans, on the
     generator's database and on a twin where every other base relation
     has [Values] columns: Naive and Indexed agree, and the indexed
     layer's combinations and probes never exceed the naive layer's
     combinations;
   - columnar activation: qualifying plans actually take the vectorized
     paths (columnar_ops > 0), and mixed-flavor keys (Int against Real,
     Null, Bool, tuple- and set-valued cells, an empty operand) give
     Naive's answer. *)

module Value = Eds_value.Value
module Vtype = Eds_value.Vtype
module Lera = Eds_lera.Lera
module Relation = Eds_engine.Relation
module Database = Eds_engine.Database
module Eval = Eds_engine.Eval
module Join_plan = Eds_engine.Join_plan
module Column = Eds_engine.Column
module Expr_eval = Eds_engine.Expr_eval

let run_both ?mode db rel =
  let sn = Eval.fresh_stats () and si = Eval.fresh_stats () in
  let rn = Eval.run ?mode ~physical:Eval.Physical.Naive ~stats:sn db rel in
  let ri = Eval.run ?mode ~physical:Eval.Physical.Indexed ~stats:si db rel in
  ((rn, sn), (ri, si))

let run_indexed db rel =
  let s = Eval.fresh_stats () in
  let r = Eval.run ~physical:Eval.Physical.Indexed ~stats:s db rel in
  (r, s)

let check_agree ?mode name db rel =
  let (rn, sn), (ri, si) = run_both ?mode db rel in
  Alcotest.(check bool) (name ^ ": results equal") true (Relation.equal rn ri);
  Alcotest.(check bool)
    (Fmt.str "%s: indexed combos %d <= naive combos %d" name si.Eval.combinations
       sn.Eval.combinations)
    true
    (si.Eval.combinations <= sn.Eval.combinations);
  Alcotest.(check bool)
    (Fmt.str "%s: probes %d <= naive combos %d" name si.Eval.probes
       sn.Eval.combinations)
    true
    (si.Eval.probes <= sn.Eval.combinations)

(* -- golden cross-mode fixtures ----------------------------------------- *)

let test_golden_film () =
  let db, _ = Fixtures.film_db () in
  let join =
    Lera.Search
      ( [ Lera.Base "FILM"; Lera.Base "APPEARS_IN" ],
        Lera.conj
          [
            Lera.eq (Lera.col 1 1) (Lera.col 2 1);
            Lera.Call (">", [ Lera.Call ("salary", [ Lera.col 2 2 ]); Lera.Cst (Value.Real 10_000.) ]);
          ],
        [ Lera.col 1 2; Lera.col 2 2 ] )
  in
  check_agree "film join + ADT residual" db join;
  let three_way =
    Lera.Search
      ( [ Lera.Base "FILM"; Lera.Base "APPEARS_IN"; Lera.Base "DOMINATE" ],
        Lera.conj
          [
            Lera.eq (Lera.col 1 1) (Lera.col 2 1);
            Lera.eq (Lera.col 2 1) (Lera.col 3 1);
          ],
        [ Lera.col 1 2; Lera.col 3 2 ] )
  in
  check_agree "three-way join" db three_way;
  (* no equi conjunct at all: indexed falls back to cartesian *)
  let cross =
    Lera.Join
      ( Lera.Base "FILM",
        Lera.Base "APPEARS_IN",
        Lera.Call ("<", [ Lera.col 1 1; Lera.col 2 1 ]) )
  in
  check_agree "inequality join (cartesian fallback)" db cross

let tc_fix =
  Lera.Fix
    ( "TC",
      Lera.Union
        [
          Lera.Base "EDGE";
          Lera.Search
            ( [ Lera.Base "TC"; Lera.Base "TC" ],
              Lera.eq (Lera.col 1 2) (Lera.col 2 1),
              [ Lera.col 1 1; Lera.col 2 2 ] );
        ] )

let test_golden_fixpoints () =
  let db = Fixtures.chain_db 12 in
  check_agree ~mode:Eval.Seminaive "chain closure, semi-naive" db tc_fix;
  check_agree ~mode:Eval.Naive "chain closure, naive fix" db tc_fix;
  let g = Fixtures.graph_db ~nodes:15 ~edges:40 in
  let reach =
    Lera.Search
      ( [ tc_fix ],
        Lera.eq (Lera.col 1 1) (Lera.Cst (Value.Int 3)),
        [ Lera.col 1 2 ] )
  in
  check_agree "graph reachability" g reach;
  (* the two physical layers must also agree across fix modes *)
  let r1 = Eval.run ~mode:Eval.Naive ~physical:Eval.Physical.Naive db tc_fix in
  let r2 = Eval.run ~mode:Eval.Seminaive ~physical:Eval.Physical.Indexed db tc_fix in
  Alcotest.(check bool) "naive/naive = seminaive/indexed" true (Relation.equal r1 r2)

let test_golden_nest_unnest () =
  let db, _ = Fixtures.film_db () in
  let nested = Lera.Nest (Lera.Base "APPEARS_IN", [ 1 ], [ 2 ]) in
  check_agree "nest" db nested;
  check_agree "unnest of nest" db (Lera.Unnest (nested, 2));
  check_agree "diff/inter"
    db
    (Lera.Diff
       ( Lera.Project (Lera.Base "APPEARS_IN", [ Lera.col 1 1 ]),
         Lera.Inter
           ( Lera.Project (Lera.Base "FILM", [ Lera.col 1 1 ]),
             Lera.Project (Lera.Base "APPEARS_IN", [ Lera.col 1 1 ]) ) ))

(* -- the Figure-8 shape within a hash-work budget ------------------------ *)

let fig8_shape_db () =
  let db = Database.create () in
  let schema a b = [ (a, Vtype.Int); (b, Vtype.Int) ] in
  let state = ref 987654321 in
  let rng bound =
    state := (!state * 1103515245) + 12345;
    abs !state mod bound
  in
  Database.add_relation db "FILM"
    (Relation.make (schema "Numf" "X")
       (List.init 200 (fun f -> [ Value.Int (f + 1); Value.Int f ])));
  Database.add_relation db "APPEARS_IN"
    (Relation.make (schema "Numf" "Actor")
       (List.init 594 (fun i -> [ Value.Int (1 + rng 200); Value.Int i ])));
  db

let test_fig8_budget () =
  let db = fig8_shape_db () in
  (* the unrewritten selective join: constant selection still buried in
     the qualification *)
  let q =
    Lera.Search
      ( [ Lera.Base "FILM"; Lera.Base "APPEARS_IN" ],
        Lera.conj
          [
            Lera.eq (Lera.col 1 1) (Lera.col 2 1);
            Lera.eq (Lera.col 1 1) (Lera.Cst (Value.Int 7));
          ],
        [ Lera.col 1 2; Lera.col 2 2 ] )
  in
  let (rn, sn), (ri, si) = run_both db q in
  Alcotest.(check bool) "results equal" true (Relation.equal rn ri);
  Alcotest.(check int) "naive enumerates the full product" (200 * 594)
    sn.Eval.combinations;
  Alcotest.(check bool)
    (Fmt.str "indexed hash work %d+%d within the 2000 budget" si.Eval.probes
       si.Eval.builds)
    true
    (si.Eval.probes + si.Eval.builds <= 2_000)

(* -- set-operation operand validation ------------------------------------ *)

let contains s sub =
  let n = String.length sub and k = String.length s in
  let rec at i = i + n <= k && (String.sub s i n = sub || at (i + 1)) in
  at 0

let test_setop_arity_errors () =
  let two = [ ("A", Vtype.Int); ("B", Vtype.Int) ] in
  let three = [ ("A", Vtype.Int); ("B", Vtype.Int); ("C", Vtype.Int) ] in
  let r2 = Relation.make two [ [ Value.Int 1; Value.Int 2 ] ] in
  let r3 = Relation.make three [ [ Value.Int 1; Value.Int 2; Value.Int 3 ] ] in
  let raises name f =
    Alcotest.(check bool) (name ^ " raises Invalid_argument") true
      (try
         ignore (f ());
         false
       with Invalid_argument msg ->
         (* the message names the operation and both arities *)
         contains msg name && contains msg "2 vs 3")
  in
  raises "union" (fun () -> Relation.union r2 r3);
  raises "diff" (fun () -> Relation.diff r2 r3);
  raises "inter" (fun () -> Relation.inter r2 r3);
  (* agreeing operands still work *)
  Alcotest.(check int) "union of compatible operands" 1
    (Relation.cardinality (Relation.union r2 r2))

(* -- Join_plan extraction ------------------------------------------------ *)

let test_join_plan_analyze () =
  let q =
    Lera.conj
      [
        Lera.eq (Lera.col 1 2) (Lera.col 2 1);
        Lera.eq (Lera.col 1 1) (Lera.Cst (Value.Int 3));
        Lera.eq (Lera.col 2 2) (Lera.col 2 1);
        Lera.Call ("<", [ Lera.col 1 1; Lera.col 2 2 ]);
      ]
  in
  let p = Join_plan.analyze ~operands:2 q in
  Alcotest.(check int) "one equi conjunct" 1 (Join_plan.equi_count p);
  Alcotest.(check int) "three residual conjuncts" 3
    (List.length (Lera.conjuncts (Join_plan.residual p)));
  (* a col=col pair that refers outside the operand range is residual *)
  let p1 = Join_plan.analyze ~operands:1 (Lera.eq (Lera.col 1 2) (Lera.col 2 1)) in
  Alcotest.(check bool) "out-of-range pair is not an equi" false
    (Join_plan.has_equis p1);
  let p0 = Join_plan.analyze ~operands:2 Lera.tru in
  Alcotest.(check bool) "true has no equis" false (Join_plan.has_equis p0)

(* -- random plans: the cross-layer property ------------------------------ *)

(* the plan/instance generators now live in lib/rulelab/gen.ml so the
   rule verifier draws from the same distribution as this suite *)
module Gen = Eds_rulelab.Gen

let qdb () = Gen.db ()
let gen_plan = Gen.gen_plan
let print_plan = Gen.print_plan

(* The mixed twin of a database: in every other relation, the first
   row holds an equal Real in place of each Int.  Value.compare equates
   the two, so every plan has the same answer on both, but a column
   mixing Int and Real is a [Values] column, so the random plans join
   typed against typed, typed against [Values] and [Values] against
   [Values] keys. *)
let mixed_twin db =
  let twin = Database.create () in
  List.iteri
    (fun i n ->
      let r = Database.relation db n in
      let realify = function Value.Int i -> Value.Real (float_of_int i) | v -> v in
      let tuples =
        match r.Relation.tuples with
        | first :: rest when i mod 2 = 0 -> List.map realify first :: rest
        | tuples -> tuples
      in
      Database.add_relation twin n (Relation.make r.Relation.schema tuples))
    (Database.relation_names db);
  twin

let layers_agree db rel =
  let (rn, sn), (ri, si) = run_both db rel in
  Relation.equal rn ri
  && si.Eval.combinations <= sn.Eval.combinations
  && si.Eval.probes <= sn.Eval.combinations

(* [long_factor]: QCHECK_LONG=1 runs 20x the plans (the CI differential) *)
let test_random_plans_agree =
  let db = qdb () in
  let twin = mixed_twin db in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:
         "naive, typed/mixed indexed and their counters agree on 250 random \
          plans"
       ~count:250 ~long_factor:20 ~print:print_plan gen_plan
       (fun (rel, _) ->
         layers_agree db rel
         && layers_agree twin rel
         && Relation.equal (Eval.run db rel) (Eval.run twin rel)))

let has_values_column rel =
  Array.exists
    (fun c -> Column.flavor c = Column.F_values)
    (Relation.columns rel).Column.cols

let test_mixed_twin () =
  let db = qdb () in
  let twin = mixed_twin db in
  List.iteri
    (fun i n ->
      Alcotest.(check bool) (n ^ " is typed") false
        (has_values_column (Database.relation db n));
      Alcotest.(check bool) (n ^ " twin has Values columns") (i mod 2 = 0)
        (has_values_column (Database.relation twin n)))
    (Database.relation_names db);
  let join a b =
    Lera.Search
      ( [ Lera.Base a; Lera.Base b ],
        Lera.eq (Lera.col 1 1) (Lera.col 2 1),
        [ Lera.col 1 2; Lera.col 2 2 ] )
  in
  List.iter
    (fun (a, b) ->
      let q = join a b in
      let r, s = run_indexed db q and rt, st = run_indexed twin q in
      let name = a ^ "⋈" ^ b in
      Alcotest.(check bool) (name ^ ": same answer") true (Relation.equal r rt);
      Alcotest.(check bool) (name ^ ": columnar on the typed database") true
        (s.Eval.columnar_ops > 0);
      Alcotest.(check bool) (name ^ ": columnar on the twin") true
        (st.Eval.columnar_ops > 0))
    (List.concat_map
       (fun a -> List.map (fun b -> (a, b)) (Database.relation_names db))
       (Database.relation_names db))

(* The executor against the cartesian product on the same operands: it
   yields exactly the combinations satisfying the qualification, and
   fires [on_combination] once per combination satisfying the plan's
   equi conjuncts.  Each operand takes one flavor — Int, Real, Int with
   a Real first row (a [Values] column), or tuple-valued cells — so
   edges join typed, [Values] and mismatched flavors. *)
let gen_join_case =
  let open QCheck2.Gen in
  int_range 2 4 >>= fun n ->
  list_repeat n (pair (int_range 1 3) (int_range 0 3)) >>= fun ops ->
  let gen_rel (ar, _) =
    list_size (int_range 1 8) (list_repeat ar (int_range 0 4))
  in
  flatten_l (List.map gen_rel ops) >>= fun rows ->
  let refs =
    List.concat
      (List.mapi (fun i (ar, _) -> List.init ar (fun j -> (i + 1, j + 1))) ops)
  in
  list_size (int_range 1 4) (pair (oneofl refs) (oneofl refs)) >|= fun eqs ->
  (ops, rows, eqs)

let print_join_case (ops, rows, eqs) =
  Fmt.str "operands (arity, flavor) %a rows %a equis %a"
    Fmt.(Dump.list (Dump.pair int int)) ops
    Fmt.(Dump.list (Dump.list (Dump.list int))) rows
    Fmt.(Dump.list (Dump.pair (Dump.pair int int) (Dump.pair int int))) eqs

let cell_of_flavor flavor row v =
  match flavor with
  | 0 -> Value.Int v
  | 1 -> Value.Real (float_of_int v)
  | 2 -> if row = 0 then Value.Real (float_of_int v) else Value.Int v
  | _ -> Value.Tuple [ ("a", Value.Int v) ]

let rec cartesian = function
  | [] -> [ [] ]
  | (r : Relation.t) :: rest ->
    List.concat_map
      (fun tup -> List.map (fun combo -> tup :: combo) (cartesian rest))
      r.Relation.tuples

let test_executor_matches_cartesian =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"join executor: naive's filtered cartesian product"
       ~count:300 ~long_factor:20 ~print:print_join_case gen_join_case
       (fun (ops, rows, eqs) ->
         let rels =
           List.map2
             (fun (ar, flavor) rs ->
               Relation.make
                 (List.init ar (fun j -> (Fmt.str "C%d" j, Vtype.Int)))
                 (List.mapi (fun i -> List.map (cell_of_flavor flavor i)) rs))
             ops rows
         in
         let q =
           Lera.conj
             (List.map
                (fun ((i, j), (k, l)) -> Lera.eq (Lera.col i j) (Lera.col k l))
                eqs)
         in
         let plan = Join_plan.analyze ~operands:(List.length rels) q in
         let equis =
           Lera.conj
             (List.map
                (fun { Join_plan.left = i, j; right = k, l } ->
                  Lera.eq (Lera.col i j) (Lera.col k l))
                plan.Join_plan.equis)
         in
         let db = Database.create () in
         let satisfying q =
           List.filter
             (fun combo -> Expr_eval.eval_bool db ~inputs:combo q)
             (cartesian rels)
         in
         let combos = ref 0 and out = ref [] in
         ignore
         @@ Join_plan.execute db ~on_build:ignore ~on_probe:ignore
              ~on_combination:(fun () -> incr combos)
           plan
           (Array.of_list (List.map Relation.columns rels))
           (fun combo -> out := combo :: !out);
         let sorted = List.sort (List.compare Relation.compare_tuples) in
         List.equal
           (fun a b -> List.compare Relation.compare_tuples a b = 0)
           (sorted !out) (sorted (satisfying q))
         && !combos = List.length (satisfying equis)))

(* -- columnar activation and representation normalization ---------------- *)

(* the vectorized paths must actually fire on qualifying all-scalar
   plans: a silent universal fallback would keep every parity test green
   while losing the whole point of the layer *)
let test_columnar_fires () =
  let db = fig8_shape_db () in
  let join =
    Lera.Search
      ( [ Lera.Base "FILM"; Lera.Base "APPEARS_IN" ],
        Lera.eq (Lera.col 1 1) (Lera.col 2 1),
        [ Lera.col 1 2; Lera.col 2 2 ] )
  in
  let check_fires name plan =
    let _, s = run_indexed db plan in
    Alcotest.(check bool)
      (Fmt.str "%s: columnar_ops %d > 0" name s.Eval.columnar_ops)
      true
      (s.Eval.columnar_ops > 0)
  in
  check_fires "hash join" join;
  check_fires "filter"
    (Lera.Filter
       (Lera.Base "FILM", Lera.eq (Lera.col 1 1) (Lera.Cst (Value.Int 7))));
  check_fires "project" (Lera.Project (Lera.Base "FILM", [ Lera.col 1 2 ]));
  check_fires "diff"
    (Lera.Diff
       ( Lera.Project (Lera.Base "APPEARS_IN", [ Lera.col 1 1 ]),
         Lera.Project (Lera.Base "FILM", [ Lera.col 1 1 ]) ));
  let tc_db = Fixtures.chain_db 12 in
  let _, s = run_indexed tc_db tc_fix in
  Alcotest.(check bool)
    (Fmt.str "semi-naive closure: columnar_ops %d > 0" s.Eval.columnar_ops)
    true
    (s.Eval.columnar_ops > 0);
  (* Naive is the boxed oracle: it never takes a columnar path *)
  let sn = Eval.fresh_stats () in
  ignore (Eval.run ~physical:Eval.Physical.Naive ~stats:sn db join);
  Alcotest.(check int) "naive never goes columnar" 0 sn.Eval.columnar_ops

(* mixed-flavor operands (an Int column vs a Real column): the
   packed-key path cannot see Value.compare's Int/Real cross-equality,
   so parity here proves that mismatched edges compare through [Values]
   views *)
let test_columnar_mixed_flavor () =
  let db = Database.create () in
  let num = [ ("A", Vtype.Int); ("B", Vtype.Int) ] in
  Database.add_relation db "RI"
    (Relation.make num
       (List.init 20 (fun i -> [ Value.Int i; Value.Int (i * i) ])));
  Database.add_relation db "RF"
    (Relation.make num
       (List.init 20 (fun i -> [ Value.Real (float_of_int i); Value.Int i ])));
  let join =
    Lera.Search
      ( [ Lera.Base "RI"; Lera.Base "RF" ],
        Lera.eq (Lera.col 1 1) (Lera.col 2 1),
        [ Lera.col 1 2; Lera.col 2 2 ] )
  in
  let flavor_a n = Column.flavor (Relation.columns (Database.relation db n)).Column.cols.(0) in
  Alcotest.(check bool) "RI.A is Int, RF.A is Real" true
    (flavor_a "RI" = Column.F_int && flavor_a "RF" = Column.F_float);
  check_agree "Int/Real cross-equality join" db join;
  Alcotest.(check bool) "the join runs columnar" true
    ((snd (run_indexed db join)).Eval.columnar_ops > 0);
  check_agree "Int/Real diff" db
    (Lera.Diff
       ( Lera.Project (Lera.Base "RI", [ Lera.col 1 1 ]),
         Lera.Project (Lera.Base "RF", [ Lera.col 1 1 ]) ));
  (* same-flavor float keys, including the -0./NaN normal forms *)
  let dbf = Database.create () in
  Database.add_relation dbf "F1"
    (Relation.make num
       [
         [ Value.Real 0.; Value.Int 1 ];
         [ Value.Real (-0.); Value.Int 2 ];
         [ Value.Real 2.5; Value.Int 3 ];
         [ Value.Real Float.nan; Value.Int 4 ];
       ]);
  Database.add_relation dbf "F2"
    (Relation.make num
       [
         [ Value.Real (-0.); Value.Int 10 ];
         [ Value.Real 2.5; Value.Int 20 ];
         [ Value.Real Float.nan; Value.Int 30 ];
       ]);
  check_agree "float-keyed join (-0./NaN)" dbf
    (Lera.Search
       ( [ Lera.Base "F1"; Lera.Base "F2" ],
         Lera.eq (Lera.col 1 1) (Lera.col 2 1),
         [ Lera.col 1 2; Lera.col 2 2 ] ))

(* set operations must re-derive the columnar layout from the result's
   content — union with an empty side or one holding a Null must not
   drop (or wrongly keep) the typed columns *)
let test_union_layout_normalized () =
  let two = [ ("A", Vtype.Int); ("B", Vtype.Int) ] in
  let ri =
    Relation.make two (List.init 5 (fun i -> [ Value.Int i; Value.Int (i + 1) ]))
  in
  let re = Relation.empty two in
  let mixed = Relation.make two [ [ Value.Null; Value.Int 9 ] ] in
  let typed r = not (has_values_column r) in
  Alcotest.(check bool) "all-Int side is typed" true (typed ri);
  Alcotest.(check bool) "empty side has only Values columns" false (typed re);
  Alcotest.(check bool) "empty ∪ typed keeps the layout" true
    (typed (Relation.union re ri));
  Alcotest.(check bool) "typed ∪ empty keeps the layout" true
    (typed (Relation.union ri re));
  Alcotest.(check bool) "typed ∪ mixed has a Values column (Null present)" false
    (typed (Relation.union ri mixed));
  Alcotest.(check bool) "mixed ∖ typed keeps its Values column" false
    (typed (Relation.diff mixed ri));
  Alcotest.(check bool) "typed ∖ mixed is typed" true
    (typed (Relation.diff ri mixed));
  Alcotest.(check bool) "inter re-derives the layout" true
    (typed (Relation.inter ri ri));
  (* subset extraction preserves canonical order and the typed layout *)
  let sub = Relation.filteri (fun i _ -> i mod 2 = 0) ri in
  Alcotest.(check int) "filteri keeps the kept rows" 3 (Relation.cardinality sub);
  Alcotest.(check bool) "filteri result is typed" true (typed sub)

(* The Fig. 2 film shape: keys no typed column can hold — Null, Bool,
   tuple-valued and set-valued cells — plus an Int⋈Real edge (typed
   columns of two flavors, compared through [Values] views) and an
   empty operand, which the executor must skip before building or
   probing anything. *)
let test_values_keys () =
  let db = Database.create () in
  let str s = Value.Str s in
  let producer name country =
    Value.Tuple [ ("Name", str name); ("Country", str country) ]
  in
  let cats l = Value.set (List.map str l) in
  let add name schema rows = Database.add_relation db name (Relation.make schema rows) in
  let producer_t = Vtype.Tuple [ ("Name", Vtype.String); ("Country", Vtype.String) ] in
  add "FILM"
    [
      ("Numf", Vtype.Int); ("Title", Vtype.String); ("Categories", Vtype.Set Vtype.String);
      ("Producer", producer_t); ("Colour", Vtype.Bool); ("Award", Vtype.String);
    ]
    [
      [ Value.Int 1; str "Vertigo"; cats [ "thriller"; "drama" ];
        producer "Hitchcock" "UK"; Value.Bool true; Value.Null ];
      [ Value.Int 2; str "Rope"; cats [ "thriller" ]; producer "Hitchcock" "UK";
        Value.Bool true; str "Oscar" ];
      [ Value.Int 3; str "Playtime"; cats [ "comedy" ]; producer "Tati" "FR";
        Value.Bool true; Value.Null ];
      [ Value.Int 4; str "Metropolis"; cats [ "drama"; "sf" ]; producer "Lang" "DE";
        Value.Bool false; Value.Null ];
    ];
  add "PREF"
    [ ("Cats", Vtype.Set Vtype.String); ("Viewer", Vtype.String) ]
    [ [ cats [ "drama"; "thriller" ]; str "ann" ]; [ cats [ "comedy" ]; str "bob" ] ];
  add "STUDIO"
    [ ("Producer", producer_t); ("Studio", Vtype.String) ]
    [ [ producer "Hitchcock" "UK"; str "Paramount" ]; [ producer "Lang" "DE"; str "UFA" ] ];
  add "STOCK"
    [ ("Colour", Vtype.Bool); ("Label", Vtype.String) ]
    [ [ Value.Bool true; str "colour" ]; [ Value.Bool false; str "b&w" ] ];
  add "AWARD"
    [ ("Award", Vtype.String); ("Year", Vtype.Real) ]
    [ [ Value.Null; Value.Real 0. ]; [ str "Oscar"; Value.Real 1948. ] ];
  add "RATING"
    [ ("Numf", Vtype.Real); ("Stars", Vtype.Int) ]
    [ [ Value.Real 1.; Value.Int 5 ]; [ Value.Real 2.; Value.Int 4 ];
      [ Value.Real 4.; Value.Int 3 ] ];
  add "NONE" [ ("Numf", Vtype.Int); ("X", Vtype.Int) ] [];
  let film = Relation.columns (Database.relation db "FILM") in
  List.iter
    (fun c ->
      Alcotest.(check bool) (Fmt.str "FILM column %d is Values" c) true
        (Column.flavor film.Column.cols.(c) = Column.F_values))
    [ 2; 3; 4; 5 ];
  let join ?(q = []) rels edges =
    Lera.Search
      ( List.map (fun n -> Lera.Base n) rels,
        Lera.conj
          (List.map (fun ((i, j), (k, l)) -> Lera.eq (Lera.col i j) (Lera.col k l)) edges
          @ q),
        [ Lera.col 1 2; Lera.col 2 2 ] )
  in
  List.iter
    (fun (name, plan, rows) ->
      check_agree name db plan;
      let r, s = run_indexed db plan in
      Alcotest.(check int) (name ^ ": rows") rows (Relation.cardinality r);
      Alcotest.(check bool) (name ^ ": columnar executor") true (s.Eval.columnar_ops > 0))
    [
      ("set-valued key", join [ "FILM"; "PREF" ] [ ((1, 3), (2, 1)) ], 2);
      ("tuple-valued key", join [ "FILM"; "STUDIO" ] [ ((1, 4), (2, 1)) ], 3);
      ("Bool key", join [ "FILM"; "STOCK" ] [ ((1, 5), (2, 1)) ], 4);
      ("Null key", join [ "FILM"; "AWARD" ] [ ((1, 6), (2, 1)) ], 4);
      ("Int⋈Real key", join [ "FILM"; "RATING" ] [ ((1, 1), (2, 1)) ], 3);
      ( "three-way, opaque residual",
        join
          ~q:[ Lera.Call ("member", [ Lera.Cst (str "drama"); Lera.col 1 3 ]) ]
          [ "FILM"; "RATING"; "STOCK" ]
          [ ((1, 1), (2, 1)); ((1, 5), (3, 1)) ],
        2 );
    ];
  let plan = join [ "FILM"; "NONE" ] [ ((1, 1), (2, 1)) ] in
  check_agree "empty operand" db plan;
  let r, s = run_indexed db plan in
  Alcotest.(check int) "empty operand: no rows" 0 (Relation.cardinality r);
  Alcotest.(check (list int)) "empty operand: builds, probes, combinations"
    [ 0; 0; 0 ] [ s.Eval.builds; s.Eval.probes; s.Eval.combinations ];
  (* the executor itself, handed the empty operand's table *)
  let calls = ref 0 in
  let count () = incr calls in
  ignore
  @@ Join_plan.execute db ~on_build:count ~on_probe:count ~on_combination:count
    (Join_plan.analyze ~operands:2 (Lera.eq (Lera.col 1 1) (Lera.col 2 1)))
    (Array.map (fun n -> Relation.columns (Database.relation db n)) [| "FILM"; "NONE" |])
    (fun _ -> count ());
  Alcotest.(check int) "empty operand: the executor fires nothing" 0 !calls

(* -- concurrent first use of a relation's caches --------------------------- *)

(* connection threads of the query server share relations whose
   hash-set view and columnar shadow are built on first use; threads
   that race to build the same cache must all get a value, never an
   exception *)
let test_caches_race_free () =
  let schema = [ ("A", Vtype.Int); ("S", Vtype.String); ("B", Vtype.Int) ] in
  let failures = Atomic.make 0 and calls = Atomic.make 0 in
  for round = 1 to 10 do
    let tuples =
      List.init 20_000 (fun i ->
          [ Value.Int i; Value.Str (Fmt.str "s%d" (i mod 997)); Value.Int round ])
    in
    let rel = Relation.make schema tuples in
    let probe = List.nth tuples 12_345 in
    let worker () =
      (match Relation.columns rel with
      | t when t.Column.nrows = 20_000 -> ()
      | _ -> Atomic.incr failures
      | exception _ -> Atomic.incr failures);
      (match Relation.mem probe rel with
      | true -> ()
      | false -> Atomic.incr failures
      | exception _ -> Atomic.incr failures);
      ignore (Atomic.fetch_and_add calls 2)
    in
    List.iter Thread.join (List.init 4 (fun _ -> Thread.create worker ()))
  done;
  Alcotest.(check int) "every call returned" 80 (Atomic.get calls);
  Alcotest.(check int) "no call failed or raised" 0 (Atomic.get failures)

(* -- cached indexes and the fan-out order ----------------------------------- *)

(* R(A,J) ⋈ S(J,K) ⋈ T(K,B), all [size] rows: J takes size/fan values,
   so R ⋈ S fans out [fan]-fold, and T keeps the S rows whose K is a
   multiple of 64 — the chain where the cardinality order cannot shrink
   the middle *)
let fat_chain_db ~size ~fan =
  let db = Database.create () in
  let state = ref 31415 in
  let rng bound =
    state := (!state * 1103515245) + 12345;
    abs !state mod bound
  in
  let two a b = [ (a, Vtype.Int); (b, Vtype.Int) ] in
  let groups = max 1 (size / fan) in
  Database.add_relation db "R"
    (Relation.make (two "A" "J")
       (List.init size (fun i -> [ Value.Int i; Value.Int (rng groups) ])));
  Database.add_relation db "S"
    (Relation.make (two "J" "K")
       (List.init size (fun i -> [ Value.Int (rng groups); Value.Int i ])));
  Database.add_relation db "T"
    (Relation.make (two "K" "B")
       (List.init size (fun i -> [ Value.Int (64 * i); Value.Int i ])));
  db

let chain_query =
  Lera.Search
    ( [ Lera.Base "R"; Lera.Base "S"; Lera.Base "T" ],
      Lera.conj
        [ Lera.eq (Lera.col 1 2) (Lera.col 2 1); Lera.eq (Lera.col 2 2) (Lera.col 3 1) ],
      [ Lera.col 1 1; Lera.col 3 2 ] )

(* The first run has no distinct-key counts and takes the cardinality
   order (R, S, T: 100,000 probes into T); it leaves S's and T's
   indexes cached, so the next run starts from S ⋈ T, whose estimated
   output is 50 times smaller, and the third builds nothing. *)
let test_fat_chain_warm () =
  let db = fat_chain_db ~size:2000 ~fan:50 in
  let cold, sc = run_indexed db chain_query in
  let warm, sw = run_indexed db chain_query in
  let hot, sh = run_indexed db chain_query in
  Alcotest.(check bool) "cold = warm = hot" true
    (Relation.equal cold warm && Relation.equal warm hot);
  Alcotest.(check (list int)) "combinations do not depend on the order"
    [ sc.Eval.combinations; sc.Eval.combinations ]
    [ sw.Eval.combinations; sh.Eval.combinations ];
  Alcotest.(check bool)
    (Fmt.str "cold run probes %d > 100000 (cardinality order)" sc.Eval.probes)
    true (sc.Eval.probes > 100_000);
  Alcotest.(check bool)
    (Fmt.str "warm run probes %d <= 5000" sw.Eval.probes)
    true (sw.Eval.probes <= 5_000);
  Alcotest.(check int) "the hot run builds nothing" 0 sh.Eval.builds;
  Alcotest.(check bool) (Fmt.str "hot run probes %d <= 5000" sh.Eval.probes) true
    (sh.Eval.probes <= 5_000);
  let _, report = Eval.run_analyzed ~physical:Eval.Physical.Indexed db chain_query in
  let search =
    Eval.fold_report (fun acc n -> if n.Eval.op = "search" then Some n else acc) None report
  in
  match search with
  | None -> Alcotest.fail "no search node in the report"
  | Some n ->
    Alcotest.(check (list int)) "EXPLAIN ANALYZE order: S, T, then R" [ 2; 3; 1 ]
      n.Eval.join_order;
    Alcotest.(check int) "EXPLAIN ANALYZE reused: both indexes" 2 n.Eval.reused

(* The chain with T filtered to one row, after the unfiltered chain has
   cached counts on R ⋈ S only (the filtered operand is a fresh table):
   the edge to the one-row operand has no count, yet its estimate
   |S|·1 still beats R ⋈ S's |R|·|S| / 40, so the join drives from the
   one row whichever queries ran before it, as the cold run does. *)
let test_one_row_operand_after_warm () =
  let db = fat_chain_db ~size:2000 ~fan:50 in
  let one_row_t =
    Lera.Search
      ( [ Lera.Base "R"; Lera.Base "S";
          Lera.Search
            ( [ Lera.Base "T" ],
              Lera.eq (Lera.col 1 2) (Lera.Cst (Value.Int 5)),
              [ Lera.col 1 1; Lera.col 1 2 ] ) ],
        Lera.conj
          [ Lera.eq (Lera.col 1 2) (Lera.col 2 1); Lera.eq (Lera.col 2 2) (Lera.col 3 1) ],
        [ Lera.col 1 1 ] )
  in
  let fresh, s_cold = run_indexed (fat_chain_db ~size:2000 ~fan:50) one_row_t in
  ignore (run_indexed db chain_query);
  ignore (run_indexed db chain_query);
  let after, s_after = run_indexed db one_row_t in
  Alcotest.(check bool) "same rows as a cold database" true (Relation.equal fresh after);
  Alcotest.(check int) "same combinations" s_cold.Eval.combinations s_after.Eval.combinations;
  Alcotest.(check bool)
    (Fmt.str "probes after warm-up %d <= cold run's %d" s_after.Eval.probes s_cold.Eval.probes)
    true (s_after.Eval.probes <= s_cold.Eval.probes)

(* A typed table and its [Values] view hold equal cells under different
   hashes: a join over the view after the typed table's index is cached
   must build its own index, not find the typed one. *)
let test_values_view_cache () =
  let db = fat_chain_db ~size:300 ~fan:10 in
  let plan =
    Join_plan.analyze ~operands:3
      (Lera.conj
         [ Lera.eq (Lera.col 1 2) (Lera.col 2 1); Lera.eq (Lera.col 2 2) (Lera.col 3 1) ])
  in
  let typed = Array.map (fun n -> Relation.columns (Database.relation db n)) [| "R"; "S"; "T" |] in
  let run tables =
    let out = ref [] and builds = ref 0 in
    let choice =
      Join_plan.execute db ~on_build:(fun () -> incr builds) ~on_probe:ignore
        ~on_combination:ignore plan tables (fun combo -> out := combo :: !out)
    in
    (List.sort (List.compare Relation.compare_tuples) !out, !builds, choice)
  in
  let r_typed, b_typed, c_typed = run typed in
  (* the warm run reorders and builds R's index; the hot run only reuses *)
  let r_warm, _, _ = run typed in
  let r_hot, b_hot, c_hot = run typed in
  Alcotest.(check bool) "the typed join has rows" true (r_typed <> []);
  Alcotest.(check int) "the cold run reuses nothing" 0 c_typed.Join_plan.reused;
  Alcotest.(check bool) "the cold run builds" true (b_typed > 0);
  Alcotest.(check (pair int int)) "the hot run reuses two, builds none" (2, 0)
    (c_hot.Join_plan.reused, b_hot);
  Alcotest.(check bool) "cold = warm = hot" true (r_warm = r_typed && r_hot = r_typed);
  let views = Array.map Column.values_view typed in
  Array.iter
    (fun t ->
      Alcotest.(check (list (list int))) "a view starts with an empty cache" []
        (Column.cached_keys t))
    views;
  let r_view, _, c_view = run views in
  Alcotest.(check int) "the view reuses nothing" 0 c_view.Join_plan.reused;
  Alcotest.(check bool) "the Values view joins to the typed answer" true
    (List.equal (fun a b -> List.compare Relation.compare_tuples a b = 0) r_view r_typed)

(* Random equi-join chains of 3 to 5 operands: operand i+1 joins
   operand i on [next] = [key], keys drawn from a per-operand range (1,
   2, 5 or 12 values, so fan-outs are skewed), each operand in one
   flavor (Int, Real, Int with a Real first row, tuple-valued).  The
   Search projects every column, so Naive's result cardinality is the
   number of combinations the equi conjuncts admit.  The indexed layer
   agrees with Naive on the cold run (cardinality order, indexes cached
   on the way) and on the warm run (fan-out order from those indexes). *)
let gen_chain =
  let open QCheck2.Gen in
  int_range 3 5 >>= fun n ->
  list_repeat n
    (triple (int_range 1 8) (oneofl [ 1; 2; 5; 12 ]) (int_range 0 3))
  >>= fun ops ->
  flatten_l
    (List.map
       (fun (rows, range, _) ->
         list_repeat rows (pair (int_range 0 (range - 1)) (int_range 0 (range - 1))))
       ops)
  >|= fun cells -> (ops, cells)

let print_chain (ops, cells) =
  Fmt.str "operands (rows, range, flavor) %a cells %a"
    Fmt.(Dump.list (fun ppf (a, b, c) -> pf ppf "(%d, %d, %d)" a b c)) ops
    Fmt.(Dump.list (Dump.list (Dump.pair int int))) cells

let test_random_chains =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"random 3-5 operand chains: indexed = naive, cold and warm"
       ~count:150 ~long_factor:20 ~print:print_chain gen_chain
       (fun (ops, cells) ->
         let db = Database.create () in
         let names = List.mapi (fun i _ -> Fmt.str "C%d" i) ops in
         List.iteri
           (fun i ((_, _, flavor), rows) ->
             Database.add_relation db (List.nth names i)
               (Relation.make
                  [ ("Key", Vtype.Int); ("Next", Vtype.Int) ]
                  (List.mapi
                     (fun r (k, nx) -> [ cell_of_flavor flavor r k; cell_of_flavor flavor r nx ])
                     rows)))
           (List.combine ops cells);
         let n = List.length ops in
         let q =
           Lera.Search
             ( List.map (fun name -> Lera.Base name) names,
               Lera.conj
                 (List.init (n - 1) (fun i -> Lera.eq (Lera.col (i + 1) 2) (Lera.col (i + 2) 1))),
               List.concat (List.init n (fun i -> [ Lera.col (i + 1) 1; Lera.col (i + 1) 2 ])) )
         in
         let naive = Eval.run ~physical:Eval.Physical.Naive db q in
         let agrees () =
           let r, s = run_indexed db q in
           Relation.equal r naive && s.Eval.combinations = Relation.cardinality naive
         in
         let cold = agrees () in
         cold && agrees ()))

(* Eight domains join one relation nobody has joined yet: they race to
   build and publish the same indexes, and must all see the same answer
   and leave one cached index per key list. *)
let test_concurrent_first_join () =
  let db = fat_chain_db ~size:1500 ~fan:30 in
  let expected = Eval.run ~physical:Eval.Physical.Indexed (fat_chain_db ~size:1500 ~fan:30) chain_query in
  let results =
    List.map Domain.join
      (List.init 8 (fun _ ->
           Domain.spawn (fun () -> Eval.run ~physical:Eval.Physical.Indexed db chain_query)))
  in
  List.iteri
    (fun i r ->
      Alcotest.(check bool) (Fmt.str "domain %d: bit-identical result" i) true
        (List.equal (fun a b -> List.compare Value.compare a b = 0)
           r.Relation.tuples expected.Relation.tuples))
    results;
  List.iter
    (fun name ->
      let keys = Column.cached_keys (Relation.columns (Database.relation db name)) in
      Alcotest.(check int) (name ^ ": one cached index per key list")
        (List.length (List.sort_uniq compare keys))
        (List.length keys))
    [ "R"; "S"; "T" ]

(* A write replaces the relation, and with it the table and its cached
   indexes: after each DML statement on S and a REFRESH of the
   materialized T, the warm session answers as a fresh one does. *)
let test_cache_after_writes () =
  let module Session = Eds.Session in
  let setup =
    [
      "TABLE R (A : INT, J : INT)";
      "TABLE S (J : INT, K : INT)";
      "TABLE TB (K : INT, B : INT)";
      "CREATE MATERIALIZED VIEW T (K, B) AS SELECT K, B FROM TB WHERE B < 100";
    ]
    @ List.init 30 (fun i -> Fmt.str "INSERT INTO R VALUES (%d, %d)" i (i mod 5))
    @ List.init 40 (fun i -> Fmt.str "INSERT INTO S VALUES (%d, %d)" (i mod 7) (i mod 11))
    @ List.init 20 (fun i -> Fmt.str "INSERT INTO TB VALUES (%d, %d)" (i mod 11) i)
  in
  let q = "SELECT R.A, T.B FROM R, S, T WHERE R.J = S.J AND S.K = T.K" in
  let session stmts =
    let s = Session.create () in
    List.iter (fun st -> ignore (Session.exec_string s st)) stmts;
    s
  in
  let warm = session setup in
  ignore (Session.query warm q);
  ignore (Session.query warm q);
  let applied = ref setup in
  List.iter
    (fun stmt ->
      ignore (Session.exec_string warm stmt);
      applied := !applied @ [ stmt ];
      let fresh = Session.query (session !applied) q in
      Alcotest.(check bool) ("after " ^ stmt) true (Relation.equal (Session.query warm q) fresh);
      ignore (Session.query warm q))
    [
      "INSERT INTO S VALUES (3, 4)";
      "DELETE FROM S WHERE J = 2";
      "UPDATE S SET K = 5 WHERE J = 1";
      "INSERT INTO TB VALUES (5, 77)";
      "REFRESH T";
    ]

let suite =
  [
    Alcotest.test_case "golden: film joins" `Quick test_golden_film;
    Alcotest.test_case "golden: fixpoints" `Quick test_golden_fixpoints;
    Alcotest.test_case "golden: nest/unnest/set ops" `Quick test_golden_nest_unnest;
    Alcotest.test_case "Fig. 8 shape within hash budget" `Quick test_fig8_budget;
    Alcotest.test_case "set-op arity validation" `Quick test_setop_arity_errors;
    Alcotest.test_case "join plan extraction" `Quick test_join_plan_analyze;
    test_random_plans_agree;
    Alcotest.test_case "columnar paths fire on qualifying plans" `Quick
      test_columnar_fires;
    Alcotest.test_case "columnar flavor gate and float keys" `Quick
      test_columnar_mixed_flavor;
    Alcotest.test_case "set ops normalize columnar layout" `Quick
      test_union_layout_normalized;
    Alcotest.test_case "relation caches race-free across threads" `Quick
      test_caches_race_free;
    Alcotest.test_case "mixed twin runs columnar" `Quick test_mixed_twin;
    test_executor_matches_cartesian;
    Alcotest.test_case "Values keys and an empty operand" `Quick test_values_keys;
    Alcotest.test_case "fat chain: warm runs join in fan-out order" `Quick
      test_fat_chain_warm;
    Alcotest.test_case "a one-row operand drives after warm-up" `Quick
      test_one_row_operand_after_warm;
    Alcotest.test_case "a Values view has its own index cache" `Quick
      test_values_view_cache;
    test_random_chains;
    Alcotest.test_case "eight domains join an uncached relation" `Quick
      test_concurrent_first_join;
    Alcotest.test_case "cached indexes after INSERT, DELETE, UPDATE, REFRESH" `Quick
      test_cache_after_writes;
  ]
