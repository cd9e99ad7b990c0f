(* The physical evaluation layer (Eval.Physical): the indexed hash-join
   evaluator against the naive cartesian reference.  The Indexed layer
   picks its representation from the input — vectorized wherever the
   operands carry a columnar shadow, boxed otherwise — so the boxed
   loops are covered by inputs that have no shadow, with Naive (always
   boxed) as the oracle.

   - golden cross-mode suite: on every fixture plan, Naive and Indexed
     produce Relation.equal results;
   - work bounds: the Figure-8-shaped selective join stays within a
     hash-work budget that the naive layer exceeds by orders of
     magnitude;
   - set-operation operand validation (union/diff/inter arity errors);
   - Join_plan equi-conjunct extraction, and a qcheck property that the
     boxed and columnar executors enumerate the same combinations with
     identical probe and build counts;
   - a qcheck property over random schema-correct LERA plans, on the
     generator's database and on a twin whose base relations have no
     columnar shadow: Naive and Indexed agree, and the indexed layer's
     combinations and probes never exceed the naive layer's
     combinations;
   - columnar activation: qualifying all-scalar plans actually take the
     vectorized paths (columnar_ops > 0) and mixed-flavor or
     disqualified inputs fall back with identical results. *)

module Value = Eds_value.Value
module Vtype = Eds_value.Vtype
module Lera = Eds_lera.Lera
module Relation = Eds_engine.Relation
module Database = Eds_engine.Database
module Eval = Eds_engine.Eval
module Join_plan = Eds_engine.Join_plan
module Column = Eds_engine.Column

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

(* The boxed twin of a database: the first row of every relation holds
   an equal Real in place of each Int.  Value.compare equates the two,
   so every plan has the same answer on both, but a column mixing Int
   and Real has no columnar shadow, so the Indexed layer runs its boxed
   loops on every base relation of the twin. *)
let boxed_twin db =
  let twin = Database.create () in
  List.iter
    (fun n ->
      let r = Database.relation db n in
      let realify = function Value.Int i -> Value.Real (float_of_int i) | v -> v in
      let tuples =
        match r.Relation.tuples with
        | first :: rest -> List.map realify first :: rest
        | [] -> []
      in
      Database.add_relation twin n (Relation.make r.Relation.schema tuples))
    (Database.relation_names db);
  twin

let layers_agree db rel =
  let (rn, sn), (ri, si) = run_both db rel in
  Relation.equal rn ri
  && si.Eval.combinations <= sn.Eval.combinations
  && si.Eval.probes <= sn.Eval.combinations

let test_random_plans_agree =
  let db = qdb () in
  let twin = boxed_twin db in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:
         "naive, boxed/columnar indexed and their counters agree on 250 \
          random plans"
       ~count:250 ~print:print_plan gen_plan
       (fun (rel, _) ->
         layers_agree db rel
         && layers_agree twin rel
         && Relation.equal (Eval.run db rel) (Eval.run twin rel)))

let test_boxed_twin () =
  let db = qdb () in
  let twin = boxed_twin db in
  List.iter
    (fun n ->
      let shadowed d = Relation.columns (Database.relation d n) <> None in
      Alcotest.(check bool) (n ^ " has a shadow") true (shadowed db);
      Alcotest.(check bool) (n ^ " twin has none") false (shadowed twin))
    (Database.relation_names db);
  let join =
    Lera.Search
      ( [ Lera.Base "R0"; Lera.Base "R1" ],
        Lera.eq (Lera.col 1 1) (Lera.col 2 1),
        [ Lera.col 1 2; Lera.col 2 2 ] )
  in
  let r, s = run_indexed db join and rt, st = run_indexed twin join in
  Alcotest.(check bool) "same answer" true (Relation.equal r rt);
  Alcotest.(check bool) "columnar on the generator's database" true
    (s.Eval.columnar_ops > 0);
  Alcotest.(check int) "boxed on the twin" 0 st.Eval.columnar_ops

(* Join_plan's two executors on the same plan and operands: the same
   combination set and the same probe and build counts.  Operands are
   all-Int (one flavor), so the columnar precondition always holds. *)
let gen_join_case =
  let open QCheck2.Gen in
  int_range 2 4 >>= fun n ->
  list_repeat n (int_range 1 3) >>= fun ars ->
  let gen_rel ar =
    list_size (int_range 1 8) (list_repeat ar (int_range 0 4))
  in
  flatten_l (List.map gen_rel ars) >>= fun rows ->
  let refs =
    List.concat (List.mapi (fun i ar -> List.init ar (fun j -> (i + 1, j + 1))) ars)
  in
  list_size (int_range 1 4) (pair (oneofl refs) (oneofl refs)) >|= fun eqs ->
  (ars, rows, eqs)

let print_join_case (ars, rows, eqs) =
  Fmt.str "arities %a rows %a equis %a"
    Fmt.(Dump.list int) ars
    Fmt.(Dump.list (Dump.list (Dump.list int))) rows
    Fmt.(Dump.list (Dump.pair (Dump.pair int int) (Dump.pair int int))) eqs

let test_executors_agree =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make
       ~name:"join executors: boxed and columnar enumerate the same combinations"
       ~count:300 ~print:print_join_case gen_join_case
       (fun (ars, rows, eqs) ->
         let rels =
           Array.of_list
             (List.map2
                (fun ar rs ->
                  Relation.make
                    (List.init ar (fun j -> (Fmt.str "C%d" j, Vtype.Int)))
                    (List.map (List.map (fun v -> Value.Int v)) rs))
                ars rows)
         in
         let q =
           Lera.conj
             (List.map
                (fun ((i, j), (k, l)) -> Lera.eq (Lera.col i j) (Lera.col k l))
                eqs)
         in
         let plan = Join_plan.analyze ~operands:(Array.length rels) q in
         let count () =
           let c = ref 0 in
           ((fun () -> incr c), c)
         in
         let run execute =
           let on_build, builds = count () and on_probe, probes = count () in
           let combos = ref [] in
           execute ~on_build ~on_probe (fun combo -> combos := combo :: !combos);
           (List.sort (List.compare Relation.compare_tuples) !combos, !builds, !probes)
         in
         let tables =
           Array.map (fun r -> Option.get (Relation.columns r)) rels
         in
         Join_plan.columnar_ok plan tables
         && run (fun ~on_build ~on_probe yield ->
                Join_plan.execute ~on_build ~on_probe plan rels yield)
            = run (fun ~on_build ~on_probe yield ->
                  Join_plan.execute_columnar ~on_build ~on_probe plan tables
                    (fun rows ->
                      yield
                        (List.init (Array.length tables) (fun k ->
                             Column.tuple_at tables.(k) rows.(k)))))))

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

(* mixed-flavor operands (Int column vs Real column) must fall back:
   the packed-key path cannot see Value.compare's Int/Real
   cross-equality, so parity here proves the flavor gate works *)
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
  check_agree "Int/Real cross-equality join" db join;
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

(* satellite: set operations must re-derive the columnar layout from the
   result's content — union with an empty or boxed-only side must not
   drop (or wrongly keep) the shadow *)
let test_union_layout_normalized () =
  let two = [ ("A", Vtype.Int); ("B", Vtype.Int) ] in
  let ri =
    Relation.make two (List.init 5 (fun i -> [ Value.Int i; Value.Int (i + 1) ]))
  in
  let re = Relation.empty two in
  let mixed = Relation.make two [ [ Value.Null; Value.Int 9 ] ] in
  let has_cols r = Relation.columns r <> None in
  Alcotest.(check bool) "columnar side qualifies" true (has_cols ri);
  Alcotest.(check bool) "empty side has no shadow" false (has_cols re);
  Alcotest.(check bool) "empty ∪ columnar keeps the layout" true
    (has_cols (Relation.union re ri));
  Alcotest.(check bool) "columnar ∪ empty keeps the layout" true
    (has_cols (Relation.union ri re));
  Alcotest.(check bool) "columnar ∪ boxed is boxed (Null present)" false
    (has_cols (Relation.union ri mixed));
  Alcotest.(check bool) "boxed ∖ columnar stays boxed" false
    (has_cols (Relation.diff mixed ri));
  Alcotest.(check bool) "columnar ∖ boxed keeps the layout" true
    (has_cols (Relation.diff ri mixed));
  Alcotest.(check bool) "inter re-derives the layout" true
    (has_cols (Relation.inter ri ri));
  (* subset extraction preserves canonical order and the shadow *)
  let sub = Relation.filteri (fun i _ -> i mod 2 = 0) ri in
  Alcotest.(check int) "filteri keeps the kept rows" 3 (Relation.cardinality sub);
  Alcotest.(check bool) "filteri result has a shadow" true (has_cols sub)

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
      | Some _ -> ()
      | None -> Atomic.incr failures
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
    Alcotest.test_case "boxed twin has no columnar shadow" `Quick test_boxed_twin;
    test_executors_agree;
  ]
