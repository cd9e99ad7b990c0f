(* Workload generators for the benchmark harness: databases and queries
   sized for measurement (the test-suite fixtures are tiny on purpose). *)

module Value = Eds_value.Value
module Vtype = Eds_value.Vtype
module Lera = Eds_lera.Lera
module Relation = Eds_engine.Relation
module Database = Eds_engine.Database
module Eval = Eds_engine.Eval
module Expr_eval = Eds_engine.Expr_eval
module Join_plan = Eds_engine.Join_plan
module Column = Eds_engine.Column
module Session = Eds.Session

(* deterministic pseudo-random stream *)
let make_rng seed =
  let state = ref seed in
  fun bound ->
    state := (!state * 1103515245) + 12345;
    abs !state mod bound

(* -- graphs for fixpoint experiments ------------------------------------ *)

let edge_schema = [ ("Src", Vtype.Int); ("Dst", Vtype.Int) ]

let chain_db n =
  let db = Database.create () in
  let edges = List.init (n - 1) (fun i -> [ Value.Int (i + 1); Value.Int (i + 2) ]) in
  Database.add_relation db "EDGE" (Relation.make edge_schema edges);
  db

(* clustered graph: [clusters] disjoint random components of [nodes]
   vertices each — closures are large, per-source reachability small *)
let clustered_db ~clusters ~nodes ~edges_per_cluster =
  let db = Database.create () in
  let rng = make_rng 20260706 in
  let tuples = ref [] in
  for c = 0 to clusters - 1 do
    let base = c * nodes in
    (* a spanning chain keeps each cluster connected *)
    for i = 1 to nodes - 1 do
      tuples := [ Value.Int (base + i); Value.Int (base + i + 1) ] :: !tuples
    done;
    for _ = 1 to edges_per_cluster - (nodes - 1) do
      let a = base + 1 + rng nodes and b = base + 1 + rng nodes in
      tuples := [ Value.Int a; Value.Int b ] :: !tuples
    done
  done;
  Database.add_relation db "EDGE" (Relation.make edge_schema !tuples);
  db

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

let reachable_from c =
  Lera.Search
    ( [ tc_fix ],
      Lera.eq (Lera.col 1 1) (Lera.Cst (Value.Int c)),
      [ Lera.col 1 2 ] )

(* -- the film schema at size ------------------------------------------- *)

let film_ddl =
  {|
  TYPE Category ENUMERATION OF ('Comedy', 'Adventure', 'Science Fiction', 'Western') ;
  TYPE Point TUPLE (ABS : REAL, ORD : REAL) ;
  TYPE Person OBJECT TUPLE (Name : CHAR, Firstname : SET OF CHAR, Caricature : LIST OF Point) ;
  TYPE Actor SUBTYPE OF Person OBJECT TUPLE (Salary : NUMERIC) ;
  TYPE Text LIST OF CHAR ;
  TYPE SetCategory SET OF Category ;
  TYPE Pairs LIST OF TUPLE (Pros : INT, Cons : INT) ;
  TABLE FILM (Numf : NUMERIC, Title : Text, Categories : SetCategory) ;
  TABLE APPEARS_IN (Numf : NUMERIC, Refactor : Actor) ;
  TABLE DOMINATE (Numf : NUMERIC, Refactor1 : Actor, Refactor2 : Actor, Score : Pairs) ;
  CREATE VIEW FilmActors (Title, Categories, Actors) AS
    SELECT Title, Categories, MakeSet(Refactor)
    FROM FILM, APPEARS_IN
    WHERE FILM.Numf = APPEARS_IN.Numf
    GROUP BY Title, Categories ;
  CREATE VIEW BETTER_THAN (Refactor1, Refactor2) AS
    ( SELECT Refactor1, Refactor2 FROM DOMINATE
      UNION
      SELECT B1.Refactor1, B2.Refactor2
      FROM BETTER_THAN B1, BETTER_THAN B2
      WHERE B1.Refactor2 = B2.Refactor1 ) ;
|}

let categories = [ "Comedy"; "Adventure"; "Science Fiction"; "Western" ]

(* a session holding [films] films and [actors] actors, every film cast
   with 1-4 actors *)
let film_session ~films ~actors =
  let s = Session.create () in
  ignore (Session.exec_script s film_ddl);
  let rng = make_rng 42 in
  let actor_refs =
    Array.init actors (fun i ->
        Session.new_object s
          (Value.tuple
             [
               ("Name", Value.Str (Fmt.str "actor%d" i));
               ("Firstname", Value.set []);
               ("Caricature", Value.list []);
               ("Salary", Value.Real (float_of_int (5_000 + rng 30_000)));
             ]))
  in
  let db = Session.database s in
  for f = 1 to films do
    let cats =
      Value.set
        (List.filteri
           (fun i _ -> (f + i) mod (2 + rng 2) = 0)
           (List.map (fun c -> Value.Enum ("Category", c)) categories))
    in
    Database.insert db "FILM"
      [ Value.Int f; Value.list [ Value.Str (Fmt.str "film%d" f) ]; cats ];
    let cast = 1 + rng 4 in
    for _ = 1 to cast do
      Database.insert db "APPEARS_IN" [ Value.Int f; actor_refs.(rng actors) ]
    done
  done;
  (* a sparse domination tournament *)
  for _ = 1 to actors do
    Database.insert db "DOMINATE"
      [
        Value.Int (1 + rng films);
        actor_refs.(rng actors);
        actor_refs.(rng actors);
        Value.list [];
      ]
  done;
  s

(* a stack of [depth] views, each selecting from the previous one, to
   exercise the merging rules *)
let view_stack_session ~depth =
  let s = Session.create () in
  ignore
    (Session.exec_script s
       {|TABLE BASE (A : NUMERIC, B : NUMERIC, C : NUMERIC) ;|});
  let db = Session.database s in
  let rng = make_rng 7 in
  for _ = 1 to 200 do
    Database.insert db "BASE"
      [ Value.Int (rng 100); Value.Int (rng 100); Value.Int (rng 100) ]
  done;
  for i = 1 to depth do
    let prev = if i = 1 then "BASE" else Fmt.str "V%d" (i - 1) in
    ignore
      (Session.exec_string s
         (Fmt.str "CREATE VIEW V%d (A, B, C) AS SELECT A, B, C FROM %s WHERE A > %d"
            i prev i))
  done;
  s

(* the rewrite-engine instrumentation subject (EXPERIMENTS.md E1): the
   query over the deepest view, translated but not yet rewritten, plus a
   rewriting context — the merging rules then have [depth] successive
   searches to collapse, so the term goes through many rewrite steps *)
let view_stack_rewrite ~depth =
  let s = view_stack_session ~depth in
  let cat = Session.catalog s in
  let translated =
    Eds_esql.Translate.select cat
      (Eds_esql.Parser.parse_select (Fmt.str "SELECT A FROM V%d WHERE B > 50" depth))
  in
  let ctx = Eds_rewriter.Optimizer.make_ctx (Eds_esql.Catalog.schema_env cat) in
  (ctx, translated)

(* Work of a plan under the naive physical layer — the counter source of
   every paper-shape (F/C/A) experiment: the rewriter's benefit is the
   shrinkage of the enumerated space, which the indexed hash joins would
   collapse on their own.  E2 compares the two layers explicitly. *)
let eval_work db rel =
  let stats = Eds_engine.Eval.fresh_stats () in
  ignore (Eds_engine.Eval.run ~physical:Eds_engine.Eval.Physical.Naive ~stats db rel);
  stats

let eval_work_physical physical db rel =
  let stats = Eds_engine.Eval.fresh_stats () in
  let result = Eds_engine.Eval.run ~physical ~stats db rel in
  (stats, result)

(* -- E2 scaling workload: a three-way chain join ------------------------- *)

(* R(A, J) ⋈ S(J, K) ⋈ T(K, B): the naive layer enumerates
   |R|·|S|·|T| combinations, the indexed layer touches each tuple
   roughly once per hash step, so the gap widens cubically with size *)
let chain_join_db ~size =
  let db = Database.create () in
  let rng = make_rng 31415 in
  let two a b = [ (a, Vtype.Int); (b, Vtype.Int) ] in
  let mk n = List.init n (fun i -> [ Value.Int i; Value.Int (rng size) ]) in
  Database.add_relation db "R" (Relation.make (two "A" "J") (mk size));
  Database.add_relation db "S"
    (Relation.make (two "J" "K")
       (List.init (2 * size) (fun i -> [ Value.Int (rng size); Value.Int (i mod size) ])));
  Database.add_relation db "T" (Relation.make (two "K" "B") (mk size));
  db

let chain_join_query =
  Lera.Search
    ( [ Lera.Base "R"; Lera.Base "S"; Lera.Base "T" ],
      Lera.conj
        [
          Lera.eq (Lera.col 1 2) (Lera.col 2 1);
          Lera.eq (Lera.col 2 2) (Lera.col 3 1);
        ],
      [ Lera.col 1 1; Lera.col 3 2 ] )

(* -- E3 workload: fat-intermediate chain ---------------------------------- *)

(* R(A,J) ⋈ S(J,K) ⋈ T(K,B) with all three relations the same
   cardinality, so the greedy join order cannot pick a small driver:
   R→S fans out by ~[fan] (J ranges over size/fan groups) and T keeps
   only 1 in 64 of the fanned tuples (its keys are the multiples of
   64).  The join executor streams the fat R⋈S middle through the T
   probe without ever materialising it. *)
let fat_chain_db ~size ~fan =
  let db = Database.create () in
  let rng = make_rng 31415 in
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

let fat_chain_query = chain_join_query

(* -- E7: the join executor on one plan ------------------------------------ *)

(* A Search over base relations, taken apart the way the Indexed layer
   of Eval hands it to {!Join_plan.execute}: [tables] are the operands'
   columnar shadows and [run tables stats] joins those columns (or any
   other view of the same cells) and projects, counting into [stats]
   what Eval counts — one [combinations] per equi-matched combination,
   plus the executor's [probes] and [builds] — and returns the
   unordered output tuples. *)
type join = {
  plan : Join_plan.t;
  tables : Column.table array;
  run : Column.table array -> Eval.stats -> Relation.tuple list;
}

let join_executor db (q : Lera.rel) =
  let rs, qual, ps =
    match q with
    | Lera.Search (rs, qual, ps) -> (rs, qual, ps)
    | _ -> invalid_arg "join_executor: not a Search"
  in
  let base = function
    | Lera.Base n -> Relation.columns (Database.relation db n)
    | _ -> invalid_arg "join_executor: operand is not a base relation"
  in
  let tables = Array.of_list (List.map base rs) in
  let plan = Join_plan.analyze ~operands:(Array.length tables) qual in
  let run tables (s : Eval.stats) =
    let out = ref [] in
    ignore
    @@ Join_plan.execute db
      ~on_build:(fun () -> s.Eval.builds <- s.Eval.builds + 1)
      ~on_probe:(fun () -> s.Eval.probes <- s.Eval.probes + 1)
      ~on_combination:(fun () -> s.Eval.combinations <- s.Eval.combinations + 1)
      plan tables
      (fun combo -> out := List.map (fun p -> Expr_eval.eval db ~inputs:combo p) ps :: !out);
    !out
  in
  { plan; tables; run }
