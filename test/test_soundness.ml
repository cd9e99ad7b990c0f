(* Randomized soundness of the rewriter: for arbitrary generated queries,
   the default rule program must preserve query results exactly — the
   fundamental invariant of §4.1's "legal transformations".  Also checks
   stability (rewriting a rewritten query changes nothing). *)

module Value = Eds_value.Value
module Vtype = Eds_value.Vtype
module Lera = Eds_lera.Lera
module Relation = Eds_engine.Relation
module Database = Eds_engine.Database
module Eval = Eds_engine.Eval
module Rule = Eds_rewriter.Rule
module Rulesets = Eds_rewriter.Rulesets
module Optimizer = Eds_rewriter.Optimizer

(* a fixed database with two base tables of small integers *)
let db =
  let db = Database.create () in
  let rng =
    let state = ref 20111 in
    fun bound ->
      state := (!state * 1103515245) + 12345;
      abs !state mod bound
  in
  let r_schema = [ ("A", Vtype.Int); ("B", Vtype.Int); ("C", Vtype.Int) ] in
  let s_schema = [ ("D", Vtype.Int); ("E", Vtype.Int) ] in
  Database.add_relation db "R"
    (Relation.make r_schema
       (List.init 25 (fun _ ->
            [ Value.Int (rng 8); Value.Int (rng 8); Value.Int (rng 8) ])));
  Database.add_relation db "S"
    (Relation.make s_schema
       (List.init 15 (fun _ -> [ Value.Int (rng 8); Value.Int (rng 8) ])));
  db

let ctx = Optimizer.make_ctx (Database.schema_env db)

(* -- query generator ----------------------------------------------------- *)

open QCheck2.Gen

let base = oneof [ return (Lera.Base "R", 3); return (Lera.Base "S", 2) ]

let comparison = oneofl [ "="; "<>"; "<"; "<="; ">"; ">=" ]

(* numeric scalar over operand arities *)
let rec num_scalar arities depth =
  let col =
    let* i = int_range 1 (List.length arities) in
    let* j = int_range 1 (List.nth arities (i - 1)) in
    return (Lera.Col (i, j))
  in
  let leaf = oneof [ col; map (fun n -> Lera.Cst (Value.Int n)) (int_range 0 8) ] in
  if depth = 0 then leaf
  else
    frequency
      [
        (3, leaf);
        ( 1,
          let* op = oneofl [ "+"; "-"; "*" ] in
          let* a = num_scalar arities (depth - 1) in
          let* b = num_scalar arities (depth - 1) in
          return (Lera.Call (op, [ a; b ])) );
      ]

let rec bool_scalar arities depth =
  let atom =
    let* op = comparison in
    let* a = num_scalar arities 1 in
    let* b = num_scalar arities 1 in
    return (Lera.Call (op, [ a; b ]))
  in
  if depth = 0 then atom
  else
    frequency
      [
        (3, atom);
        ( 1,
          let* cs = list_size (int_range 2 3) (bool_scalar arities (depth - 1)) in
          return (Lera.conj cs) );
        ( 1,
          let* cs = list_size (int_range 2 3) (bool_scalar arities (depth - 1)) in
          return (Lera.disj cs) );
        (1, map (fun c -> Lera.Call ("not", [ c ])) (bool_scalar arities (depth - 1)));
      ]

(* relation of a requested output arity *)
let rec rel_gen ~arity depth =
  if depth = 0 then begin
    (* project a base relation down/up to the arity *)
    let* b, w = base in
    let* proj = list_repeat arity (int_range 1 w) in
    return (Lera.Project (b, List.map (fun j -> Lera.Col (1, j)) proj))
  end
  else
    frequency
      [
        ( 3,
          (* a search over 1-2 random operands *)
          let* n_ops = int_range 1 2 in
          let* operands =
            list_repeat n_ops
              (let* a = int_range 2 3 in
               let* r = rel_gen ~arity:a (depth - 1) in
               return (r, a))
          in
          let arities = List.map snd operands in
          let* qual = bool_scalar arities 2 in
          let* proj = list_repeat arity (pair (int_range 1 n_ops) (int_range 1 2)) in
          let proj =
            List.map
              (fun (i, j) ->
                let w = List.nth arities (i - 1) in
                Lera.Col (i, min j w))
              proj
          in
          return (Lera.Search (List.map fst operands, qual, proj)) );
        ( 1,
          let* r = rel_gen ~arity (depth - 1) in
          let* qual = bool_scalar [ arity ] 1 in
          return (Lera.Filter (r, qual)) );
        ( 1,
          let* a = rel_gen ~arity (depth - 1) in
          let* b = rel_gen ~arity (depth - 1) in
          return (Lera.Union [ a; b ]) );
        ( 1,
          let* a = rel_gen ~arity (depth - 1) in
          let* b = rel_gen ~arity (depth - 1) in
          oneofl [ Lera.Diff (a, b); Lera.Inter (a, b) ] );
      ]

let query_gen =
  let* arity = int_range 1 3 in
  rel_gen ~arity 3

(* -- properties ----------------------------------------------------------- *)

let rewrite_default q = Optimizer.rewrite ctx q

let prop_default_program_sound =
  QCheck2.Test.make ~name:"default program preserves results (random queries)"
    ~count:120 ~print:Lera.to_string query_gen (fun q ->
      let before = Eval.run db q in
      let after = Eval.run db (rewrite_default q) in
      Relation.equal before after)

let prop_rewrite_stable =
  QCheck2.Test.make ~name:"rewriting is stable (second pass is identity)"
    ~count:60 ~print:Lera.to_string query_gen (fun q ->
      let once = rewrite_default q in
      let twice = rewrite_default once in
      Lera.equal once twice)

let prop_merging_preserves =
  let program =
    { Rule.blocks = [ Rule.block "merging" (Rulesets.merging ()) ]; rounds = 1 }
  in
  QCheck2.Test.make ~name:"merging block alone preserves results" ~count:80
    ~print:Lera.to_string query_gen (fun q ->
      Relation.equal (Eval.run db q) (Eval.run db (Optimizer.rewrite ~program ctx q)))

let prop_simplification_preserves =
  let program =
    {
      Rule.blocks = [ Rule.block "simplification" (Rulesets.simplification ()) ];
      rounds = 1;
    }
  in
  QCheck2.Test.make ~name:"simplification block alone preserves results" ~count:80
    ~print:Lera.to_string query_gen (fun q ->
      Relation.equal (Eval.run db q) (Eval.run db (Optimizer.rewrite ~program ctx q)))

let prop_semantic_preserves =
  let program =
    {
      Rule.blocks =
        [
          Rule.block "semantic" ~limit:60 (Rulesets.semantic ());
          Rule.block "simplification" (Rulesets.simplification ());
        ];
      rounds = 1;
    }
  in
  QCheck2.Test.make ~name:"semantic + simplification preserve results" ~count:60
    ~print:Lera.to_string query_gen (fun q ->
      Relation.equal (Eval.run db q) (Eval.run db (Optimizer.rewrite ~program ctx q)))

let prop_zero_config_is_identity =
  (* with all limits 0, rewriting applies no rule: the result is the
     input modulo the structural canonicalization of conjunctions *)
  QCheck2.Test.make ~name:"limit-0 program applies no rule" ~count:40
    ~print:Lera.to_string query_gen (fun q ->
      let program = Optimizer.program ~config:Optimizer.zero_config () in
      let stats = Eds_rewriter.Engine.fresh_stats () in
      let q' = Optimizer.rewrite ~program ~stats ctx q in
      let canon r =
        Eds_lera.Lera_term.(of_term (normalize (to_term r)))
      in
      stats.Eds_rewriter.Engine.rewrites_applied = 0 && Lera.equal (canon q) q')

(* A query the default program used to leave unconverged: it needs five
   rounds, so a four-round first pass still held [filter(R, false)] under
   a false search that a second pass then merged away. *)
let test_five_round_query_stable () =
  let c i j = Lera.Col (i, j) and k n = Lera.Cst (Value.Int n) in
  let call op a b = Lera.Call (op, [ a; b ]) in
  let pr = Lera.Project (Lera.Base "R", [ c 1 1; c 1 1 ]) in
  let q =
    Lera.Search
      ( [
          Lera.Union
            [
              Lera.Search ([ pr ], call "=" (c 1 1) (c 1 1), [ c 1 1; c 1 1 ]);
              Lera.Union
                [
                  Lera.Project (Lera.Base "S", [ c 1 1; c 1 1 ]);
                  Lera.Project (Lera.Base "S", [ c 1 1; c 1 2 ]);
                ];
            ];
          Lera.Filter
            ( Lera.Search ([ pr ], call "=" (c 1 1) (k 0), [ c 1 1; c 1 1 ]),
              call "<>" (call "+" (c 1 1) (c 1 1)) (c 1 1) );
        ],
        Lera.conj
          [
            Lera.disj
              [
                call "=" (c 1 1) (call "+" (c 1 1) (c 2 1));
                call "=" (c 1 1) (call "+" (c 1 1) (c 1 1));
              ];
            call "=" (k 1) (c 2 1);
            call "=" (call "+" (c 1 2) (c 1 1)) (k 0);
          ],
        [ c 1 1 ] )
  in
  let once = rewrite_default q in
  Alcotest.(check string) "second pass is identity" (Lera.to_string once)
    (Lera.to_string (rewrite_default once));
  Alcotest.(check bool) "results preserved" true
    (Relation.equal (Eval.run db q) (Eval.run db once))

let suite =
  List.map QCheck_alcotest.to_alcotest
    [
      prop_default_program_sound;
      prop_rewrite_stable;
      prop_merging_preserves;
      prop_simplification_preserves;
      prop_semantic_preserves;
      prop_zero_config_is_identity;
    ]
  @ [
      Alcotest.test_case "five-round query is stable" `Quick
        test_five_round_query_stable;
    ]
