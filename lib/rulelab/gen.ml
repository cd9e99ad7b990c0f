(* Randomized schema-correct LERA plans and database instances — the
   qcheck generators that power the physical-layer equivalence suite,
   extracted here so the rule verifier can reuse them (the same plan
   distribution that checks Naive ≡ Indexed also checks
   rewritten ≡ unrewritten).

   Generated plans range over a fixed four-relation schema (R0, R1
   binary; R2 ternary; EDGE binary) with small integer domains, so
   fixpoints stay finite and cross-join blowups stay affordable. *)

module Value = Eds_value.Value
module Vtype = Eds_value.Vtype
module Lera = Eds_lera.Lera
module Relation = Eds_engine.Relation
module Database = Eds_engine.Database

let two = [ ("A", Vtype.Int); ("B", Vtype.Int) ]
let three = [ ("A", Vtype.Int); ("B", Vtype.Int); ("C", Vtype.Int) ]

let db ?(seed = 55555) () =
  let db = Database.create () in
  let state = ref seed in
  let rng bound =
    state := (!state * 1103515245) + 12345;
    abs !state mod bound
  in
  Database.add_relation db "R0"
    (Relation.make two
       (List.init 6 (fun _ -> [ Value.Int (rng 7); Value.Int (rng 7) ])));
  Database.add_relation db "R1"
    (Relation.make two
       (List.init 9 (fun _ -> [ Value.Int (rng 7); Value.Int (rng 7) ])));
  Database.add_relation db "R2"
    (Relation.make three
       (List.init 11 (fun _ ->
            [ Value.Int (rng 7); Value.Int (rng 7); Value.Int (rng 7) ])));
  Database.add_relation db "EDGE"
    (Relation.make two
       (List.init 5 (fun i -> [ Value.Int (i + 1); Value.Int (i + 2) ])));
  db

let instance rand =
  let db = Database.create () in
  let int bound = Random.State.int rand bound in
  let rows n ar =
    List.init n (fun _ -> List.init ar (fun _ -> Value.Int (int 7)))
  in
  Database.add_relation db "R0" (Relation.make two (rows (int 8) 2));
  Database.add_relation db "R1" (Relation.make two (rows (2 + int 9) 2));
  Database.add_relation db "R2" (Relation.make three (rows (int 12) 3));
  (* a chain plus a few random edges: values stay in 0..7, so closures
     over EDGE remain finite whatever the plan does around them *)
  let n = 1 + int 5 in
  let chain = List.init n (fun i -> [ Value.Int (i + 1); Value.Int (i + 2) ]) in
  let extra =
    List.init (int 4) (fun _ -> [ Value.Int (int 7); Value.Int (int 7) ])
  in
  Database.add_relation db "EDGE" (Relation.make two (chain @ extra));
  db

let gen_base =
  QCheck2.Gen.oneofl
    [ (Lera.Base "R0", 2); (Lera.Base "R1", 2); (Lera.Base "R2", 3) ]

(* a random atom over operands of arities [ars] (positional refs stay in
   range, so every generated plan is schema-correct) *)
let gen_atom ars =
  let open QCheck2.Gen in
  let refs =
    List.concat
      (List.mapi
         (fun i ar -> List.init ar (fun j -> Lera.col (i + 1) (j + 1)))
         ars)
  in
  let col = oneofl refs in
  oneof
    [
      (col >>= fun a -> col >|= fun b -> Lera.eq a b);
      ( col >>= fun a ->
        int_range 0 6 >|= fun n -> Lera.eq a (Lera.Cst (Value.Int n)) );
      ( col >>= fun a ->
        int_range 0 6 >|= fun n -> Lera.Call ("<", [ a; Lera.Cst (Value.Int n) ])
      );
    ]

let gen_qual ars =
  QCheck2.Gen.(list_size (int_range 0 3) (gen_atom ars) >|= Lera.conj)

let fix_counter = ref 0

(* coerce [r] of arity [ar] to arity [want] with a projection *)
let coerce (r, ar) want =
  if ar = want then r
  else Lera.Project (r, List.init want (fun i -> Lera.col 1 ((i mod ar) + 1)))

let rec gen_rel fuel =
  let open QCheck2.Gen in
  if fuel <= 0 then gen_base
  else
    frequency
      [
        (3, gen_base);
        ( 2,
          gen_rel (fuel - 1) >>= fun (r, ar) ->
          gen_qual [ ar ] >|= fun q -> (Lera.Filter (r, q), ar) );
        ( 3,
          list_size (int_range 1 3) (gen_rel (fuel - 1)) >>= fun ops ->
          let ars = List.map snd ops in
          gen_qual ars >>= fun q ->
          let refs =
            List.concat
              (List.mapi
                 (fun i ar -> List.init ar (fun j -> Lera.col (i + 1) (j + 1)))
                 ars)
          in
          list_size (int_range 1 3) (oneofl refs) >|= fun ps ->
          (Lera.Search (List.map fst ops, q, ps), List.length ps) );
        ( 1,
          gen_rel (fuel - 1) >>= fun a ->
          gen_rel (fuel - 1) >|= fun b ->
          (Lera.Union [ fst a; coerce b (snd a) ], snd a) );
        ( 1,
          gen_rel (fuel - 1) >>= fun a ->
          gen_rel (fuel - 1) >>= fun b ->
          bool >|= fun inter ->
          let b' = coerce b (snd a) in
          ( (if inter then Lera.Inter (fst a, b') else Lera.Diff (fst a, b')),
            snd a ) );
        ( 1,
          (* a transitive-closure-shaped fixpoint seeded by a generated
             binary relation; EDGE keeps the domain finite *)
          gen_rel (fuel - 1) >|= fun seed ->
          incr fix_counter;
          let n = Fmt.str "T%d" !fix_counter in
          ( Lera.Fix
              ( n,
                Lera.Union
                  [
                    coerce seed 2;
                    Lera.Search
                      ( [ Lera.Rvar n; Lera.Base "EDGE" ],
                        Lera.eq (Lera.col 1 2) (Lera.col 2 1),
                        [ Lera.col 1 1; Lera.col 2 2 ] );
                  ] ),
            2 ) );
      ]

let gen_plan = QCheck2.Gen.(int_range 1 3 >>= gen_rel)
let plan rand = QCheck2.Gen.generate1 ~rand gen_plan
let print_plan (r, _) = Lera.to_string r
