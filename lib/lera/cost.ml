module Value = Eds_value.Value

type t = {
  cardinality : float;
  cost : float;
}

let pp ppf e = Fmt.pf ppf "card≈%.0f cost≈%.0f" e.cardinality e.cost

let default_cardinality = 1000.

let is_constant = function
  | Lera.Cst _ | Lera.Param _ -> true
  | Lera.Col _ | Lera.Call _ -> false

let rec selectivity (q : Lera.scalar) : float =
  match q with
  | Lera.Cst (Value.Bool true) -> 1.
  | Lera.Cst (Value.Bool false) -> 0.
  | Lera.Cst _ | Lera.Col _ | Lera.Param _ -> 0.5
  | Lera.Call ("and", cs) -> List.fold_left (fun s c -> s *. selectivity c) 1. cs
  | Lera.Call ("or", cs) ->
    Float.min 1. (List.fold_left (fun s c -> s +. selectivity c) 0. cs)
  | Lera.Call ("not", [ c ]) -> 1. -. selectivity c
  | Lera.Call ("=", [ a; b ]) ->
    if is_constant a || is_constant b then 0.1 else 0.05
  | Lera.Call (("<" | "<=" | ">" | ">="), _) -> 0.3
  | Lera.Call ("<>", _) -> 0.9
  | Lera.Call (("member" | "include"), _) -> 0.25
  | Lera.Call (("all" | "exist"), _) -> 0.5
  | Lera.Call (_, _) -> 0.5

let estimate ?(relation_cardinality = fun _ -> None) ?(fix_rounds = 4) env
    (r : Lera.rel) : t =
  ignore env;
  (* recursion variables are estimated at the saturation guess bound to
     their name while inside the fixpoint body *)
  let rec go rvars r : t =
    match r with
    | Lera.Base n -> (
      match List.assoc_opt n rvars with
      | Some card -> { cardinality = card; cost = 0. }
      | None ->
        let card =
          match relation_cardinality n with
          | Some c -> float_of_int c
          | None -> default_cardinality
        in
        { cardinality = card; cost = card })
    | Lera.Rvar n ->
      let card =
        match List.assoc_opt n rvars with
        | Some c -> c
        | None -> default_cardinality
      in
      { cardinality = card; cost = 0. }
    | Lera.Filter (a, q) ->
      let ea = go rvars a in
      {
        cardinality = ea.cardinality *. selectivity q;
        cost = ea.cost +. ea.cardinality;
      }
    | Lera.Project (a, _) ->
      let ea = go rvars a in
      { ea with cost = ea.cost +. ea.cardinality }
    | Lera.Join (a, b, q) ->
      let ea = go rvars a and eb = go rvars b in
      let combos = ea.cardinality *. eb.cardinality in
      {
        cardinality = combos *. selectivity q;
        cost = ea.cost +. eb.cost +. combos;
      }
    | Lera.Union rs ->
      let es = List.map (go rvars) rs in
      {
        cardinality = List.fold_left (fun s e -> s +. e.cardinality) 0. es;
        cost = List.fold_left (fun s e -> s +. e.cost) 0. es;
      }
    | Lera.Diff (a, b) ->
      let ea = go rvars a and eb = go rvars b in
      { cardinality = ea.cardinality /. 2.; cost = ea.cost +. eb.cost }
    | Lera.Inter (a, b) ->
      let ea = go rvars a and eb = go rvars b in
      {
        cardinality = Float.min ea.cardinality eb.cardinality /. 2.;
        cost = ea.cost +. eb.cost;
      }
    | Lera.Search (rs, q, _) ->
      let es = List.map (go rvars) rs in
      let combos = List.fold_left (fun p e -> p *. e.cardinality) 1. es in
      {
        cardinality = combos *. selectivity q;
        cost = List.fold_left (fun s e -> s +. e.cost) 0. es +. combos;
      }
    | Lera.Fix (n, body) ->
      (* first pass: body with an empty recursion estimate gives the base
         size; the saturation guess grows it; the fixpoint is charged
         [fix_rounds] body evaluations at the saturated estimate *)
      let base = go ((n, 0.) :: rvars) body in
      let saturated = base.cardinality *. float_of_int fix_rounds in
      let per_round = go ((n, saturated) :: rvars) body in
      {
        cardinality = saturated;
        cost = per_round.cost *. float_of_int fix_rounds;
      }
    | Lera.Nest (a, group, _) ->
      let ea = go rvars a in
      let groups = ea.cardinality /. Float.max 1. (float_of_int (List.length group)) in
      { cardinality = Float.max 1. groups; cost = ea.cost +. ea.cardinality }
    | Lera.Unnest (a, _) ->
      let ea = go rvars a in
      (* collections average a handful of elements *)
      { cardinality = ea.cardinality *. 4.; cost = ea.cost +. ea.cardinality }
  in
  go [] r
