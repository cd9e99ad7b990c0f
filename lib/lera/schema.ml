module Value = Eds_value.Value
module Vtype = Eds_value.Vtype
module Adt = Eds_value.Adt

type t = (string * Vtype.t) list

type env = {
  types : Vtype.env;
  relations : (string * t) list;
  adts : Adt.registry;
}

let arity = List.length

let pp ppf sch =
  let pp_attr ppf (n, ty) = Fmt.pf ppf "%s: %a" n Vtype.pp ty in
  Fmt.pf ppf "(%a)" (Fmt.list ~sep:(Fmt.any ", ") pp_attr) sch

exception Schema_error of string

let error fmt = Fmt.kstr (fun s -> raise (Schema_error s)) fmt

let attr inputs i j =
  match List.nth_opt inputs (i - 1) with
  | None -> error "column %d.%d: operator has %d operands" i j (List.length inputs)
  | Some sch -> (
    match List.nth_opt sch (j - 1) with
    | None -> error "column %d.%d: operand has arity %d" i j (arity sch)
    | Some a -> a)

let rec scalar_type env ~inputs (s : Lera.scalar) : Vtype.t =
  match s with
  | Lera.Cst v -> Vtype.type_of_value env.types v
  | Lera.Param (_, ty) -> ty
  | Lera.Col (i, j) -> snd (attr inputs i j)
  | Lera.Call ("value", [ arg ]) -> (
    match scalar_type env ~inputs arg with
    | Vtype.Object n -> Vtype.expand env.types (Vtype.Object n)
    | ty -> ty)
  | Lera.Call ("project", [ arg; Lera.Cst (Value.Str field) ]) -> (
    let ty = scalar_type env ~inputs arg in
    let field_of ty =
      match Vtype.field_type env.types ty field with
      | Some fty -> fty
      | None -> error "project: no field %s in %a" field Vtype.pp ty
    in
    match Vtype.expand env.types ty with
    | Vtype.Set e -> Vtype.Set (field_of e)
    | Vtype.Bag e -> Vtype.Bag (field_of e)
    | Vtype.List e -> Vtype.List (field_of e)
    | Vtype.Array e -> Vtype.Array (field_of e)
    | _ -> field_of ty)
  | Lera.Call (("and" | "or" | "not"), _) -> Vtype.Bool
  | Lera.Call (("=" | "<>" | "<" | "<=" | ">" | ">=") as op, [ a; b ]) -> (
    (* comparison with a collection operand broadcasts point-wise *)
    let ta = scalar_type env ~inputs a and tb = scalar_type env ~inputs b in
    match Vtype.expand env.types ta, Vtype.expand env.types tb with
    | Vtype.Set _, _ | _, Vtype.Set _ -> Vtype.Set Vtype.Bool
    | Vtype.Bag _, _ | _, Vtype.Bag _ -> Vtype.Bag Vtype.Bool
    | Vtype.List _, _ | _, Vtype.List _ -> Vtype.List Vtype.Bool
    | _ ->
      ignore op;
      Vtype.Bool)
  | Lera.Call (f, args) -> (
    match Adt.find env.adts f with
    | Some entry ->
      List.iter (fun a -> ignore (scalar_type env ~inputs a)) args;
      entry.Adt.result_type
    | None -> (
      (* attribute-name-as-function sugar (paper §2.1): salary(Refactor)
         is PROJECT(VALUE(Refactor), Salary) before type checking runs *)
      match args with
      | [ arg ] -> (
        let ty = scalar_type env ~inputs arg in
        match field_type_ci env ty f with
        | Some fty -> fty
        | None -> error "unknown function or attribute %s" f)
      | _ -> error "unknown function %s" f))

(* case-insensitive field lookup through objects and collections,
   point-wise over collection element types *)
and field_type_ci env ty field =
  let lookup fields =
    List.find_opt (fun (n, _) -> String.lowercase_ascii n = String.lowercase_ascii field) fields
    |> Option.map snd
  in
  match Vtype.expand env.types ty with
  | Vtype.Tuple fs -> lookup fs
  | Vtype.Set e -> Option.map (fun t -> Vtype.Set t) (field_type_ci env e field)
  | Vtype.Bag e -> Option.map (fun t -> Vtype.Bag t) (field_type_ci env e field)
  | Vtype.List e -> Option.map (fun t -> Vtype.List t) (field_type_ci env e field)
  | Vtype.Array e -> Option.map (fun t -> Vtype.Array t) (field_type_ci env e field)
  | Vtype.Any -> Some Vtype.Any
  | Vtype.Bool | Vtype.Int | Vtype.Real | Vtype.String | Vtype.Enum _
  | Vtype.Collection _ | Vtype.Named _ | Vtype.Object _ ->
    None

let scalar_name inputs (s : Lera.scalar) =
  match s with
  | Lera.Col (i, j) -> (
    match List.nth_opt inputs (i - 1) with
    | Some sch -> (
      match List.nth_opt sch (j - 1) with
      | Some (n, _) -> n
      | None -> Fmt.str "c%d_%d" i j)
    | None -> Fmt.str "c%d_%d" i j)
  | Lera.Call ("project", [ _; Lera.Cst (Value.Str field) ]) -> field
  | Lera.Call (f, _) -> f
  | Lera.Cst _ | Lera.Param _ -> "const"

let nth_attr sch j =
  match List.nth_opt sch (j - 1) with
  | Some a -> a
  | None -> error "column %d out of range for arity %d" j (arity sch)

let rec of_rel ?(rvars = []) env (r : Lera.rel) : t =
  let recur = of_rel ~rvars env in
  match r with
  | Lera.Base n -> (
    (* recursion variables shadow base relations: the paper writes the
       recursive view's own name inside its fixpoint body *)
    match List.assoc_opt n rvars with
    | Some sch -> sch
    | None -> (
      match List.assoc_opt n env.relations with
      | Some sch -> sch
      | None -> error "unknown relation %s" n))
  | Lera.Rvar n -> (
    match List.assoc_opt n rvars with
    | Some sch -> sch
    | None -> error "unbound recursion variable %s" n)
  | Lera.Filter (a, q) ->
    let sch = recur a in
    ignore (scalar_type env ~inputs:[ sch ] q);
    sch
  | Lera.Project (a, ps) ->
    let sch = recur a in
    List.map (fun p -> (scalar_name [ sch ] p, scalar_type env ~inputs:[ sch ] p)) ps
  | Lera.Join (a, b, q) ->
    let sa = recur a and sb = recur b in
    ignore (scalar_type env ~inputs:[ sa; sb ] q);
    sa @ sb
  | Lera.Union rs -> (
    match rs with
    | [] -> error "empty union"
    | first :: rest ->
      let sch = recur first in
      List.iter
        (fun r' ->
          let sch' = recur r' in
          if arity sch' <> arity sch then
            error "union of incompatible arities %d and %d" (arity sch) (arity sch'))
        rest;
      sch)
  | Lera.Diff (a, b) | Lera.Inter (a, b) ->
    let sa = recur a and sb = recur b in
    if arity sa <> arity sb then
      error "set operation on incompatible arities %d and %d" (arity sa) (arity sb);
    sa
  | Lera.Search (rs, q, ps) ->
    let inputs = List.map recur rs in
    ignore (scalar_type env ~inputs q);
    List.map (fun p -> (scalar_name inputs p, scalar_type env ~inputs p)) ps
  | Lera.Fix (n, body) ->
    let sch = fix_schema ~rvars env n body in
    let sch' = of_rel ~rvars:((n, sch) :: rvars) env body in
    if arity sch' <> arity sch then
      error "fixpoint %s: body arity %d differs from base arity %d" n (arity sch')
        (arity sch);
    sch
  | Lera.Nest (a, group, nested) ->
    let sch = recur a in
    let grouped = List.map (nth_attr sch) group in
    let collected =
      match nested with
      | [ j ] ->
        let n, ty = nth_attr sch j in
        (n, Vtype.Set ty)
      | js ->
        let fields = List.map (nth_attr sch) js in
        ("nested", Vtype.Set (Vtype.Tuple fields))
    in
    grouped @ [ collected ]
  | Lera.Unnest (a, i) ->
    let sch = recur a in
    List.mapi
      (fun idx (n, ty) ->
        if idx + 1 = i then
          match Vtype.element_type env.types ty with
          | Some ety -> (n, ety)
          | None -> error "unnest: column %d is not a collection" i
        else (n, ty))
      sch

(* The recursion variable's schema comes from the arms of the body that do
   not mention it (the base case of the recursion). *)
and fix_schema ~rvars env n body =
  let uses_rvar r = List.mem n (Lera.free_rvars r) || base_mentions n r in
  let arms = match body with Lera.Union rs -> rs | r -> [ r ] in
  match List.find_opt (fun arm -> not (uses_rvar arm)) arms with
  | Some base -> of_rel ~rvars env base
  | None -> error "fixpoint %s has no non-recursive arm" n

(* A Base node with the fixpoint's name also denotes the recursion
   variable (the paper writes fix(BETTER_THAN, union({DOMINATE, search((
   BETTER_THAN, BETTER_THAN), …)})) with the view name itself). *)
and base_mentions n r =
  match r with
  | Lera.Base m -> String.equal m n
  | Lera.Rvar _ -> false
  | Lera.Fix (m, body) -> (not (String.equal m n)) && base_mentions n body
  | Lera.Filter _ | Lera.Project _ | Lera.Join _ | Lera.Union _ | Lera.Diff _
  | Lera.Inter _ | Lera.Search _ | Lera.Nest _ | Lera.Unnest _ ->
    List.exists (base_mentions n) (Lera.inputs r)
