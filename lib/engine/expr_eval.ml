module Value = Eds_value.Value
module Collection = Eds_value.Collection
module Adt = Eds_value.Adt
module Lera = Eds_lera.Lera

exception Eval_error of string

let error fmt = Fmt.kstr (fun s -> raise (Eval_error s)) fmt

let rec eval db ~inputs (s : Lera.scalar) : Value.t =
  match s with
  | Lera.Cst v -> v
  | Lera.Param (i, _) -> error "unbound template parameter $%d" i
  | Lera.Col (i, j) -> (
    match List.nth_opt inputs (i - 1) with
    | None -> error "column %d.%d: %d operands available" i j (List.length inputs)
    | Some tup -> (
      match List.nth_opt tup (j - 1) with
      | Some v -> v
      | None -> error "column %d.%d: tuple has width %d" i j (List.length tup)))
  | Lera.Call ("and", args) ->
    Value.Bool (List.for_all (fun a -> to_bool (eval db ~inputs a)) args)
  | Lera.Call ("or", args) ->
    Value.Bool (List.exists (fun a -> to_bool (eval db ~inputs a)) args)
  | Lera.Call ("not", [ a ]) -> Value.Bool (not (to_bool (eval db ~inputs a)))
  | Lera.Call ("value", [ a ]) -> deref_deep db (eval db ~inputs a)
  | Lera.Call (f, args) -> (
    let vargs = List.map (eval db ~inputs) args in
    (* attribute-name-as-function sugar resolves to tuple projection when
       the registry does not know the name (paper §2.1: "an attribute in a
       nested tuple is designated using the attribute name as a function",
       with automatic VALUE insertion) *)
    match Adt.find (Database.adts db) f with
    | Some _ -> (
      try Adt.apply (Database.adts db) f vargs
      with Invalid_argument msg -> error "%s" msg)
    | None -> (
      match vargs with
      | [ v ] -> implicit_projection db f v
      | _ -> error "unknown function %s/%d" f (List.length vargs)))

and implicit_projection db field v =
  let project v =
    let bound =
      try Database.deref db v
      with Not_found -> error "dangling object reference %a" Value.pp v
    in
    match bound with
    | Value.Tuple fields -> (
      (* ESQL identifiers are case-insensitive *)
      let wanted = String.lowercase_ascii field in
      match
        List.find_opt (fun (n, _) -> String.lowercase_ascii n = wanted) fields
      with
      | Some (_, v') -> v'
      | None -> error "no attribute %s in %a" field Value.pp bound)
    | other -> error "cannot project %s out of %a" field Value.pp other
  in
  if Value.is_collection v then Collection.map project v else project v

and deref_deep db v =
  if Value.is_collection v then Collection.map (Database.deref db) v
  else
    try Database.deref db v
    with Not_found -> error "dangling object reference %a" Value.pp v

and to_bool = function
  | Value.Bool b -> b
  | Value.Null -> false
  | v -> error "expected a boolean, got %a" Value.pp v

let eval_bool db ~inputs s = to_bool (eval db ~inputs s)
