module Value = Eds_value.Value
module Vtype = Eds_value.Vtype
module Term = Eds_term.Term

exception Bridge_error of string

let error fmt = Fmt.kstr (fun s -> raise (Bridge_error s)) fmt

(* -- parameters -------------------------------------------------------- *)

(* A parameter is a nullary application whose head spells its slot and
   type, ["$3:int"]: it has no argument a rule could match, read or
   rebuild, and no ADT function can carry a name starting with '$'. *)
let param_types = [ ("int", Vtype.Int); ("real", Vtype.Real); ("string", Vtype.String) ]

let param_term i ty =
  match List.find_opt (fun (_, t) -> Vtype.equal t ty) param_types with
  | Some (tag, _) -> Term.App (Printf.sprintf "$%d:%s" i tag, [])
  | None -> error "parameter $%d has non-scalar type %a" i Vtype.pp ty

let is_param_head f = String.length f > 1 && f.[0] = '$'

let param_of_head f =
  match String.index_opt f ':' with
  | Some c -> (
    match
      ( int_of_string_opt (String.sub f 1 (c - 1)),
        List.assoc_opt (String.sub f (c + 1) (String.length f - c - 1)) param_types )
    with
    | Some i, Some ty -> Lera.Param (i, ty)
    | _ -> error "malformed parameter %s" f)
  | None -> error "malformed parameter %s" f

let is_param = function
  | Term.App (f, []) -> is_param_head f
  | Term.Var _ | Term.Cvar _ | Term.Cst _ | Term.App _ | Term.Coll _ -> false

let rec has_param t =
  match t with
  | Term.App (f, []) -> is_param_head f
  | Term.App (_, args) | Term.Coll (_, args) -> List.exists has_param args
  | Term.Var _ | Term.Cvar _ | Term.Cst _ -> false

let rec scalar_to_term (s : Lera.scalar) : Term.t =
  match s with
  | Lera.Cst v -> Term.Cst v
  | Lera.Param (i, ty) -> param_term i ty
  | Lera.Col (i, j) -> Term.app "@" [ Term.int i; Term.int j ]
  | Lera.Call ("and", args) ->
    Term.app "and" [ Term.Coll (Term.Bag, List.map scalar_to_term args) ]
  | Lera.Call ("or", args) ->
    Term.app "or" [ Term.Coll (Term.Bag, List.map scalar_to_term args) ]
  | Lera.Call (f, args) -> Term.app f (List.map scalar_to_term args)

let rec scalar_of_term (t : Term.t) : Lera.scalar =
  match t with
  | Term.Cst v -> Lera.Cst v
  | Term.App ("@", [ Term.Cst (Value.Int i); Term.Cst (Value.Int j) ]) -> Lera.Col (i, j)
  | Term.App ("and", [ Term.Coll (Term.Bag, cs) ]) ->
    Lera.conj (List.map scalar_of_term cs)
  | Term.App ("or", [ Term.Coll (Term.Bag, cs) ]) ->
    Lera.disj (List.map scalar_of_term cs)
  | Term.App (f, []) when is_param_head f -> param_of_head f
  | Term.App (("and" | "or") as f, args) ->
    (* binary form, as written in user rules *)
    let make = if String.equal f "and" then Lera.conj else Lera.disj in
    make (List.map scalar_of_term args)
  | Term.App (f, args) -> Lera.Call (f, List.map scalar_of_term args)
  | Term.Var _ | Term.Cvar _ | Term.Coll _ ->
    error "not a scalar term: %a" Term.pp t

let ints_tuple js = Term.Coll (Term.Tuple, List.map Term.int js)

let rec to_term (r : Lera.rel) : Term.t =
  match r with
  | Lera.Base n -> Term.app "rel" [ Term.str n ]
  | Lera.Rvar n -> Term.app "rvar" [ Term.str n ]
  | Lera.Filter (a, q) -> Term.app "filter" [ to_term a; scalar_to_term q ]
  | Lera.Project (a, ps) ->
    Term.app "proj" [ to_term a; Term.Coll (Term.Tuple, List.map scalar_to_term ps) ]
  | Lera.Join (a, b, q) -> Term.app "join" [ to_term a; to_term b; scalar_to_term q ]
  | Lera.Union rs -> Term.app "union" [ Term.Coll (Term.Set, List.map to_term rs) ]
  | Lera.Diff (a, b) -> Term.app "difference" [ to_term a; to_term b ]
  | Lera.Inter (a, b) -> Term.app "intersection" [ to_term a; to_term b ]
  | Lera.Search (rs, q, ps) ->
    Term.app "search"
      [
        Term.Coll (Term.List, List.map to_term rs);
        scalar_to_term q;
        Term.Coll (Term.Tuple, List.map scalar_to_term ps);
      ]
  | Lera.Fix (n, body) -> Term.app "fix" [ Term.str n; to_term body ]
  | Lera.Nest (a, group, nested) ->
    Term.app "nest" [ to_term a; ints_tuple group; ints_tuple nested ]
  | Lera.Unnest (a, i) -> Term.app "unnest" [ to_term a; Term.int i ]

let int_of_term = function
  | Term.Cst (Value.Int i) -> i
  | t -> error "expected an integer, got %a" Term.pp t

let ints_of_tuple = function
  | Term.Coll (Term.Tuple, js) -> List.map int_of_term js
  | t -> error "expected a tuple of column numbers, got %a" Term.pp t

let rec of_term (t : Term.t) : Lera.rel =
  match t with
  | Term.App ("rel", [ Term.Cst (Value.Str n) ]) -> Lera.Base n
  | Term.App ("rvar", [ Term.Cst (Value.Str n) ]) -> Lera.Rvar n
  | Term.App ("filter", [ a; q ]) -> Lera.Filter (of_term a, scalar_of_term q)
  | Term.App ("proj", [ a; Term.Coll (Term.Tuple, ps) ]) ->
    Lera.Project (of_term a, List.map scalar_of_term ps)
  | Term.App ("join", [ a; b; q ]) -> Lera.Join (of_term a, of_term b, scalar_of_term q)
  | Term.App ("union", [ Term.Coll (Term.Set, rs) ]) -> Lera.Union (List.map of_term rs)
  | Term.App ("difference", [ a; b ]) -> Lera.Diff (of_term a, of_term b)
  | Term.App ("intersection", [ a; b ]) -> Lera.Inter (of_term a, of_term b)
  | Term.App ("search", [ Term.Coll (Term.List, rs); q; Term.Coll (Term.Tuple, ps) ]) ->
    Lera.Search (List.map of_term rs, scalar_of_term q, List.map scalar_of_term ps)
  | Term.App ("fix", [ Term.Cst (Value.Str n); body ]) -> Lera.Fix (n, of_term body)
  | Term.App ("nest", [ a; group; nested ]) ->
    Lera.Nest (of_term a, ints_of_tuple group, ints_of_tuple nested)
  | Term.App ("unnest", [ a; i ]) -> Lera.Unnest (of_term a, int_of_term i)
  | Term.Var _ | Term.Cvar _ | Term.Cst _ | Term.App _ | Term.Coll _ ->
    error "not a relational term: %a" Term.pp t

(* -- normalization ----------------------------------------------------- *)

let flatten_junction op cs =
  let rec expand t =
    match t with
    | Term.App (o, [ Term.Coll (Term.Bag, inner) ]) when String.equal o op ->
      List.concat_map expand inner
    | Term.App (o, args) when String.equal o op && List.length args >= 2 ->
      List.concat_map expand args
    | Term.Var _ | Term.Cvar _ | Term.Cst _ | Term.App _ | Term.Coll _ -> [ t ]
  in
  List.concat_map expand cs

(* Evaluate the rhs constructor functions once their arguments are explicit
   collection constructors of a common kind. *)
let eval_constructor f args =
  let concat kinds_ok =
    let explode = function
      | Term.Coll (k, ts) when List.mem k kinds_ok -> Some ts
      | Term.Var _ | Term.Cvar _ | Term.Cst _ | Term.App _ | Term.Coll _ -> None
    in
    match List.map explode args with
    | [] -> None
    | parts when List.for_all Option.is_some parts ->
      let kind =
        match args with
        | Term.Coll (k, _) :: _ -> k
        | _ -> assert false
      in
      Some (Term.Coll (kind, List.concat_map Option.get parts))
    | _ -> None
  in
  match f with
  | "append" -> concat [ Term.List; Term.Tuple; Term.Array ]
  | "set_union" -> concat [ Term.Set; Term.Bag ]
  | _ -> None

(* Qualifications directly under a relational operator stay in the n-ary
   and(bag(…)) form even with a single conjunct, so that conjunct-set
   rules (the Figure 10-12 family) match them; boolean constants and
   still-unbound variables are left alone. *)
let requalify (q : Term.t) : Term.t =
  match q with
  | Term.App ("and", [ Term.Coll (Term.Bag, _) ]) -> q
  | Term.Cst (Value.Bool _) | Term.Var _ | Term.Cvar _ -> q
  | _ -> Term.App ("and", [ Term.Coll (Term.Bag, [ q ]) ])

(* union is associative: members that are themselves unions splice into
   the enclosing operand set *)
let flatten_union_members members =
  List.concat_map
    (fun m ->
      match m with
      | Term.App ("union", [ Term.Coll (Term.Set, inner) ]) -> inner
      | _ -> [ m ])
    members

(* Normalization preserves physical identity of already-normal subterms:
   the rewrite engine re-normalizes the whole query after every step, and
   returning [t] itself (==) whenever nothing changed means only the
   rebuilt spine above a redex is reallocated; everything else keeps its
   identity, which the engine's incremental re-scan and schema cache key
   on.  The helpers below implement the copy-avoidance. *)

let map_sharing f xs =
  let changed = ref false in
  let ys =
    List.map
      (fun x ->
        let y = f x in
        if not (y == x) then changed := true;
        y)
      xs
  in
  if !changed then ys else xs

let rec strictly_sorted = function
  | a :: (b :: _ as rest) -> Term.compare a b < 0 && strictly_sorted rest
  | [] | [ _ ] -> true

let sort_uniq_sharing xs =
  if strictly_sorted xs then xs else List.sort_uniq Term.compare xs

let list_sharing old fresh =
  if List.length fresh = List.length old && List.for_all2 ( == ) fresh old then old
  else fresh

let rec normalize (t : Term.t) : Term.t =
  match t with
  | Term.Var _ | Term.Cvar _ | Term.Cst _ -> t
  | Term.Coll (Term.Set, args) ->
    (* set constructors (e.g. a union's operand set) are canonicalized:
       sorted, duplicates removed *)
    let args' = sort_uniq_sharing (map_sharing normalize args) in
    if args' == args then t else Term.Coll (Term.Set, args')
  | Term.Coll (k, args) ->
    let args' = map_sharing normalize args in
    if args' == args then t else Term.Coll (k, args')
  | Term.App (f, args0) -> (
    let args = map_sharing normalize args0 in
    match f, args with
    | ("and" | "or"), [ Term.Coll (Term.Bag, cs) ] -> (
      match junction f cs with
      | Term.App (_, [ Term.Coll (Term.Bag, cs') ]) when cs' == cs && args == args0
        ->
        t
      | t' -> t')
    | ("and" | "or"), (_ :: _ :: _ as cs) -> junction f cs
    | "union", [ Term.Coll (Term.Set, members) ] ->
      let members' =
        sort_uniq_sharing (list_sharing members (flatten_union_members members))
      in
      if members' == members && args == args0 then t
      else Term.App ("union", [ Term.Coll (Term.Set, members') ])
    | "search", [ ins; q; p ] ->
      let q' = requalify q in
      if q' == q && args == args0 then t else Term.App ("search", [ ins; q'; p ])
    | "filter", [ r; q ] ->
      let q' = requalify q in
      if q' == q && args == args0 then t else Term.App ("filter", [ r; q' ])
    | "join", [ a; b; q ] ->
      let q' = requalify q in
      if q' == q && args == args0 then t else Term.App ("join", [ a; b; q' ])
    | _ -> (
      match eval_constructor f args with
      | Some t' -> t'
      | None -> if args == args0 then t else Term.App (f, args)))

and junction op cs =
  (* conjunction and disjunction are commutative and idempotent, so the
     argument bag is canonicalized: sorted, duplicates removed.  This
     also keeps growth rules (transitivity, equality substitution) from
     re-deriving conjuncts that are already present. *)
  match sort_uniq_sharing (list_sharing cs (flatten_junction op cs)) with
  | [] -> if String.equal op "and" then Term.tru else Term.fls
  | [ c ] -> c
  | cs' -> Term.App (op, [ Term.Coll (Term.Bag, cs') ])

(* -- column utilities -------------------------------------------------- *)

let rec map_cols f (t : Term.t) : Term.t =
  match t with
  | Term.App ("@", [ Term.Cst (Value.Int i); Term.Cst (Value.Int j) ]) -> f i j
  | Term.Var _ | Term.Cvar _ | Term.Cst _ -> t
  | Term.App (g, args) -> Term.App (g, List.map (map_cols f) args)
  | Term.Coll (k, args) -> Term.Coll (k, List.map (map_cols f) args)

let col_term i j = Term.app "@" [ Term.int i; Term.int j ]
let shift_cols ~by t = map_cols (fun i j -> col_term (i + by) j) t

let cols_of t =
  let rec go acc t =
    match t with
    | Term.App ("@", [ Term.Cst (Value.Int i); Term.Cst (Value.Int j) ]) ->
      (i, j) :: acc
    | Term.Var _ | Term.Cvar _ | Term.Cst _ -> acc
    | Term.App (_, args) | Term.Coll (_, args) -> List.fold_left go acc args
  in
  List.rev (go [] t)

let merge_subst ~slot ~inner_arity ~proj t =
  let replace i j =
    if i < slot then col_term i j
    else if i = slot then begin
      match List.nth_opt proj (j - 1) with
      | Some e -> shift_cols ~by:(slot - 1) e
      | None ->
        error "merge_subst: projection of the inner search has %d items, need %d"
          (List.length proj) j
    end
    else col_term (i + inner_arity - 1) j
  in
  map_cols replace t
