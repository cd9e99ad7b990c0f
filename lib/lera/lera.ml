module Value = Eds_value.Value
module Vtype = Eds_value.Vtype

type scalar =
  | Cst of Value.t
  | Col of int * int
  | Call of string * scalar list
  | Param of int * Vtype.t

type rel =
  | Base of string
  | Rvar of string
  | Filter of rel * scalar
  | Project of rel * scalar list
  | Join of rel * rel * scalar
  | Union of rel list
  | Diff of rel * rel
  | Inter of rel * rel
  | Search of rel list * scalar * scalar list
  | Fix of string * rel
  | Nest of rel * int list * int list
  | Unnest of rel * int

let tru = Cst (Value.Bool true)
let fls = Cst (Value.Bool false)

let conjuncts q =
  let rec go acc = function
    | Call ("and", args) -> List.fold_left go acc args
    | Cst (Value.Bool true) -> acc
    | s -> s :: acc
  in
  List.rev (go [] q)

let conj qs =
  match List.concat_map conjuncts qs with
  | [] -> tru
  | [ q ] -> q
  | qs' -> Call ("and", qs')

let disjuncts q =
  let rec go acc = function
    | Call ("or", args) -> List.fold_left go acc args
    | Cst (Value.Bool false) -> acc
    | s -> s :: acc
  in
  List.rev (go [] q)

let disj qs =
  match List.concat_map disjuncts qs with
  | [] -> fls
  | [ q ] -> q
  | qs' -> Call ("or", qs')

let eq a b = Call ("=", [ a; b ])
let col i j = Col (i, j)

let rec equal_scalar a b =
  match a, b with
  | Cst u, Cst v -> Value.equal u v
  | Col (i, j), Col (i', j') -> i = i' && j = j'
  | Call (f, xs), Call (g, ys) ->
    String.equal f g && List.length xs = List.length ys
    && List.for_all2 equal_scalar xs ys
  | Param (i, t), Param (i', t') -> i = i' && Vtype.equal t t'
  | (Cst _ | Col _ | Call _ | Param _), _ -> false

let rec equal r r' =
  match r, r' with
  | Base n, Base n' | Rvar n, Rvar n' -> String.equal n n'
  | Filter (a, q), Filter (a', q') -> equal a a' && equal_scalar q q'
  | Project (a, ps), Project (a', ps') ->
    equal a a' && List.length ps = List.length ps' && List.for_all2 equal_scalar ps ps'
  | Join (a, b, q), Join (a', b', q') -> equal a a' && equal b b' && equal_scalar q q'
  | Union rs, Union rs' -> List.length rs = List.length rs' && List.for_all2 equal rs rs'
  | Diff (a, b), Diff (a', b') | Inter (a, b), Inter (a', b') -> equal a a' && equal b b'
  | Search (rs, q, ps), Search (rs', q', ps') ->
    List.length rs = List.length rs'
    && List.for_all2 equal rs rs'
    && equal_scalar q q'
    && List.length ps = List.length ps'
    && List.for_all2 equal_scalar ps ps'
  | Fix (n, e), Fix (n', e') -> String.equal n n' && equal e e'
  | Nest (a, g, c), Nest (a', g', c') -> equal a a' && g = g' && c = c'
  | Unnest (a, i), Unnest (a', i') -> equal a a' && i = i'
  | ( ( Base _ | Rvar _ | Filter _ | Project _ | Join _ | Union _ | Diff _
      | Inter _ | Search _ | Fix _ | Nest _ | Unnest _ ),
      _ ) ->
    false

(* Structural hashes compatible with [equal_scalar]/[equal]: used to key
   hashtables over LERA terms (the evaluator's closed-fixpoint memo). *)
let rec hash_scalar s =
  match s with
  | Cst v -> (3 * 31) + Value.hash v
  | Col (i, j) -> (((5 * 31) + i) * 31) + j
  | Call (f, args) ->
    List.fold_left
      (fun acc a -> (acc * 31) + hash_scalar a)
      ((7 * 31) + Hashtbl.hash f)
      args
  | Param (i, _) -> (59 * 31) + i

let hash_ints seed = List.fold_left (fun acc i -> (acc * 31) + i) seed

let rec hash r =
  match r with
  | Base n -> (11 * 31) + Hashtbl.hash n
  | Rvar n -> (13 * 31) + Hashtbl.hash n
  | Filter (a, q) -> (((17 * 31) + hash a) * 31) + hash_scalar q
  | Project (a, ps) ->
    List.fold_left (fun acc p -> (acc * 31) + hash_scalar p) ((19 * 31) + hash a) ps
  | Join (a, b, q) -> (((((23 * 31) + hash a) * 31) + hash b) * 31) + hash_scalar q
  | Union rs -> List.fold_left (fun acc x -> (acc * 31) + hash x) 29 rs
  | Diff (a, b) -> (((31 * 31) + hash a) * 31) + hash b
  | Inter (a, b) -> (((37 * 31) + hash a) * 31) + hash b
  | Search (rs, q, ps) ->
    let acc = List.fold_left (fun acc x -> (acc * 31) + hash x) 41 rs in
    List.fold_left (fun acc p -> (acc * 31) + hash_scalar p) ((acc * 31) + hash_scalar q) ps
  | Fix (n, e) -> (((43 * 31) + Hashtbl.hash n) * 31) + hash e
  | Nest (a, g, c) -> hash_ints (hash_ints ((47 * 31) + hash a) g) c
  | Unnest (a, i) -> (((53 * 31) + hash a) * 31) + i

let inputs = function
  | Base _ | Rvar _ -> []
  | Filter (a, _) | Project (a, _) | Nest (a, _, _) | Unnest (a, _) | Fix (_, a) -> [ a ]
  | Join (a, b, _) | Diff (a, b) | Inter (a, b) -> [ a; b ]
  | Union rs -> rs
  | Search (rs, _, _) -> rs

let rec operator_count r =
  match r with
  | Base _ | Rvar _ -> 0
  | Filter _ | Project _ | Join _ | Union _ | Diff _ | Inter _ | Search _
  | Fix _ | Nest _ | Unnest _ ->
    List.fold_left (fun n i -> n + operator_count i) 1 (inputs r)

let scalar_cols s =
  let rec go acc = function
    | Cst _ | Param _ -> acc
    | Col (i, j) -> (i, j) :: acc
    | Call (_, args) -> List.fold_left go acc args
  in
  List.rev (go [] s)

let free_rvars r =
  let add acc n = if List.mem n acc then acc else n :: acc in
  let rec go bound acc = function
    | Base _ -> acc
    | Rvar n -> if List.mem n bound then acc else add acc n
    | Fix (n, e) -> go (n :: bound) acc e
    | ( Filter _ | Project _ | Join _ | Union _ | Diff _ | Inter _ | Search _
      | Nest _ | Unnest _ ) as op ->
      List.fold_left (go bound) acc (inputs op)
  in
  List.rev (go [] [] r)

let rec obviously_empty r =
  match r with
  | Base _ | Rvar _ -> false
  | Filter (a, q) -> equal_scalar q fls || obviously_empty a
  | Search (rs, q, _) -> equal_scalar q fls || List.exists obviously_empty rs
  | Join (a, b, q) -> equal_scalar q fls || obviously_empty a || obviously_empty b
  | Project (a, _) | Unnest (a, _) | Nest (a, _, _) -> obviously_empty a
  | Union rs -> rs <> [] && List.for_all obviously_empty rs
  | Inter (a, b) -> obviously_empty a || obviously_empty b
  | Diff (a, _) -> obviously_empty a
  | Fix (_, body) ->
    (* a fixpoint is empty when every arm is empty (treating the recursion
       variable itself as empty is sound for monotone bodies) *)
    (match body with Union arms -> List.for_all obviously_empty arms | arm -> obviously_empty arm)

let map_scalars f = function
  | Filter (a, q) -> Filter (a, f q)
  | Project (a, ps) -> Project (a, List.map f ps)
  | Join (a, b, q) -> Join (a, b, f q)
  | Search (rs, q, ps) -> Search (rs, f q, List.map f ps)
  | (Base _ | Rvar _ | Union _ | Diff _ | Inter _ | Fix _ | Nest _ | Unnest _) as r -> r

(* -- template parameters ----------------------------------------------- *)

let rec map_rel_scalars f r =
  let r = map_scalars f r in
  match r with
  | Base _ | Rvar _ -> r
  | Filter (a, q) -> Filter (map_rel_scalars f a, q)
  | Project (a, ps) -> Project (map_rel_scalars f a, ps)
  | Join (a, b, q) -> Join (map_rel_scalars f a, map_rel_scalars f b, q)
  | Union rs -> Union (List.map (map_rel_scalars f) rs)
  | Diff (a, b) -> Diff (map_rel_scalars f a, map_rel_scalars f b)
  | Inter (a, b) -> Inter (map_rel_scalars f a, map_rel_scalars f b)
  | Search (rs, q, ps) -> Search (List.map (map_rel_scalars f) rs, q, ps)
  | Fix (n, e) -> Fix (n, map_rel_scalars f e)
  | Nest (a, g, c) -> Nest (map_rel_scalars f a, g, c)
  | Unnest (a, i) -> Unnest (map_rel_scalars f a, i)

let rec bind_scalar values s =
  match s with
  | Param (i, _) -> Cst values.(i - 1)
  | Call (f, args) -> Call (f, List.map (bind_scalar values) args)
  | Cst _ | Col _ -> s

let bind values r = map_rel_scalars (bind_scalar values) r

(* -- guards ------------------------------------------------------------ *)

type guard = { op : string; args : scalar * scalar; outcome : bool }

let compare_values adts op a b =
  match Eds_value.Adt.apply adts op [ a; b ] with
  | Value.Bool r -> r
  | _ -> false
  | exception _ -> false

let guard_holds adts values g =
  let value = function
    | Cst v -> Some v
    | Param (i, _) when i >= 1 && i <= Array.length values -> Some values.(i - 1)
    | Param _ | Col _ | Call _ -> None
  in
  let a, b = g.args in
  match value a, value b with
  | Some a, Some b -> compare_values adts g.op a b = g.outcome
  | _ -> false

let equal_guard g g' =
  String.equal g.op g'.op
  && equal_scalar (fst g.args) (fst g'.args)
  && equal_scalar (snd g.args) (snd g'.args)
  && g.outcome = g'.outcome

let params r =
  let rec scalar acc = function
    | Param (i, _) -> i :: acc
    | Call (_, args) -> List.fold_left scalar acc args
    | Cst _ | Col _ -> acc
  in
  let rec go acc r =
    let own =
      match r with
      | Filter (_, q) | Join (_, _, q) -> [ q ]
      | Project (_, ps) -> ps
      | Search (_, q, ps) -> q :: ps
      | Base _ | Rvar _ | Union _ | Diff _ | Inter _ | Fix _ | Nest _ | Unnest _ -> []
    in
    List.fold_left go (List.fold_left scalar acc own) (inputs r)
  in
  List.sort_uniq Int.compare (go [] r)

(* -- pretty printing --------------------------------------------------- *)

let infix = [ "="; "<>"; "<"; "<="; ">"; ">="; "+"; "-"; "*"; "/" ]

let rec pp_scalar ppf = function
  | Cst v -> Value.pp ppf v
  | Param (i, ty) -> Fmt.pf ppf "$%d:%a" i Vtype.pp ty
  | Col (i, j) -> Fmt.pf ppf "%d.%d" i j
  | Call ("and", args) ->
    Fmt.pf ppf "%a" (Fmt.list ~sep:(Fmt.any " \xE2\x88\xA7 ") pp_atom) args
  | Call ("or", args) ->
    Fmt.pf ppf "%a" (Fmt.list ~sep:(Fmt.any " \xE2\x88\xA8 ") pp_atom) args
  | Call (op, [ a; b ]) when List.mem op infix ->
    Fmt.pf ppf "%a %s %a" pp_atom a op pp_atom b
  | Call (f, args) ->
    Fmt.pf ppf "%s(%a)" f (Fmt.list ~sep:(Fmt.any ", ") pp_scalar) args

and pp_atom ppf s =
  match s with
  | Call (("and" | "or"), _) -> Fmt.pf ppf "(%a)" pp_scalar s
  | Cst _ | Col _ | Call _ | Param _ -> pp_scalar ppf s

let pp_cols ppf cols = Fmt.list ~sep:(Fmt.any ", ") Fmt.int ppf cols

let rec pp ppf = function
  | Base n -> Fmt.string ppf n
  | Rvar n -> Fmt.pf ppf "$%s" n
  | Filter (a, q) -> Fmt.pf ppf "filter(%a, [%a])" pp a pp_scalar q
  | Project (a, ps) -> Fmt.pf ppf "project(%a, (%a))" pp a pp_scalars ps
  | Join (a, b, q) -> Fmt.pf ppf "join(%a, %a, [%a])" pp a pp b pp_scalar q
  | Union rs -> Fmt.pf ppf "union({%a})" (Fmt.list ~sep:(Fmt.any ", ") pp) rs
  | Diff (a, b) -> Fmt.pf ppf "difference(%a, %a)" pp a pp b
  | Inter (a, b) -> Fmt.pf ppf "intersection(%a, %a)" pp a pp b
  | Search (rs, q, ps) ->
    Fmt.pf ppf "search((%a), [%a], (%a))"
      (Fmt.list ~sep:(Fmt.any ", ") pp)
      rs pp_scalar q pp_scalars ps
  | Fix (n, e) -> Fmt.pf ppf "fix(%s, %a)" n pp e
  | Nest (a, g, c) -> Fmt.pf ppf "nest(%a, (%a), (%a))" pp a pp_cols g pp_cols c
  | Unnest (a, i) -> Fmt.pf ppf "unnest(%a, %d)" pp a i

and pp_scalars ppf ps = Fmt.list ~sep:(Fmt.any ", ") pp_scalar ppf ps

let pp_tree ppf root =
  let rec go indent r =
    let pad = String.make (2 * indent) ' ' in
    let line fmt = Fmt.pf ppf ("%s" ^^ fmt ^^ "@.") pad in
    match r with
    | Base n -> line "%s" n
    | Rvar n -> line "$%s" n
    | Filter (a, q) ->
      line "filter [%a]" pp_scalar q;
      go (indent + 1) a
    | Project (a, ps) ->
      line "project (%a)" pp_scalars ps;
      go (indent + 1) a
    | Join (a, b, q) ->
      line "join [%a]" pp_scalar q;
      go (indent + 1) a;
      go (indent + 1) b
    | Union rs ->
      line "union";
      List.iter (go (indent + 1)) rs
    | Diff (a, b) ->
      line "difference";
      go (indent + 1) a;
      go (indent + 1) b
    | Inter (a, b) ->
      line "intersection";
      go (indent + 1) a;
      go (indent + 1) b
    | Search (rs, q, ps) ->
      line "search [%a] -> (%a)" pp_scalar q pp_scalars ps;
      List.iter (go (indent + 1)) rs
    | Fix (n, e) ->
      line "fix %s" n;
      go (indent + 1) e
    | Nest (a, g, c) ->
      line "nest group=(%a) collect=(%a)" pp_cols g pp_cols c;
      go (indent + 1) a
    | Unnest (a, i) ->
      line "unnest %d" i;
      go (indent + 1) a
  in
  go 0 root

let to_string r = Fmt.str "%a" pp r
