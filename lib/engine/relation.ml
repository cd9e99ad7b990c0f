module Value = Eds_value.Value
module Schema = Eds_lera.Schema

type tuple = Value.t list

let compare_tuples a b =
  let rec go xs ys =
    match xs, ys with
    | [], [] -> 0
    | [], _ :: _ -> -1
    | _ :: _, [] -> 1
    | x :: xs', y :: ys' ->
      let c = Value.compare x y in
      if c <> 0 then c else go xs' ys'
  in
  go a b

(* Tuple hash compatible with [compare_tuples]: Value.hash already hashes
   Int through float and Enum through its label, the two cross-constructor
   equalities of Value.compare. *)
let hash_tuple tup =
  List.fold_left (fun acc v -> (acc * 31) + Value.hash v) 23 tup

module Tuple_key = struct
  type t = tuple

  let equal a b = compare_tuples a b = 0
  let hash = hash_tuple
end

module Tuple_tbl = Hashtbl.Make (Tuple_key)

type index = unit Tuple_tbl.t

(* A memo cell that any number of threads and domains may read at once:
   the first readers each build the value, and the first to finish
   publishes it with a compare-and-set; later readers get the published
   value.  The builds are pure, so losing the race only wastes one
   build.  ([Lazy.t] is not safe here: a thread forcing a suspension
   that another thread is still forcing raises [Lazy.Undefined].) *)
type 'a memo = 'a option Atomic.t

let rec memo_get (cell : 'a memo) build =
  match Atomic.get cell with
  | Some v -> v
  | None ->
    let v = build () in
    if Atomic.compare_and_set cell None (Some v) then v else memo_get cell build

type t = {
  schema : Schema.t;
  tuples : tuple list;
  card : int;
  index : index memo;
  cols : Column.table memo;
}

(* sorted, duplicate-free input.  Both caches are derived from the
   canonical tuple list at every construction (never carried over from
   an operand), so set operations can take any representation shortcut
   without the views drifting apart. *)
let of_sorted schema tuples =
  {
    schema;
    tuples;
    card = List.length tuples;
    index = Atomic.make None;
    cols = Atomic.make None;
  }

let make schema tuples =
  let width = Schema.arity schema in
  List.iter
    (fun tup ->
      if List.length tup <> width then
        invalid_arg
          (Fmt.str "Relation.make: tuple width %d differs from arity %d"
             (List.length tup) width))
    tuples;
  of_sorted schema (List.sort_uniq compare_tuples tuples)

let empty schema = of_sorted schema []

(* retag under a same-arity schema: tuples, membership index and the
   columnar shadow are all schema-name-independent, so they are shared *)
let with_schema schema r =
  if Schema.arity schema <> Schema.arity r.schema then
    invalid_arg
      (Fmt.str "Relation.with_schema: arity %d differs from %d"
         (Schema.arity schema) (Schema.arity r.schema))
  else { r with schema }

let cardinality r = r.card
let is_empty r = r.card = 0

let index r =
  memo_get r.index (fun () ->
      let tbl = Tuple_tbl.create (max 16 r.card) in
      List.iter (fun tup -> Tuple_tbl.replace tbl tup ()) r.tuples;
      tbl)

let mem tup r = r.card > 0 && Tuple_tbl.mem (index r) tup

let columns r =
  memo_get r.cols (fun () ->
      Column.of_tuples ~arity:(Schema.arity r.schema) r.card r.tuples)

(* Subset keeping the canonical order: a filtered sorted duplicate-free
   list is still sorted and duplicate-free, so no re-sort. *)
let filteri keep r =
  let i = ref (-1) in
  of_sorted r.schema
    (List.filter
       (fun tup ->
         incr i;
         keep !i tup)
       r.tuples)

let equal a b =
  a.card = b.card && List.for_all2 (fun x y -> compare_tuples x y = 0) a.tuples b.tuples

let check_arity op a b =
  let wa = Schema.arity a.schema and wb = Schema.arity b.schema in
  if wa <> wb then
    invalid_arg
      (Fmt.str "Relation.%s: operand arities differ (%d vs %d)" op wa wb)

(* linear merge of the two sorted duplicate-free sides; no re-sort *)
let union a b =
  check_arity "union" a b;
  if a.card = 0 then { b with schema = a.schema }
  else if b.card = 0 then a
  else begin
    let rec merge acc xs ys =
      match xs, ys with
      | [], rest | rest, [] -> List.rev_append acc rest
      | x :: xs', y :: ys' ->
        let c = compare_tuples x y in
        if c < 0 then merge (x :: acc) xs' ys
        else if c > 0 then merge (y :: acc) xs ys'
        else merge (x :: acc) xs' ys'
    in
    of_sorted a.schema (merge [] a.tuples b.tuples)
  end

let diff a b =
  check_arity "diff" a b;
  if a.card = 0 || b.card = 0 then a
  else of_sorted a.schema (List.filter (fun t -> not (mem t b)) a.tuples)

let inter a b =
  check_arity "inter" a b;
  if a.card = 0 then a
  else if b.card = 0 then empty a.schema
  else of_sorted a.schema (List.filter (fun t -> mem t b) a.tuples)

let pp ppf r =
  let names = List.map fst r.schema in
  Fmt.pf ppf "%a@." (Fmt.list ~sep:(Fmt.any " | ") Fmt.string) names;
  List.iter
    (fun tup ->
      Fmt.pf ppf "%a@." (Fmt.list ~sep:(Fmt.any " | ") Value.pp) tup)
    r.tuples
