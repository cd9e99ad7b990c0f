(* Typed columnar shadow of a relation plus the two engines that run
   over it: a flat chained hash index (join build/probe, whole-row
   membership), cached on the table per key-column list, and a compiler
   from LERA scalar predicates to allocation-free row predicates.  See
   column.mli for the contract; the invariant that matters throughout
   is *flavor purity*: a typed column holds exactly one Value
   constructor, so cell comparisons reduce to Int.compare /
   Float.compare / String.compare — the same result Value.compare gives
   on those constructor pairs.  Every other column is a [Values]
   column, compared by Value.compare itself. *)

module Value = Eds_value.Value
module Intern = Eds_value.Intern
module Adt = Eds_value.Adt
module Lera = Eds_lera.Lera

type col =
  | Ints of int array
  | Oids of int array
  | Ids of int array
  | Enums of string * int array
      (* enum type name + interned label ids; Value.compare makes
         Enum (_, l) cross-equal to Str l (both rank 3, compared by
         label), so an Enums column compares/hashes against an Ids
         column by id exactly like Ids vs Ids *)
  | Floats of float array
  | Values of Value.t array

type flavor = F_int | F_oid | F_id | F_float | F_values

let flavor = function
  | Ints _ -> F_int
  | Oids _ -> F_oid
  | Ids _ | Enums _ -> F_id
  | Floats _ -> F_float
  | Values _ -> F_values

(* -- cell comparison ------------------------------------------------------- *)

let cell_equal ca i cb j =
  match ca, cb with
  | Ints a, Ints b | Oids a, Oids b -> a.(i) = b.(j)
  (* enum labels and strings are cross-equal by label (Value.compare),
     and both carry interned label ids *)
  | (Ids a | Enums (_, a)), (Ids b | Enums (_, b)) -> a.(i) = b.(j)
  | Floats a, Floats b -> Float.compare a.(i) b.(j) = 0
  | Values a, Values b -> Value.compare a.(i) b.(j) = 0
  | (Ints _ | Oids _ | Ids _ | Enums _ | Floats _ | Values _), _ -> false

(* Packed int for hashing only (equality always goes through
   [cell_equal]): equal cells must pack equally, so -0. is normalized
   to +0. and every NaN to one canonical pattern; the 64->63 bit
   truncation can only cause extra hash collisions, never missed
   matches. *)
let float_key x =
  if Float.is_nan x then 0x7FF8_0000_0000_0001
  else Int64.to_int (Int64.bits_of_float (x +. 0.))

let cell_key c i =
  match c with
  | Ints a | Oids a | Ids a | Enums (_, a) -> a.(i)
  | Floats a -> float_key a.(i)
  | Values a -> Value.hash a.(i)

(* -- flat chained hash index ----------------------------------------------- *)

module Index = struct
  type t = {
    key : col array;  (** resolved build-side key columns *)
    mask : int;
    heads : int array;
    next : int array;
    distinct : int;  (** distinct build keys *)
  }

  let mix h =
    let h = h * 0x9E3779B1 in
    (h lxor (h lsr 16)) land max_int

  (* hash of the build key at row [r]: every key cell is read at [r] *)
  let hash_build key r =
    let h = ref 23 in
    Array.iter (fun c -> h := (!h * 31) + cell_key c r) key;
    mix !h

  (* hash of a probe key given per-cell rows; folds [cell_key] exactly
     like [hash_build], so equal cells hash equally across the two *)
  let hash_probe key rows =
    let h = ref 23 in
    for e = 0 to Array.length key - 1 do
      h := (!h * 31) + cell_key key.(e) rows.(e)
    done;
    mix !h

  let bucket_count n =
    let want = max 16 (2 * n) in
    let b = ref 16 in
    while !b < want do
      b := !b * 2
    done;
    !b

  (* build-key equality of rows [r] and [r'] *)
  let rows_equal key r r' =
    let nk = Array.length key in
    let ok = ref true in
    let e = ref 0 in
    while !ok && !e < nk do
      if not (cell_equal key.(!e) r key.(!e) r') then ok := false;
      incr e
    done;
    !ok

  let rec chain_has key next r c =
    c >= 0 && (rows_equal key r c || chain_has key next r next.(c))

  (* Every row is pushed on its bucket's chain; a row whose key already
     sits in that chain adds no distinct key.  Equal keys share a
     bucket and the latest one heads the chain, so the scan usually
     stops at once. *)
  let build ?on_build ~nrows:n key =
    let mask = bucket_count n - 1 in
    let heads = Array.make (mask + 1) (-1) in
    let next = Array.make (max 1 n) (-1) in
    let distinct = ref 0 in
    for r = 0 to n - 1 do
      let b = hash_build key r land mask in
      if not (chain_has key next r heads.(b)) then incr distinct;
      next.(r) <- heads.(b);
      heads.(b) <- r;
      match on_build with Some f -> f () | None -> ()
    done;
    { key; mask; heads; next; distinct = !distinct }

  let distinct t = t.distinct

  let matches t key rows r =
    let nk = Array.length t.key in
    let ok = ref true in
    let e = ref 0 in
    while !ok && !e < nk do
      if not (cell_equal t.key.(!e) r key.(!e) rows.(!e)) then ok := false;
      incr e
    done;
    !ok

  let rec scan t key rows r =
    if r < 0 then -1
    else if matches t key rows r then r
    else scan t key rows t.next.(r)

  let first t ~key ~rows = scan t key rows t.heads.(hash_probe key rows land t.mask)
  let next t ~key ~rows r = scan t key rows t.next.(r)
end

(* -- tables and their index caches ----------------------------------------- *)

(* The indexes built on a table, keyed by their 0-based key-column
   lists.  The list only grows, and each growth is published with a
   compare-and-set, so readers on any domain see a consistent list. *)
type index_cache = (int list * Index.t) list Atomic.t

type table = {
  nrows : int;
  cols : col array;
  indexes : index_cache;
}

let make nrows cols = { nrows; cols; indexes = Atomic.make [] }

let flavors_equal a b =
  Array.length a.cols = Array.length b.cols
  && Array.for_all2 (fun ca cb -> flavor ca = flavor cb) a.cols b.cols

let rec same_keys a b =
  match a, b with
  | [], [] -> true
  | x :: a, y :: b -> x = y && same_keys a b
  | [], _ :: _ | _ :: _, [] -> false

let rec find keys = function
  | [] -> None
  | (k, idx) :: rest -> if same_keys k keys then Some idx else find keys rest

let cached t keys = find keys (Atomic.get t.indexes)
let cached_keys t = List.map fst (Atomic.get t.indexes)

(* Concurrent first users may each build; the first to publish wins,
   and the others take its index (the builds are pure and equal). *)
let index ?on_build t keys =
  match cached t keys with
  | Some idx -> (idx, true)
  | None ->
    let idx =
      Index.build ?on_build ~nrows:t.nrows
        (Array.of_list (List.map (fun c -> t.cols.(c)) keys))
    in
    let rec publish () =
      let seen = Atomic.get t.indexes in
      match find keys seen with
      | Some winner -> winner
      | None ->
        if Atomic.compare_and_set t.indexes seen ((keys, idx) :: seen) then idx
        else publish ()
    in
    (publish (), false)

(* -- materializing back to boxed values ------------------------------------ *)

let cell c row =
  match c with
  | Ints a -> Value.Int a.(row)
  | Oids a -> Value.Oid a.(row)
  | Ids a -> Value.Str (Intern.string_of_id a.(row))
  | Enums (ty, a) -> Value.Enum (ty, Intern.string_of_id a.(row))
  | Floats a -> Value.Real a.(row)
  | Values a -> a.(row)

let value_at t ~row ~col = cell t.cols.(col) row

let tuple_at t row =
  List.init (Array.length t.cols) (fun col -> value_at t ~row ~col)

let values ~nrows = function
  | Values _ as c -> c
  | c -> Values (Array.init nrows (cell c))

(* a fresh table, so its cache holds no index built on the typed cells *)
let values_view t = make t.nrows (Array.map (values ~nrows:t.nrows) t.cols)

(* -- building from boxed tuples ------------------------------------------- *)

(* the column a first cell opens: typed for the five scalar
   constructors, [Values] for everything else *)
let column_for nrows = function
  | Value.Int _ -> Ints (Array.make nrows 0)
  | Value.Oid _ -> Oids (Array.make nrows 0)
  | Value.Str _ -> Ids (Array.make nrows 0)
  | Value.Enum (ty, _) -> Enums (ty, Array.make nrows 0)
  | Value.Real _ -> Floats (Array.make nrows 0.)
  | Value.Null | Value.Bool _ | Value.Tuple _ | Value.Set _ | Value.Bag _
  | Value.List _ | Value.Array _ ->
    Values (Array.make nrows Value.Null)

let of_tuples ~arity nrows tuples =
  let cols =
    match tuples with
    | [] -> Array.make arity (Values [||])
    | first :: _ -> Array.of_list (List.map (column_for nrows) first)
  in
  List.iteri
    (fun i tup ->
      List.iteri
        (fun j v ->
          match cols.(j), v with
          | Ints a, Value.Int x -> a.(i) <- x
          | Oids a, Value.Oid x -> a.(i) <- x
          | Ids a, Value.Str s -> a.(i) <- Intern.id_of_string s
          | Enums (ty, a), Value.Enum (ty', l) when ty' = ty ->
            a.(i) <- Intern.id_of_string l
          | Floats a, Value.Real x -> a.(i) <- x
          | Values a, v -> a.(i) <- v
          | (Ints _ | Oids _ | Ids _ | Enums _ | Floats _), v ->
            (* a second constructor in a typed column: the column
               becomes [Values], keeping the rows already read *)
            let a = Array.make nrows Value.Null in
            for r = 0 to i - 1 do
              a.(r) <- cell cols.(j) r
            done;
            a.(i) <- v;
            cols.(j) <- Values a)
        tup)
    tuples;
  make nrows cols

(* -- predicate compiler ---------------------------------------------------- *)

module Pred = struct
  type t =
    | Always
    | Rows of (int array -> bool)
    | Opaque

  (* The six comparison operators live in the ADT registry and can be
     shadowed by a user-registered function of the same name; compiled
     code must only stand in for the *builtin* entries.  Adt.builtins
     re-registers the same physically-shared entry records on every
     call, so physical equality against a reference registry detects
     shadowing exactly. *)
  let reference = lazy (Adt.builtins ())

  let is_builtin adts op =
    match Adt.find adts op, Adt.find (Lazy.force reference) op with
    | Some a, Some b -> a == b
    | (Some _ | None), _ -> false

  let tests =
    [
      ("=", fun c -> c = 0);
      ("<>", fun c -> c <> 0);
      ("<", fun c -> c < 0);
      ("<=", fun c -> c <= 0);
      (">", fun c -> c > 0);
      (">=", fun c -> c >= 0);
    ]

  type getter =
    | G_int of (int array -> int)
    | G_oid of (int array -> int)
    | G_str of (int array -> string)
    | G_float of (int array -> float)

  let rank_g = function
    | G_int _ | G_float _ -> 2
    | G_str _ -> 3
    | G_oid _ -> 5

  (* comparator matching Value.compare on the covered constructor
     pairs; None when the ranks differ (constant outcome) *)
  let cmp_of ga gb =
    match ga, gb with
    | G_int f, G_int g -> Some (fun rows -> Int.compare (f rows) (g rows))
    | G_int f, G_float g ->
      Some (fun rows -> Float.compare (float_of_int (f rows)) (g rows))
    | G_float f, G_int g ->
      Some (fun rows -> Float.compare (f rows) (float_of_int (g rows)))
    | G_float f, G_float g -> Some (fun rows -> Float.compare (f rows) (g rows))
    | G_str f, G_str g -> Some (fun rows -> String.compare (f rows) (g rows))
    | G_oid f, G_oid g -> Some (fun rows -> Int.compare (f rows) (g rows))
    | (G_int _ | G_oid _ | G_str _ | G_float _), _ -> None

  (* a side of a comparison: a typed accessor, a constant whose rank
     settles the outcome against any column, or not compilable *)
  let side tables s =
    match s with
    | Lera.Col (i, j) -> (
      let k = i - 1 and c = j - 1 in
      if k < 0 || k >= Array.length tables then `Bad
      else
        let t = tables.(k) in
        if c < 0 || c >= Array.length t.cols then `Bad
        else
          match t.cols.(c) with
          | Ints a -> `G (G_int (fun rows -> a.(rows.(k))))
          | Oids a -> `G (G_oid (fun rows -> a.(rows.(k))))
          | Ids a | Enums (_, a) ->
            `G (G_str (fun rows -> Intern.string_of_id a.(rows.(k))))
          | Floats a -> `G (G_float (fun rows -> a.(rows.(k))))
          (* any constructor, so any outcome (and any error) of the
             boxed comparison: left to the boxed evaluator *)
          | Values _ -> `Bad)
    | Lera.Cst v when Value.is_collection v -> `Bad
    | Lera.Cst v -> (
      match v with
      | Value.Int x -> `G (G_int (fun _ -> x))
      | Value.Real x -> `G (G_float (fun _ -> x))
      | Value.Str s -> `G (G_str (fun _ -> s))
      | Value.Enum (_, l) -> `G (G_str (fun _ -> l))
      | Value.Oid x -> `G (G_oid (fun _ -> x))
      | Value.Null | Value.Bool _ | Value.Tuple _ -> `Rank (Value.rank v)
      | Value.Set _ | Value.Bag _ | Value.List _ | Value.Array _ -> `Bad)
    | Lera.Call _ | Lera.Param _ -> `Bad

  let atom tables a b =
    match a, b with
    | Lera.Cst u, Lera.Cst v ->
      if Value.is_collection u || Value.is_collection v then `Bad
      else `Const (Value.compare u v)
    | _ -> (
      match side tables a, side tables b with
      | `G ga, `G gb -> (
        match cmp_of ga gb with
        | Some f -> `Cmp f
        | None -> `Const (Int.compare (rank_g ga) (rank_g gb)))
      | `Rank ra, `G gb -> `Const (Int.compare ra (rank_g gb))
      | `G ga, `Rank rb -> `Const (Int.compare (rank_g ga) rb)
      | `Rank ra, `Rank rb -> `Const (Int.compare ra rb)
      | `Bad, _ | _, `Bad -> `Bad)

  let is_opaque = function `O -> true | `T | `F | `P _ -> false
  let is_false = function `F -> true | `T | `O | `P _ -> false
  let is_true = function `T -> true | `F | `O | `P _ -> false
  let pred_of = function `P f -> Some f | `T | `F | `O -> None

  let compile ~adts tables q =
    let rec comp q =
      match q with
      | Lera.Cst (Value.Bool true) -> `T
      | Lera.Cst (Value.Bool false) -> `F
      (* eval_bool maps Null to false without erroring *)
      | Lera.Cst Value.Null -> `F
      | Lera.Cst _ -> `O
      | Lera.Call ("and", args) -> (
        (* matches the evaluator's special form exactly (literal,
           case-sensitive "and"); all compiled conjuncts are pure and
           total, so dropping short-circuit order is unobservable *)
        let cs = List.map comp args in
        if List.exists is_opaque cs then `O
        else if List.exists is_false cs then `F
        else
          match List.filter_map pred_of cs with
          | [] -> `T
          | [ f ] -> `P f
          | fs -> `P (fun rows -> List.for_all (fun f -> f rows) fs))
      | Lera.Call ("or", args) -> (
        let cs = List.map comp args in
        if List.exists is_opaque cs then `O
        else if List.exists is_true cs then `T
        else
          match List.filter_map pred_of cs with
          | [] -> `F
          | [ f ] -> `P f
          | fs -> `P (fun rows -> List.exists (fun f -> f rows) fs))
      | Lera.Call ("not", [ a ]) -> (
        match comp a with
        | `T -> `F
        | `F -> `T
        | `P f -> `P (fun rows -> not (f rows))
        | `O -> `O)
      | Lera.Call (op, [ a; b ]) -> (
        match List.assoc_opt op tests with
        | Some test when is_builtin adts op -> (
          match atom tables a b with
          | `Const c -> if test c then `T else `F
          | `Cmp f -> `P (fun rows -> test (f rows))
          | `Bad -> `O)
        | Some _ | None -> `O)
      | Lera.Call _ | Lera.Col _ | Lera.Param _ -> `O
    in
    match comp q with
    | `T -> Always
    | `F -> Rows (fun _ -> false)
    | `P f -> Rows f
    | `O -> Opaque
end
