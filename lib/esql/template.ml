module Value = Eds_value.Value

let map_select (f : Ast.expr -> Ast.expr) (s : Ast.select) : Ast.select =
  let rec map e =
    match e with
    | Ast.Lit _ | Ast.Param _ -> f e
    | Ast.Ident _ | Ast.Dot _ -> e
    | Ast.Call (g, args) -> Ast.Call (g, List.map map args)
    | Ast.Binop (op, a, b) ->
      let a = map a in
      Ast.Binop (op, a, map b)
    | Ast.Not a -> Ast.Not (map a)
    | Ast.Quant (q, a) -> Ast.Quant (q, map a)
    (* collection literals are whole constants: never erased *)
    | Ast.Set_lit _ | Ast.List_lit _ -> e
    | Ast.In (a, b) ->
      let a = map a in
      Ast.In (a, map b)
  in
  (* explicit sequencing: slot numbers follow this traversal order *)
  let rec go (s : Ast.select) =
    let proj = List.map (fun (e, alias) -> (map e, alias)) s.Ast.proj in
    let where = Option.map map s.Ast.where in
    let group_by = List.map map s.Ast.group_by in
    let having = Option.map map s.Ast.having in
    let union = Option.map go s.Ast.union in
    { s with Ast.proj; where; group_by; having; union }
  in
  go s

let erasable = function Value.Int _ | Value.Real _ | Value.Str _ -> true | _ -> false

let erase s =
  let values = ref [] and next = ref 0 in
  let slot e =
    match e with
    | Ast.Lit v when erasable v ->
      incr next;
      values := v :: !values;
      Ast.Param (!next, v)
    | _ -> e
  in
  let template = map_select slot s in
  (template, Array.of_list (List.rev !values))

let values s =
  let slots = ref [] in
  ignore
    (map_select
       (function
         | Ast.Param (i, v) as e ->
           slots := (i, v) :: !slots;
           e
         | e -> e)
       s);
  let values = Array.make (List.fold_left (fun n (i, _) -> max n i) 0 !slots) Value.Null in
  List.iter (fun (i, v) -> values.(i - 1) <- v) !slots;
  values

let pin slots s =
  map_select
    (function Ast.Param (i, v) when List.mem i slots -> Ast.Lit v | e -> e)
    s

(* the value of a slot is replaced by a fixed representative of its
   type before serializing; Marshal without sharing is a faithful,
   deterministic encoding (floats bit-exact, unlike the ESQL printer) *)
let type_only = function
  | Value.Int _ -> Value.Int 0
  | Value.Real _ -> Value.Real 0.
  | Value.Str _ -> Value.Str ""
  | v -> v

let key s =
  let stripped =
    map_select (function Ast.Param (i, v) -> Ast.Param (i, type_only v) | e -> e) s
  in
  Marshal.to_string stripped [ Marshal.No_sharing ]
