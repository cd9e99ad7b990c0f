module Value = Eds_value.Value
module Vtype = Eds_value.Vtype
module Adt = Eds_value.Adt
module Lera = Eds_lera.Lera
module Schema = Eds_lera.Schema

exception Type_error of string

let error fmt = Fmt.kstr (fun s -> raise (Type_error s)) fmt

let lc = String.lowercase_ascii
let same_name a b = lc a = lc b

type input = {
  rname : string;  (** resolution name: alias or relation name *)
  schema : Schema.t;
}

type ctx = {
  catalog : Catalog.t;
  inputs : input list;  (** FROM operands, in order *)
  self : (string * Schema.t) option;  (** enclosing recursive view *)
  stack : string list;  (** views being expanded, for cycle detection *)
}

(* -- type utilities ---------------------------------------------------- *)

let expand ctx ty = Vtype.expand (Catalog.types ctx.catalog) ty

let enum_of ctx ty =
  match expand ctx ty with
  | Vtype.Enum (n, labels) -> Some (n, labels)
  | _ -> None

let element_type ctx ty = Vtype.element_type (Catalog.types ctx.catalog) ty

(* Coerce a string literal to an enumeration constant when the other side
   of a comparison (or the element type of a membership test) is an
   enumeration — the "necessary conversion functions" of §3.3.  The
   outcome depends on the literal's value, so a template slot [e] holding
   a string is pinned here: it translates to its literal, never to a
   parameter. *)
let coerce_scalar ctx expected (e : Ast.expr) (s, ty) =
  match s, e, enum_of ctx expected with
  | Lera.Cst (Value.Str lit), _, Some (n, labels)
  | Lera.Param _, Ast.Param (_, Value.Str lit), Some (n, labels) ->
    if List.mem lit labels then (Lera.Cst (Value.Enum (n, lit)), expected)
    else (Lera.Cst (Value.Str lit), ty)
  | _ -> (s, ty)

let is_collection_type ctx ty =
  match expand ctx ty with
  | Vtype.Set _ | Vtype.Bag _ | Vtype.List _ | Vtype.Array _ | Vtype.Collection _ ->
    true
  | _ -> false

let wrap_like ctx ty inner =
  match expand ctx ty with
  | Vtype.Set _ -> Vtype.Set inner
  | Vtype.Bag _ -> Vtype.Bag inner
  | Vtype.List _ -> Vtype.List inner
  | Vtype.Array _ -> Vtype.Array inner
  | _ -> inner

(* -- name resolution --------------------------------------------------- *)

let find_column ctx name =
  let hits =
    List.concat
      (List.mapi
         (fun i input ->
           List.concat
             (List.mapi
                (fun j (attr, ty) ->
                  if same_name attr name then [ (i + 1, j + 1, ty) ] else [])
                input.schema))
         ctx.inputs)
  in
  match hits with
  | [ (i, j, ty) ] -> (Lera.Col (i, j), ty)
  | [] -> error "unknown column %s" name
  | _ :: _ :: _ -> error "ambiguous column %s" name

let find_qualified ctx rel_name attr =
  let rec go i = function
    | [] -> error "unknown relation %s in column reference" rel_name
    | input :: rest ->
      if same_name input.rname rel_name then begin
        match
          List.find_index (fun (n, _) -> same_name n attr) input.schema
        with
        | Some j -> (Lera.Col (i, j + 1), snd (List.nth input.schema j))
        | None -> error "relation %s has no column %s" rel_name attr
      end
      else go (i + 1) rest
  in
  go 1 ctx.inputs

(* -- expression translation -------------------------------------------- *)

let comparison_ops = [ "="; "<>"; "<"; "<="; ">"; ">=" ]

let rec tr_expr ctx (e : Ast.expr) : Lera.scalar * Vtype.t =
  match e with
  | Ast.Lit v -> (Lera.Cst v, Vtype.type_of_value (Catalog.types ctx.catalog) v)
  | Ast.Param (i, v) ->
    let ty = Vtype.type_of_value (Catalog.types ctx.catalog) v in
    (Lera.Param (i, ty), ty)
  | Ast.Ident n -> find_column ctx n
  | Ast.Dot (r, a) -> find_qualified ctx r a
  | Ast.Not e1 ->
    let s, _ = tr_expr ctx e1 in
    (Lera.Call ("not", [ s ]), Vtype.Bool)
  | Ast.Binop ("and", a, b) ->
    let sa, _ = tr_expr ctx a and sb, _ = tr_expr ctx b in
    (Lera.conj [ sa; sb ], Vtype.Bool)
  | Ast.Binop ("or", a, b) ->
    let sa, _ = tr_expr ctx a and sb, _ = tr_expr ctx b in
    (Lera.disj [ sa; sb ], Vtype.Bool)
  | Ast.Binop (op, a, b) when List.mem op comparison_ops ->
    let (sa, ta) = tr_expr ctx a and (sb, tb) = tr_expr ctx b in
    let sa, ta = coerce_scalar ctx tb a (sa, ta) in
    let sb, tb = coerce_scalar ctx ta b (sb, tb) in
    let result_ty =
      if is_collection_type ctx ta then wrap_like ctx ta Vtype.Bool
      else if is_collection_type ctx tb then wrap_like ctx tb Vtype.Bool
      else Vtype.Bool
    in
    (Lera.Call (op, [ sa; sb ]), result_ty)
  | Ast.Binop (op, a, b) ->
    let (sa, ta) = tr_expr ctx a and (sb, tb) = tr_expr ctx b in
    let ty =
      match expand ctx ta, expand ctx tb with
      | Vtype.Int, Vtype.Int -> Vtype.Int
      | _ -> Vtype.Real
    in
    (Lera.Call (op, [ sa; sb ]), ty)
  | Ast.Quant (q, e1) ->
    let s, ty = tr_expr ctx e1 in
    if not (is_collection_type ctx ty) then
      error "quantifier applied to a non-collection (%a)" Vtype.pp ty;
    let f = match q with Ast.All -> "all" | Ast.Exist -> "exist" in
    (Lera.Call (f, [ s ]), Vtype.Bool)
  | Ast.In (e1, coll) ->
    let sc, tc = tr_expr ctx coll in
    let se, te = tr_expr ctx e1 in
    let se, _ =
      match element_type ctx tc with
      | Some ety -> coerce_scalar ctx ety e1 (se, te)
      | None -> (se, te)
    in
    (Lera.Call ("member", [ se; sc ]), Vtype.Bool)
  | Ast.Set_lit items ->
    let v = Value.set (List.map (const_value ctx) items) in
    (Lera.Cst v, Vtype.type_of_value (Catalog.types ctx.catalog) v)
  | Ast.List_lit items ->
    let v = Value.list (List.map (const_value ctx) items) in
    (Lera.Cst v, Vtype.type_of_value (Catalog.types ctx.catalog) v)
  | Ast.Call (f, args) -> tr_call ctx f args

and tr_call ctx f args =
  let targs = List.map (tr_expr ctx) args in
  let scalars = List.map fst targs in
  match Adt.find (Catalog.adts ctx.catalog) f with
  | Some entry -> (
    (* member('Adventure', Categories): coerce the element against the
       collection's element type *)
    match lc entry.Adt.name, targs, args with
    | "member", [ (se, te); (sc, tc) ], [ e1; _ ] ->
      let se, _ =
        match element_type ctx tc with
        | Some ety -> coerce_scalar ctx ety e1 (se, te)
        | None -> (se, te)
      in
      (Lera.Call ("member", [ se; sc ]), Vtype.Bool)
    | _ -> (Lera.Call (lc f, scalars), entry.Adt.result_type))
  | None -> (
    (* attribute-name-as-function sugar (paper §2.1 / §3.3) *)
    match targs with
    | [ (s, ty) ] -> attribute_projection ctx f (s, ty)
    | _ -> error "unknown function %s/%d" f (List.length args))

and attribute_projection ctx field (s, ty) =
  let types = Catalog.types ctx.catalog in
  (* peel a collection layer: projection maps point-wise *)
  let collection_wrap, base_ty =
    match expand ctx ty with
    | Vtype.Set e -> (Some `Set, e)
    | Vtype.Bag e -> (Some `Bag, e)
    | Vtype.List e -> (Some `List, e)
    | Vtype.Array e -> (Some `Array, e)
    | Vtype.Any | Vtype.Bool | Vtype.Int | Vtype.Real | Vtype.String
    | Vtype.Enum _ | Vtype.Tuple _ | Vtype.Collection _ | Vtype.Named _
    | Vtype.Object _ ->
      (* keep the unexpanded type: Object-ness decides VALUE insertion *)
      (None, ty)
  in
  (* objects are dereferenced with VALUE before projecting *)
  let inner, tuple_ty =
    match expand ctx base_ty with
    | Vtype.Object _ | Vtype.Tuple _ -> (
      match base_ty with
      | Vtype.Object n -> (Lera.Call ("value", [ s ]), Vtype.expand types (Vtype.Object n))
      | _ -> (s, expand ctx base_ty))
    | other -> error "cannot apply attribute %s to %a" field Vtype.pp other
  in
  let fields = match tuple_ty with Vtype.Tuple fs -> fs | _ -> [] in
  match List.find_opt (fun (n, _) -> same_name n field) fields with
  | None -> error "no attribute %s in %a" field Vtype.pp tuple_ty
  | Some (canonical, fty) ->
    let result_ty =
      match collection_wrap with
      | Some `Set -> Vtype.Set fty
      | Some `Bag -> Vtype.Bag fty
      | Some `List -> Vtype.List fty
      | Some `Array -> Vtype.Array fty
      | None -> fty
    in
    (Lera.Call ("project", [ inner; Lera.Cst (Value.Str canonical) ]), result_ty)

and const_value ctx e =
  match tr_expr ctx e with
  | Lera.Cst v, _ -> v
  | s, _ -> error "expected a constant, found %a" Lera.pp_scalar s

(* -- FROM resolution and view expansion -------------------------------- *)

let rec resolve_from ctx (name, alias) : Lera.rel * input =
  let rname = Option.value alias ~default:name in
  match ctx.self with
  | Some (self_name, self_schema) when same_name name self_name ->
    (Lera.Base self_name, { rname; schema = self_schema })
  | _ -> (
    match Catalog.table ctx.catalog name with
    | Some schema -> (Lera.Base name, { rname; schema })
    | None -> (
      match Catalog.view ctx.catalog name with
      | Some v -> (
        (* a materialized view with a recorded extent schema is read as a
           stored base relation; during its own definition (no schema
           recorded yet) it still expands compositionally *)
        match
          if v.Catalog.materialized then
            Catalog.view_schema ctx.catalog v.Catalog.vname
          else None
        with
        | Some schema -> (Lera.Base v.Catalog.vname, { rname; schema })
        | None ->
          if List.exists (same_name v.Catalog.vname) ctx.stack then
            error "mutually recursive views are not supported (%s)"
              v.Catalog.vname;
          let rel, schema = view_rel ctx.catalog ~stack:ctx.stack v in
          (rel, { rname; schema }))
      | None -> error "unknown relation or view %s" name))

and view_rel catalog ~stack (v : Catalog.view) : Lera.rel * Schema.t =
  let stack = v.Catalog.vname :: stack in
  let rename schema =
    match v.Catalog.columns with
    | [] -> schema
    | cols ->
      if List.length cols <> List.length schema then
        error "view %s declares %d columns but its body yields %d" v.Catalog.vname
          (List.length cols) (List.length schema);
      List.map2 (fun c (_, ty) -> (c, ty)) cols schema
  in
  if not v.Catalog.recursive then begin
    let rel = select_arms catalog ~stack ~self:None v.Catalog.body in
    (rel, rename (rel_schema catalog rel))
  end
  else begin
    (* Figure 5: translate the non-recursive arms first to learn the
       recursion variable's schema, then the recursive arms *)
    let arms = split_arms v.Catalog.body in
    let is_base arm =
      not
        (List.exists
           (fun (n, _) -> same_name n v.Catalog.vname)
           arm.Ast.from)
    in
    let base_arms = List.filter is_base arms in
    if base_arms = [] then
      error "recursive view %s has no non-recursive arm" v.Catalog.vname;
    let base_rels = List.map (one_arm catalog ~stack ~self:None) base_arms in
    let self_schema = rename (rel_schema catalog (List.hd base_rels)) in
    let self = Some (v.Catalog.vname, self_schema) in
    let all_rels =
      List.map
        (fun arm ->
          if is_base arm then one_arm catalog ~stack ~self:None arm
          else one_arm catalog ~stack ~self arm)
        arms
    in
    (Lera.Fix (v.Catalog.vname, Lera.Union all_rels), self_schema)
  end

and rel_schema catalog rel =
  try Schema.of_rel (Catalog.schema_env catalog) rel
  with Schema.Schema_error msg -> error "%s" msg

and split_arms (s : Ast.select) : Ast.select list =
  match s.Ast.union with
  | None -> [ { s with Ast.union = None } ]
  | Some rest -> { s with Ast.union = None } :: split_arms rest

and select_arms catalog ~stack ~self (s : Ast.select) : Lera.rel =
  match split_arms s with
  | [ arm ] -> one_arm catalog ~stack ~self arm
  | arms -> Lera.Union (List.map (one_arm catalog ~stack ~self) arms)

and one_arm catalog ~stack ~self (s : Ast.select) : Lera.rel =
  let ctx0 = { catalog; inputs = []; self; stack } in
  let resolved = List.map (resolve_from ctx0) s.Ast.from in
  let rels = List.map fst resolved in
  let ctx = { ctx0 with inputs = List.map snd resolved } in
  let qual =
    match s.Ast.where with
    | None -> Lera.tru
    | Some w ->
      let sc, ty = tr_expr ctx w in
      (match expand ctx ty with
      | Vtype.Bool | Vtype.Any -> ()
      | other -> error "WHERE clause has type %a, expected BOOLEAN" Vtype.pp other);
      sc
  in
  (* nesting: MakeSet(…) projections with GROUP BY become a nest operator
     (paper Figure 4) *)
  let rec contains_makeset (e : Ast.expr) =
    match e with
    | Ast.Call (f, [ _ ]) when same_name f "makeset" -> true
    | Ast.Call (_, args) -> List.exists contains_makeset args
    | Ast.Binop (_, a, b) -> contains_makeset a || contains_makeset b
    | Ast.Not a | Ast.Quant (_, a) -> contains_makeset a
    | Ast.In (a, b) -> contains_makeset a || contains_makeset b
    | Ast.Lit _ | Ast.Param _ | Ast.Ident _ | Ast.Dot _ | Ast.Set_lit _
    | Ast.List_lit _ ->
      false
  in
  let has_nest =
    List.exists (fun (e, _) -> contains_makeset e) s.Ast.proj
    || Option.fold ~none:false ~some:contains_makeset s.Ast.having
  in
  if not has_nest then begin
    if s.Ast.group_by <> [] then error "GROUP BY without MakeSet is not supported";
    if Option.is_some s.Ast.having then
      error "HAVING requires GROUP BY with a MakeSet aggregate";
    let proj = List.map (fun (e, _) -> fst (tr_expr ctx e)) s.Ast.proj in
    Lera.Search (rels, qual, proj)
  end
  else begin
    let group_exprs = s.Ast.group_by in
    if group_exprs = [] then error "MakeSet requires a GROUP BY clause";
    (* collect the MakeSet argument: every MakeSet in the projection must
       collect the same expression (one nested column) *)
    let rec makeset_args (e : Ast.expr) =
      match e with
      | Ast.Call (f, [ arg ]) when same_name f "makeset" -> [ arg ]
      | Ast.Call (_, args) -> List.concat_map makeset_args args
      | Ast.Binop (_, a, b) -> makeset_args a @ makeset_args b
      | Ast.Not a | Ast.Quant (_, a) -> makeset_args a
      | Ast.In (a, b) -> makeset_args a @ makeset_args b
      | Ast.Lit _ | Ast.Param _ | Ast.Ident _ | Ast.Dot _ | Ast.Set_lit _
      | Ast.List_lit _ ->
        []
    in
    let nested_arg =
      match
        List.sort_uniq compare
          (List.concat_map (fun (e, _) -> makeset_args e) s.Ast.proj
          @ Option.fold ~none:[] ~some:makeset_args s.Ast.having)
      with
      | [ a ] -> a
      | [] -> error "MakeSet expected in the projection"
      | _ :: _ :: _ -> error "all MakeSet projections must collect the same expression"
    in
    let group_scalars = List.map (tr_expr ctx) group_exprs in
    let nested_scalar, nested_ty = tr_expr ctx nested_arg in
    let inner_proj = List.map fst group_scalars @ [ nested_scalar ] in
    let k = List.length group_exprs in
    let inner = Lera.Search (rels, qual, inner_proj) in
    let nest = Lera.Nest (inner, List.init k (fun i -> i + 1), [ k + 1 ]) in
    (* the projection items are expressions over the grouped columns and
       the nested set: substitute placeholder identifiers and translate
       against the nest's output schema — this is how aggregates work
       here, as collection ADT functions over the MakeSet result
       (cardinality = COUNT, etc.) *)
    let rec substitute (e : Ast.expr) : Ast.expr =
      if e = Ast.Call ("MakeSet", [ nested_arg ]) || is_makeset_of e then
        Ast.Ident "__nested"
      else
        match List.find_index (fun g -> g = e) group_exprs with
        | Some i -> Ast.Ident (Fmt.str "__g%d" (i + 1))
        | None -> (
          match e with
          | Ast.Call (f, args) -> Ast.Call (f, List.map substitute args)
          | Ast.Binop (op, a, b) -> Ast.Binop (op, substitute a, substitute b)
          | Ast.Not a -> Ast.Not (substitute a)
          | Ast.Quant (q, a) -> Ast.Quant (q, substitute a)
          | Ast.In (a, b) -> Ast.In (substitute a, substitute b)
          | Ast.Lit _ | Ast.Param _ | Ast.Set_lit _ | Ast.List_lit _ -> e
          | Ast.Ident n ->
            error "projection %s is neither grouped nor over MakeSet" n
          | Ast.Dot (r, a) ->
            error "projection %s.%s is neither grouped nor over MakeSet" r a)
    and is_makeset_of e =
      match e with
      | Ast.Call (f, [ arg ]) when same_name f "makeset" -> arg = nested_arg
      | _ -> false
    in
    let post_schema =
      List.mapi (fun i (_, ty) -> (Fmt.str "__g%d" (i + 1), ty)) group_scalars
      @ [ ("__nested", Vtype.Set nested_ty) ]
    in
    let post_ctx =
      { ctx with inputs = [ { rname = "__nest"; schema = post_schema } ] }
    in
    (* HAVING filters the groups before the final projection *)
    let grouped =
      match s.Ast.having with
      | None -> nest
      | Some h -> Lera.Filter (nest, fst (tr_expr post_ctx (substitute h)))
    in
    let post_proj =
      List.map (fun (e, _) -> fst (tr_expr post_ctx (substitute e))) s.Ast.proj
    in
    let identity =
      List.length post_proj = k + 1
      && List.for_all2
           (fun p j -> p = Lera.Col (1, j))
           post_proj
           (List.init (k + 1) (fun i -> i + 1))
    in
    if identity then grouped else Lera.Project (grouped, post_proj)
  end

(* -- public entry points ----------------------------------------------- *)

let select catalog s = select_arms catalog ~stack:[] ~self:None s

let select_schema catalog s = rel_schema catalog (select catalog s)

let relation_of_name catalog name =
  match Catalog.table catalog name with
  | Some _ -> Lera.Base name
  | None -> (
    match Catalog.view catalog name with
    | Some v -> (
      match
        if v.Catalog.materialized then Catalog.view_schema catalog v.Catalog.vname
        else None
      with
      | Some _ -> Lera.Base v.Catalog.vname
      | None -> fst (view_rel catalog ~stack:[] v))
    | None -> error "unknown relation or view %s" name)

let schema_of_name catalog name =
  match Catalog.table catalog name with
  | Some schema -> schema
  | None -> (
    match Catalog.view catalog name with
    | Some v -> (
      match
        if v.Catalog.materialized then Catalog.view_schema catalog v.Catalog.vname
        else None
      with
      | Some schema -> schema
      | None -> snd (view_rel catalog ~stack:[] v))
    | None -> error "unknown relation or view %s" name)

let view_plan catalog (v : Catalog.view) = view_rel catalog ~stack:[] v

let expr_over_table catalog ~table e =
  match Catalog.table catalog table with
  | None -> error "unknown table %s" table
  | Some schema ->
    let ctx =
      {
        catalog;
        inputs = [ { rname = table; schema } ];
        self = None;
        stack = [];
      }
    in
    tr_expr ctx e

let rec coerce_value catalog expected (v : Value.t) : Value.t =
  let types = Catalog.types catalog in
  match Vtype.expand types expected, v with
  | Vtype.Enum (n, labels), Value.Str s when List.mem s labels -> Value.Enum (n, s)
  | Vtype.Set ety, (Value.Set xs | Value.Bag xs | Value.List xs) ->
    Value.set (List.map (coerce_value catalog ety) xs)
  | Vtype.Bag ety, (Value.Set xs | Value.Bag xs | Value.List xs) ->
    Value.bag (List.map (coerce_value catalog ety) xs)
  | Vtype.List ety, (Value.List xs | Value.Set xs | Value.Bag xs) ->
    Value.list (List.map (coerce_value catalog ety) xs)
  | Vtype.Array ety, (Value.Array xs | Value.List xs) ->
    Value.array (List.map (coerce_value catalog ety) xs)
  | Vtype.Tuple fields, Value.Tuple vfields
    when List.length fields = List.length vfields ->
    Value.tuple
      (List.map2 (fun (n, ty) (_, fv) -> (n, coerce_value catalog ty fv)) fields vfields)
  | _ -> v

let expr_to_value ?expected catalog (e : Ast.expr) : Value.t =
  let ctx = { catalog; inputs = []; self = None; stack = [] } in
  let v = const_value ctx e in
  match expected with
  | Some ty -> coerce_value catalog ty v
  | None -> v
