module Value = Eds_value.Value
module Adt = Eds_value.Adt
module Term = Eds_term.Term
module Subst = Eds_term.Subst
module Lera = Eds_lera.Lera
module Schema = Eds_lera.Schema
module Lera_term = Eds_lera.Lera_term

let ( let* ) = Option.bind

(* resolve an input argument through the substitution *)
let input subst (t : Term.t) : Term.t option =
  match t with
  | Term.Var x | Term.Cvar x -> Subst.find_term subst x
  | _ -> Some (Subst.apply subst t)

(* an output argument must be an unbound variable *)
let output subst (t : Term.t) : string option =
  match t with
  | Term.Var x | Term.Cvar x ->
    if Option.is_some (Subst.find subst x) then None else Some x
  | _ -> None

let bind_one subst name t = Subst.bind subst name (Subst.One t)

let many_count subst (t : Term.t) : int option =
  match t with
  | Term.Cvar x | Term.Var x -> (
    match Subst.find subst x with
    | Some (Subst.Many (_, ts)) -> Some (List.length ts)
    | Some (Subst.One (Term.Coll (_, ts))) -> Some (List.length ts)
    | _ -> None)
  | Term.Coll (_, ts) -> Some (List.length ts)
  | _ -> None

let coll_items (t : Term.t) : Term.t list option =
  match t with Term.Coll (_, ts) -> Some ts | _ -> None

let conjuncts_of (t : Term.t) : Term.t list =
  match t with
  | Term.App ("and", [ Term.Coll (Term.Bag, cs) ]) -> cs
  | Term.Cst (Value.Bool true) -> []
  | _ -> [ t ]

let conj_term = function
  | [] -> Term.tru
  | [ c ] -> c
  | cs -> Term.App ("and", [ Term.Coll (Term.Bag, cs) ])

(* schema of an encoded relational term, if computable *)
let rel_schema (c : Engine.ctx) (env : Engine.local_env) (t : Term.t) :
    Schema.t option =
  match Lera_term.of_term t with
  | rel -> (
    try Some (Schema.of_rel ~rvars:env.Engine.rvars c.Engine.schema_env rel)
    with Schema.Schema_error _ -> None)
  | exception Lera_term.Bridge_error _ -> None

(* -- substitute / shift (Figure 7) --------------------------------------- *)

let m_substitute c env subst args =
  ignore c;
  ignore env;
  match args with
  | [ f_arg; x_arg; b_arg; z_arg; out_arg ] ->
    let* f = input subst f_arg in
    let* nx = many_count subst x_arg in
    let* b = input subst b_arg in
    let* proj = coll_items b in
    let* z = input subst z_arg in
    let* z_items = coll_items z in
    let* out = output subst out_arg in
    let merged =
      Lera_term.merge_subst ~slot:(nx + 1) ~inner_arity:(List.length z_items) ~proj f
    in
    bind_one subst out merged
  | _ -> None

let m_shift c env subst args =
  ignore c;
  ignore env;
  match args with
  | [ g_arg; x_arg; out_arg ] ->
    let* g = input subst g_arg in
    let* nx = many_count subst x_arg in
    let* out = output subst out_arg in
    bind_one subst out (Lera_term.shift_cols ~by:nx g)
  | _ -> None

(* -- schema (Figure 8): identity projection over an operand list -------- *)

let m_schema c env subst args =
  match args with
  | [ z_arg; out_arg ] ->
    let* z = input subst z_arg in
    let* out = output subst out_arg in
    let rels = match z with Term.Coll (_, rs) -> rs | single -> [ single ] in
    let schemas = List.map (rel_schema c env) rels in
    if List.exists Option.is_none schemas then None
    else begin
      let cols =
        List.concat
          (List.mapi
             (fun i sch ->
               List.mapi
                 (fun j _ ->
                   Term.app "@" [ Term.int (i + 1); Term.int (j + 1) ])
                 (Option.get sch))
             schemas)
      in
      bind_one subst out (Term.Coll (Term.Tuple, cols))
    end
  | _ -> None

(* -- distribute (search through union, Figure 8) ------------------------- *)

let m_distribute c env subst args =
  ignore c;
  ignore env;
  match args with
  | [ x_arg; z_arg; y_arg; f_arg; a_arg; out_arg ] ->
    let* xs = input subst x_arg in
    let* xs_items = coll_items xs in
    let* z = input subst z_arg in
    let* members = coll_items z in
    let* ys = input subst y_arg in
    let* ys_items = coll_items ys in
    let* f = input subst f_arg in
    let* a = input subst a_arg in
    let* out = output subst out_arg in
    if members = [] then None
    else begin
      let search_over u =
        Term.app "search"
          [ Term.Coll (Term.List, xs_items @ [ u ] @ ys_items); f; a ]
      in
      let u =
        Term.app "union" [ Term.Coll (Term.Set, List.map search_over members) ]
      in
      bind_one subst out u
    end
  | _ -> None

(* or_to_union: a search whose qualification is a disjunction becomes a
   union of one search per disjunct — sound under set semantics, and it
   lets the per-arm conjuncts push down independently *)
let m_or_to_union c env subst args =
  ignore c;
  ignore env;
  match args with
  | [ z_arg; d_arg; e_arg; out_arg ] ->
    let* z = input subst z_arg in
    let* disjuncts =
      match input subst d_arg with
      | Some (Term.Coll (_, ds)) -> Some ds
      | Some single -> Some [ single ]
      | None -> None
    in
    let* e = input subst e_arg in
    let* out = output subst out_arg in
    if List.length disjuncts < 2 then None
    else begin
      let arm d = Term.app "search" [ z; d; e ] in
      bind_one subst out
        (Term.app "union" [ Term.Coll (Term.Set, List.map arm disjuncts) ])
    end
  | _ -> None

(* -- qualification splitting (select pushdown; Figure-8 nest push) ------- *)

let cols_all_in_slot slot (t : Term.t) =
  let cols = Lera_term.cols_of t in
  cols <> [] && List.for_all (fun (i, _) -> i = slot) cols

let m_split_input_qual c env subst args =
  ignore c;
  ignore env;
  match args with
  | [ q_arg; x_arg; r_arg; y_arg; qi_arg; qj_arg ] ->
    let* q = input subst q_arg in
    let* nx = many_count subst x_arg in
    let* ny = many_count subst y_arg in
    let* r = input subst r_arg in
    (* pushing the predicate of a single-operand search over a stored
       relation only adds an operator: decline *)
    let single_base =
      nx = 0 && ny = 0
      && match r with Term.App ("rel", _) -> true | _ -> false
    in
    if single_base then None
    else
    let slot = nx + 1 in
    let conjuncts = conjuncts_of q in
    let pushable, rest = List.partition (cols_all_in_slot slot) conjuncts in
    if pushable = [] then None
    else begin
      (* avoid re-pushing through an identical filter (idempotence guard) *)
      let renumbered =
        List.map (Lera_term.map_cols (fun _ j -> Term.app "@" [ Term.int 1; Term.int j ]))
          pushable
      in
      match r with
      | Term.App ("filter", [ _; existing ])
        when List.for_all
               (fun p -> List.exists (Term.equal p) (conjuncts_of existing))
               renumbered ->
        None
      | _ ->
        let* qi = output subst qi_arg in
        let* qj = output subst qj_arg in
        let* s1 = bind_one subst qi (conj_term renumbered) in
        bind_one s1 qj (conj_term rest)
    end
  | _ -> None

let m_split_nest_qual c env subst args =
  ignore c;
  ignore env;
  match args with
  | [ q_arg; x_arg; g_arg; qi_arg; qj_arg ] ->
    let* q = input subst q_arg in
    let* nx = many_count subst x_arg in
    let* g = input subst g_arg in
    let* group_cols = coll_items g in
    let slot = nx + 1 in
    let width = List.length group_cols in
    let group_j idx =
      match List.nth_opt group_cols (idx - 1) with
      | Some (Term.Cst (Value.Int j)) -> Some j
      | _ -> None
    in
    let conjuncts = conjuncts_of q in
    let pushable, rest =
      List.partition
        (fun t ->
          let cols = Lera_term.cols_of t in
          cols <> [] && List.for_all (fun (i, j) -> i = slot && j <= width) cols)
        conjuncts
    in
    if pushable = [] then None
    else begin
      let renumber t =
        Lera_term.map_cols
          (fun _ j ->
            match group_j j with
            | Some j' -> Term.app "@" [ Term.int 1; Term.int j' ]
            | None -> Term.app "@" [ Term.int 1; Term.int j ])
          t
      in
      let* qi = output subst qi_arg in
      let* qj = output subst qj_arg in
      let* s1 = bind_one subst qi (conj_term (List.map renumber pushable)) in
      bind_one s1 qj (conj_term rest)
    end
  | _ -> None

let m_split_unnest_qual c env subst args =
  ignore c;
  ignore env;
  match args with
  | [ q_arg; x_arg; i_arg; qi_arg; qj_arg ] ->
    let* q = input subst q_arg in
    let* nx = many_count subst x_arg in
    let* it = input subst i_arg in
    let* flattened =
      match it with Term.Cst (Value.Int i) -> Some i | _ -> None
    in
    let slot = nx + 1 in
    let conjuncts = conjuncts_of q in
    (* pushable: refers only to the unnest operand, avoiding the column
       whose collection is flattened (its inner value differs) *)
    let pushable, rest =
      List.partition
        (fun t ->
          let cols = Lera_term.cols_of t in
          cols <> []
          && List.for_all (fun (i, j) -> i = slot && j <> flattened) cols)
        conjuncts
    in
    if pushable = [] then None
    else begin
      let renumber t =
        Lera_term.map_cols (fun _ j -> Term.app "@" [ Term.int 1; Term.int j ]) t
      in
      let* qi = output subst qi_arg in
      let* qj = output subst qj_arg in
      let* s1 = bind_one subst qi (conj_term (List.map renumber pushable)) in
      bind_one s1 qj (conj_term rest)
    end
  | _ -> None

(* -- evaluate (Figure 12) ------------------------------------------------- *)

(* heads that are structure, not ADT functions *)
let structural =
  [
    "rel"; "rvar"; "filter"; "proj"; "join"; "union"; "difference";
    "intersection"; "search"; "fix"; "nest"; "unnest"; "@"; "and"; "or";
    "value";
  ]

let m_evaluate c env subst args =
  ignore env;
  match args with
  | [ e_arg; out_arg ] ->
    let* e = input subst e_arg in
    let* out = output subst out_arg in
    (match e with
    | _ when Lera_term.has_param e -> None  (* never fold a parameter's value *)
    | Term.App (f, fargs) when not (List.mem f structural) ->
      let consts =
        List.map (function Term.Cst v -> Some v | _ -> None) fargs
      in
      if List.exists Option.is_none consts then None
      else begin
        match Adt.apply c.Engine.schema_env.Schema.adts f (List.map Option.get consts) with
        | v -> bind_one subst out (Term.Cst v)
        | exception _ -> None
      end
    | _ -> None)
  | _ -> None

(* -- fixpoint methods (Figure 9) ------------------------------------------ *)

let m_linearize c env subst args =
  ignore c;
  ignore env;
  match args with
  | [ f_arg; out_arg ] ->
    let* f = input subst f_arg in
    let* out = output subst out_arg in
    let* rel =
      match Lera_term.of_term f with
      | r -> Some r
      | exception Lera_term.Bridge_error _ -> None
    in
    let* linear = Magic.linearize_tc rel in
    bind_one subst out (Lera_term.to_term linear)
  | _ -> None

let encode_signature (sig_ : (int * Lera.scalar) list) : Term.t =
  Term.Coll
    ( Term.Tuple,
      List.map
        (fun (j, k) ->
          Term.Coll (Term.Tuple, [ Term.int j; Lera_term.scalar_to_term k ]))
        sig_ )

let decode_signature (t : Term.t) : (int * Lera.scalar) list option =
  match t with
  | Term.Coll (Term.Tuple, items) ->
    let decode = function
      | Term.Coll (Term.Tuple, [ Term.Cst (Value.Int j); k ]) -> (
        match Lera_term.scalar_of_term k with
        | s -> Some (j, s)
        | exception Lera_term.Bridge_error _ -> None)
      | _ -> None
    in
    let decoded = List.map decode items in
    if List.exists Option.is_none decoded then None
    else Some (List.map Option.get decoded)
  | _ -> None

let fix_name (t : Term.t) =
  match t with
  | Term.App ("fix", [ Term.Cst (Value.Str n); _ ]) -> Some n
  | _ -> None

let m_adornment c env subst args =
  match args with
  | [ x_arg; f_arg; q_arg; out_arg ] ->
    let* nx = many_count subst x_arg in
    let* f = input subst f_arg in
    let* q = input subst q_arg in
    let* out = output subst out_arg in
    let* name = fix_name f in
    (* apply the method once only per recursive predicate (paper §5.3) *)
    if String.length name > 6 && Filename.check_suffix name "_magic" then None
    else begin
      let* sch = rel_schema c env f in
      let* qual =
        match Lera_term.scalar_of_term q with
        | s -> Some s
        | exception Lera_term.Bridge_error _ -> None
      in
      let bound = Magic.adornment qual ~slot:(nx + 1) ~arity:(List.length sch) in
      if bound = [] then None else bind_one subst out (encode_signature bound)
    end
  | _ -> None

let m_alexander c env subst args =
  match args with
  | [ f_arg; sig_arg; out_arg ] ->
    let* f = input subst f_arg in
    let* sigt = input subst sig_arg in
    let* out = output subst out_arg in
    let* bound = decode_signature sigt in
    let* rel =
      match Lera_term.of_term f with
      | r -> Some r
      | exception Lera_term.Bridge_error _ -> None
    in
    let rel = match Magic.linearize_tc rel with Some l -> l | None -> rel in
    let* rewritten =
      Eds_obs.Obs.span ~cat:"rewrite" "magic:alexander" (fun () ->
          Magic.transform c.Engine.schema_env ~rvars:env.Engine.rvars rel ~bound)
    in
    bind_one subst out (Lera_term.to_term rewritten)
  | _ -> None

(* -- integrity-constraint addition (Figure 10) ---------------------------- *)

let m_domain_constraints c env subst args =
  match args with
  | [ c_arg; out_arg ] ->
    let* cs = input subst c_arg in
    let conjuncts = match cs with Term.Coll (_, ts) -> ts | t -> [ t ] in
    let* out = output subst out_arg in
    (* candidate typed scalars: every column reference and application
       subterm of the qualification.  A parameter stands for a constant,
       which is no candidate: a literal may lie outside its type's
       constrained domain. *)
    let candidates =
      List.concat_map
        (fun conj ->
          List.filter
            (function
              | Term.App _ as t -> not (Lera_term.is_param t)
              | _ -> false)
            (Term.subterms conj))
        conjuncts
      |> List.sort_uniq Term.compare
    in
    let instantiate template scalar =
      Subst.apply (Subst.bind_exn Subst.empty "x" (Subst.One scalar)) template
    in
    let applicable scalar (type_name, template) =
      let holds =
        Engine.eval_constraint c env
          (Term.App ("isa", [ scalar; Term.Var (String.lowercase_ascii type_name) ]))
      in
      if holds then Some (instantiate template scalar) else None
    in
    let additions =
      List.concat_map
        (fun scalar ->
          List.filter_map (applicable scalar) c.Engine.semantic_constraints)
        candidates
      |> List.sort_uniq Term.compare
      |> List.filter (fun t -> not (List.exists (Term.equal t) conjuncts))
    in
    if additions = [] then None
    else
      Subst.bind subst out (Subst.Many (Term.Bag, additions))
  | _ -> None

let all =
  [
    ("substitute", m_substitute);
    ("shift", m_shift);
    ("schema", m_schema);
    ("distribute", m_distribute);
    ("split_input_qual", m_split_input_qual);
    ("split_nest_qual", m_split_nest_qual);
    ("split_unnest_qual", m_split_unnest_qual);
    ("or_to_union", m_or_to_union);
    ("evaluate", m_evaluate);
    ("linearize", m_linearize);
    ("adornment", m_adornment);
    ("alexander", m_alexander);
    ("domain_constraints", m_domain_constraints);
  ]
