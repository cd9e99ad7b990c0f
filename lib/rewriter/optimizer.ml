module Value = Eds_value.Value
module Vtype = Eds_value.Vtype
module Term = Eds_term.Term
module Subst = Eds_term.Subst
module Lera = Eds_lera.Lera
module Schema = Eds_lera.Schema
module Lera_term = Eds_lera.Lera_term

type config = {
  merging_limit : int option;
  fixpoint_limit : int option;
  permutation_limit : int option;
  semantic_limit : int option;
  simplification_limit : int option;
  rounds : int;
}

let default_config =
  {
    merging_limit = None;
    (* the fixpoint and permutation blocks contain rules whose methods
       build fresh subplans (ALEXANDER, the union distribution); §4.2's
       remedy is a finite limit, generous enough never to bind on sane
       queries.  A limit counts every condition check — every match
       substitution whose constraints are evaluated — so AC-matching
       rules over wide conjunctions consume it faster than one unit per
       node. *)
    fixpoint_limit = Some 100;
    permutation_limit = Some 1000;
    semantic_limit = Some 100;
    simplification_limit = None;
    (* several rounds with early stop: selections pushed by permutation
       create new merging opportunities and vice versa — the paper's "the
       same block may be executed several times" (§4.2).  The engine
       stops as soon as a round leaves the query unchanged, so converged
       queries pay for one extra scan only.  A query cut off by this cap
       is not a fixpoint, so a second rewrite would still change it.  The
       cap bounds that, it does not rule it out: the semantic block can
       spend its whole budget on one operand, leaving the same
       contradiction in the next operand for a later round, and a few
       queries alternate between two forms for good.  Over 100,000
       generated queries, 28 were left unconverged by four rounds, 6 by
       five and 4 by six. *)
    rounds = 5;
  }

let zero_config =
  {
    merging_limit = Some 0;
    fixpoint_limit = Some 0;
    permutation_limit = Some 0;
    semantic_limit = Some 0;
    simplification_limit = Some 0;
    rounds = 1;
  }

(* §7, future work made real: "The limit given to a block of rule could
   also be allocated dynamically, according to the complexity of the
   query.  Simple queries (e.g., search on a key) do not need
   sophisticated optimization: a 0 limit can then be given to all blocks
   … Complex queries need rewriting: a high limit can then be given." *)
let complexity (r : Lera.rel) : int =
  let rec conjunct_count r =
    let own =
      match r with
      | Lera.Filter (_, q) | Lera.Join (_, _, q) | Lera.Search (_, q, _) ->
        List.length (Lera.conjuncts q)
      | _ -> 0
    in
    own + List.fold_left (fun acc i -> acc + conjunct_count i) 0 (Lera.inputs r)
  in
  let rec fix_count r =
    (match r with Lera.Fix _ -> 1 | _ -> 0)
    + List.fold_left (fun acc i -> acc + fix_count i) 0 (Lera.inputs r)
  in
  Lera.operator_count r + conjunct_count r + (4 * fix_count r)

let adaptive_config (r : Lera.rel) : config =
  let c = complexity r in
  if c <= 2 then zero_config
  else
    {
      merging_limit = Some (20 * c);
      fixpoint_limit = Some (10 * c);
      permutation_limit = Some (20 * c);
      semantic_limit = Some (min 200 (10 * c));
      simplification_limit = Some (40 * c);
      rounds = 4;
    }

let program ?(config = default_config) () =
  let block name limit rules = { Rule.block_name = name; rules; limit } in
  {
    Rule.blocks =
      [
        block "merging" config.merging_limit (Rulesets.merging ());
        block "fixpoint" config.fixpoint_limit (Rulesets.fixpoint ());
        (* the paper's §5.3 note: merging pays off again after pushing
           selections through fixpoints *)
        block "merging_again" config.merging_limit (Rulesets.merging ());
        block "permutation" config.permutation_limit (Rulesets.permutation ());
        block "semantic" config.semantic_limit (Rulesets.semantic ());
        block "simplification" config.simplification_limit (Rulesets.simplification ());
      ];
    rounds = config.rounds;
  }

let make_ctx ?(semantic_constraints = []) ?(extra_methods = [])
    ?(extra_constraints = []) ?profile schema_env =
  Engine.ctx
    ~methods:(extra_methods @ Methods.all)
    ~constraint_preds:extra_constraints ~semantic_constraints ?profile
    schema_env

let rewrite_term ?program:prog ?stats ctx t =
  let prog = match prog with Some p -> p | None -> program () in
  Engine.run ctx ?stats prog (Lera_term.normalize t)

let rewrite_term_reference ?program:prog ?stats ctx t =
  let prog = match prog with Some p -> p | None -> program () in
  Engine.run_reference ctx ?stats prog (Lera_term.normalize t)

let rewrite ?program:prog ?stats ctx (r : Lera.rel) : Lera.rel =
  let t = rewrite_term ?program:prog ?stats ctx (Lera_term.to_term r) in
  match Lera_term.of_term t with
  | rel -> rel
  | exception Lera_term.Bridge_error msg ->
    raise (Engine.Rewrite_error ("rewriting left a non-LERA term: " ^ msg))

(* -- semantic knowledge declarations ------------------------------------- *)

(* A Figure-10 declaration has the shape
   F(x) / ISA(x, T) --> F(x) AND <predicates over x>.
   We extract T and the added predicates. *)
let parse_integrity_constraint text =
  let rule = Rule_parser.parse_rule text in
  let fail fmt =
    Fmt.kstr
      (fun s ->
        raise
          (Rule_parser.Rule_parse_error
             { Rule_parser.message = s; line = 0; column = 0; token = "" }))
      fmt
  in
  let var_name, head =
    match rule.Rule.lhs with
    | Term.App (f, [ Term.Var v ]) when Term.is_fvar f -> (v, f)
    | _ -> fail "constraint lhs must be F(x), got %a" Term.pp rule.Rule.lhs
  in
  let type_name =
    match rule.Rule.constraints with
    | [ Term.App ("isa", [ Term.Var v; Term.Var ty ]) ] when v = var_name -> ty
    | _ -> fail "constraint must have the single condition ISA(x, Type)"
  in
  let conjuncts =
    match rule.Rule.rhs with
    | Term.App ("and", [ Term.Coll (Term.Bag, cs) ]) -> cs
    | t -> [ t ]
  in
  let is_head = function
    | Term.App (f, [ Term.Var v ]) -> f = head && v = var_name
    | _ -> false
  in
  let additions = List.filter (fun c -> not (is_head c)) conjuncts in
  if additions = [] then fail "constraint adds no predicate";
  (* normalize the constrained variable's name to x *)
  let rename t =
    Subst.apply (Subst.bind_exn Subst.empty var_name (Subst.One (Term.var "x"))) t
  in
  let template =
    match additions with
    | [ one ] -> rename one
    | several -> Term.App ("and", [ Term.Coll (Term.Bag, List.map rename several) ])
  in
  (type_name, template)

let enum_domain_constraints (types : Vtype.env) : (string * Term.t) list =
  List.filter_map
    (fun (d : Vtype.decl) ->
      match d.Vtype.definition with
      | Vtype.Enum (name, labels) ->
        let domain =
          Value.set (List.map (fun l -> Value.Enum (name, l)) labels)
        in
        Some
          ( d.Vtype.name,
            Term.app "member" [ Term.var "x"; Term.Cst domain ] )
      | _ -> None)
    (Vtype.declarations types)
