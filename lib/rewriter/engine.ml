module Value = Eds_value.Value
module Vtype = Eds_value.Vtype
module Adt = Eds_value.Adt
module Term = Eds_term.Term
module Subst = Eds_term.Subst
module Matcher = Eds_term.Matcher
module Lera = Eds_lera.Lera
module Schema = Eds_lera.Schema
module Lera_term = Eds_lera.Lera_term
module Obs = Eds_obs.Obs

type local_env = {
  input_schemas : Schema.t list option;
  rvars : (string * Schema.t) list;
}

type ctx = {
  schema_env : Schema.env;
  methods : (string * method_fn) list;
  constraint_preds : (string * constraint_fn) list;
  semantic_constraints : (string * Term.t) list;
  profile : Obs.Profile.t option;
  params : Value.t array;
  guards : Lera.guard list ref;
}

and method_fn = ctx -> local_env -> Subst.t -> Term.t list -> Subst.t option
and constraint_fn = ctx -> local_env -> Term.t list -> bool

let ctx ?(methods = []) ?(constraint_preds = []) ?(semantic_constraints = [])
    ?profile ?(params = [||]) schema_env =
  {
    schema_env;
    methods;
    constraint_preds;
    semantic_constraints;
    profile;
    params;
    guards = ref [];
  }

let guards c = List.rev !(c.guards)

let top_env = { input_schemas = None; rvars = [] }

type step = {
  rule_name : string;
  block_name : string;
  redex : Term.t;  (** the subterm that was rewritten *)
  replacement : Term.t;
}

let pp_step ppf s =
  Fmt.pf ppf "[%s] %s:@   %a@   --> %a" s.block_name s.rule_name Term.pp s.redex
    Term.pp s.replacement

type block_stats = {
  mutable time_s : float;
  mutable nodes : int;
  mutable conditions : int;
  mutable rewrites : int;
}

type stats = {
  mutable conditions_checked : int;
  mutable rewrites_applied : int;
  mutable nodes_visited : int;
  mutable match_attempts : int;
  mutable index_hits : int;
  mutable index_misses : int;
  mutable schema_hits : int;
  mutable schema_misses : int;
  mutable by_rule : (string * int) list;
  mutable per_block : (string * block_stats) list;
  mutable passes : (string * block_stats) list;
  mutable trace : step list;  (** most recent first; reversed by [steps] *)
}

let fresh_stats () =
  {
    conditions_checked = 0;
    rewrites_applied = 0;
    nodes_visited = 0;
    match_attempts = 0;
    index_hits = 0;
    index_misses = 0;
    schema_hits = 0;
    schema_misses = 0;
    by_rule = [];
    per_block = [];
    passes = [];
    trace = [];
  }

let steps stats = List.rev stats.trace

let block_stats stats name =
  match List.assoc_opt name stats.per_block with
  | Some bs -> bs
  | None ->
    let bs = { time_s = 0.; nodes = 0; conditions = 0; rewrites = 0 } in
    stats.per_block <- stats.per_block @ [ (name, bs) ];
    bs

(* One execution of a block is one *pass*.  A block name may execute
   several times under one [stats] record — the same block re-run across
   rounds, or a rule set mounted under two blocks of the program (the
   C2 merge/fixpoint/merge sequence) — so accounting is collected per
   pass and folded into the name-summed [per_block] view afterwards. *)
let new_pass stats name =
  let bs = { time_s = 0.; nodes = 0; conditions = 0; rewrites = 0 } in
  stats.passes <- stats.passes @ [ (name, bs) ];
  bs

let merge_pass stats name (pass : block_stats) =
  let total = block_stats stats name in
  total.time_s <- total.time_s +. pass.time_s;
  total.nodes <- total.nodes + pass.nodes;
  total.conditions <- total.conditions + pass.conditions;
  total.rewrites <- total.rewrites + pass.rewrites

let pp_block_stats ppf (name, bs) =
  Fmt.pf ppf "%s: %.3fms nodes=%d conditions=%d rewrites=%d" name
    (bs.time_s *. 1000.) bs.nodes bs.conditions bs.rewrites

let pp_stats ppf s =
  Fmt.pf ppf "conditions=%d rewrites=%d nodes=%d attempts=%d index=%d/%d schema=%d/%d [%a]"
    s.conditions_checked s.rewrites_applied s.nodes_visited s.match_attempts
    s.index_hits s.index_misses s.schema_hits s.schema_misses
    (Fmt.list ~sep:(Fmt.any "; ") (fun ppf (n, c) -> Fmt.pf ppf "%s:%d" n c))
    s.by_rule

let bump_rule stats name =
  stats.rewrites_applied <- stats.rewrites_applied + 1;
  let rec go = function
    | [] -> [ (name, 1) ]
    | (n, c) :: rest -> if n = name then (n, c + 1) :: rest else (n, c) :: go rest
  in
  stats.by_rule <- go stats.by_rule

exception Rewrite_error of string

(* -- scalar typing inside constraints ----------------------------------- *)

(* Type of a (ground) scalar term under the local environment, when
   derivable: constants, column references, and registered functions. *)
let term_type c env (t : Term.t) : Vtype.t option =
  match t with
  | Term.Cst v -> Some (Vtype.type_of_value c.schema_env.Schema.types v)
  | Term.App _ when Lera_term.is_param t -> (
    (* typed like the constant it stands for *)
    match Lera_term.scalar_of_term t with
    | Lera.Param (_, ty) -> Some ty
    | _ -> None)
  | Term.App ("@", [ Term.Cst (Value.Int i); Term.Cst (Value.Int j) ]) -> (
    match env.input_schemas with
    | Some schemas -> (
      match List.nth_opt schemas (i - 1) with
      | Some sch -> Option.map snd (List.nth_opt sch (j - 1))
      | None -> None)
    | None -> None)
  | Term.App (_, _) -> (
    match Lera_term.scalar_of_term t with
    | scalar -> (
      match env.input_schemas with
      | Some schemas -> (
        try Some (Schema.scalar_type c.schema_env ~inputs:schemas scalar)
        with Schema.Schema_error _ -> None)
      | None -> None)
    | exception Lera_term.Bridge_error _ -> None)
  | Term.Var _ | Term.Cvar _ -> None
  | Term.Coll (Term.Set, _) -> Some (Vtype.Set Vtype.Any)
  | Term.Coll (Term.Bag, _) -> Some (Vtype.Bag Vtype.Any)
  | Term.Coll (Term.List, _) -> Some (Vtype.List Vtype.Any)
  | Term.Coll (Term.Array, _) -> Some (Vtype.Array Vtype.Any)
  | Term.Coll (Term.Tuple, _) -> None

(* -- built-in constraints ------------------------------------------------ *)

let comparison_ops = [ "="; "<>"; "<"; "<="; ">"; ">=" ]

(* Template parameters (Lera.Param) stand for values fixed per execution.
   A template is planned with the literals of the request that planned
   it ([c.params]), and a built-in that reads a parameter's value records
   the read as a guard: the comparison, its operands and its outcome.
   Every rewrite step taken on the template then holds for exactly the
   bindings that give every guard its recorded outcome again
   (DESIGN.md decision 17). *)

(* the scalar a constraint operand denotes and its value: a constant, or
   a parameter through the planning literals *)
let literal c (t : Term.t) =
  match t with
  | Term.Cst v -> Some (Lera.Cst v, v)
  | Term.App _ when Lera_term.is_param t -> (
    match Lera_term.scalar_of_term t with
    | Lera.Param (i, _) as p when i >= 1 && i <= Array.length c.params ->
      Some (p, c.params.(i - 1))
    | _ -> None)
  | _ -> None

let record c g =
  if not (List.exists (Lera.equal_guard g) !(c.guards)) then c.guards := g :: !(c.guards)

(* [op a b] on two literal operands, recording a guard when one of them
   is a parameter; false when an operand is no literal *)
let read c op a b =
  match literal c a, literal c b with
  | Some (sa, va), Some (sb, vb) ->
    let outcome = Lera.compare_values c.schema_env.Schema.adts op va vb in
    (match sa, sb with
    | Lera.Cst _, Lera.Cst _ -> ()
    | _ -> record c { Lera.op; args = (sa, sb); outcome });
    outcome
  | _ -> false

(* the constants and parameters of a term, left to right; column
   references hold none *)
let rec value_leaves acc (t : Term.t) =
  match t with
  | Term.App ("@", _) -> acc
  | Term.Cst _ -> t :: acc
  | Term.App _ when Lera_term.is_param t -> t :: acc
  | Term.App (_, args) | Term.Coll (_, args) -> List.fold_left value_leaves acc args
  | Term.Var _ | Term.Cvar _ -> acc

let rec blur_values (t : Term.t) : Term.t =
  match t with
  | Term.App ("@", _) -> t
  | Term.Cst _ -> Term.Cst Value.Null
  | Term.App _ when Lera_term.is_param t -> Term.Cst Value.Null
  | Term.App (f, args) -> Term.App (f, List.map blur_values args)
  | Term.Coll (k, args) -> Term.Coll (k, List.map blur_values args)
  | Term.Var _ | Term.Cvar _ -> t

(* Term equality as a rule may rely on it: two terms that differ only in
   parameters and constants are equal when their leaves are, which reads
   each parameter leaf's value ([=], exactly as [Term.equal] compares
   constants).  Without parameters it is exactly [Term.equal]. *)
let settled_equal c a b =
  Term.equal a b
  || (Lera_term.has_param a || Lera_term.has_param b)
     && Term.equal (blur_values a) (blur_values b)
     &&
     let pairs = List.combine (value_leaves [] a) (value_leaves [] b) in
     let fixed, open_ =
       List.partition
         (function Term.Cst _, Term.Cst _ -> true | _ -> false)
         pairs
     in
     List.for_all (fun (x, y) -> Term.equal x y) fixed
     && List.for_all (fun (x, y) -> read c "=" x y) open_

let rec eval_constraint c env (t : Term.t) : bool =
  match t with
  | Term.Cst (Value.Bool b) -> b
  | Term.App ("and", [ Term.Coll (Term.Bag, cs) ]) ->
    List.for_all (eval_constraint c env) cs
  | Term.App ("or", [ Term.Coll (Term.Bag, cs) ]) ->
    List.exists (eval_constraint c env) cs
  | Term.App ("not", [ a ]) -> not (eval_constraint c env a)
  | Term.App (op, args)
    when List.mem op comparison_ops && List.exists Lera_term.has_param args -> (
    match args with
    | [ a; b ] -> read c op a b
    | _ -> false)
  | Term.App (op, [ (Term.Cst _ as a); (Term.Cst _ as b) ])
    when List.mem op comparison_ops ->
    read c op a b
  | Term.App ("isa", [ a; ty ]) -> constraint_isa c env a ty
  | Term.App ("notin", a :: members) ->
    List.for_all (fun m -> not (settled_equal c a m)) members
  | Term.App ("distinct", [ a; b ]) -> not (settled_equal c a b)
  | Term.App ("nonempty", [ Term.Coll (_, elems) ]) ->
    (* a lone collection argument is a matched collection term (a variable
       bound to list(…), set(…), …): test its elements, not the fact that
       one argument is present — nonempty(list()) must be false *)
    elems <> []
  | Term.App ("nonempty", [ Term.Cst v ]) when Value.is_collection v ->
    Value.elements v <> []
  | Term.App ("nonempty", args) ->
    (* spliced collection variable: x* becomes the elements themselves *)
    args <> []
  | Term.App ("ground", [ a ]) -> Term.is_ground a
  | Term.App ("pred", [ a ]) -> constraint_pred c a
  | Term.App ("refer_only", [ Term.Coll (_, quals); Term.Coll (_, prefix); group ]) ->
    constraint_refer_only quals prefix group
  | Term.App ("not_in_domain", [ k; s ]) -> constraint_not_in_domain c env k s
  | Term.App ("empty_rel", [ r ]) -> (
    (* provable emptiness of a relational operand (starved by a false
       qualification somewhere inside) *)
    match Lera_term.of_term r with
    | rel -> Lera.obviously_empty rel
    | exception Lera_term.Bridge_error _ -> false)
  | Term.App (name, args) -> (
    match List.assoc_opt name c.constraint_preds with
    | Some fn -> fn c env args
    | None -> false)
  | Term.Var _ | Term.Cvar _ | Term.Cst _ | Term.Coll _ -> false

(* ISA(x, y): subtype test.  The type side is written as a bare name in
   rule syntax (hence a variable after parsing); [constant] means "x is a
   constant", the collection kinds test the constructor, and any declared
   type name tests against the derivable type of x. *)
and constraint_isa c env a ty =
  let type_name =
    match ty with
    | Term.Var n -> Some n
    | Term.Cst (Value.Str n) -> Some (String.lowercase_ascii n)
    | _ -> None
  in
  match type_name with
  | None -> false
  (* a parameter is a constant of every execution, whatever its value:
     no read *)
  | Some "constant" -> (
    match a with Term.Cst _ -> true | _ -> Lera_term.is_param a)
  | Some (("set" | "bag" | "list" | "array" | "collection" | "tuple") as kind) -> (
    let value_is v =
      match v, kind with
      | Value.Set _, ("set" | "collection")
      | Value.Bag _, ("bag" | "collection")
      | Value.List _, ("list" | "collection")
      | Value.Array _, ("array" | "collection")
      | Value.Tuple _, "tuple" ->
        true
      | _ -> false
    in
    match a with
    | Term.Cst v -> value_is v
    | Term.Coll (Term.Set, _) -> kind = "set" || kind = "collection"
    | Term.Coll (Term.Bag, _) -> kind = "bag" || kind = "collection"
    | Term.Coll (Term.List, _) -> kind = "list" || kind = "collection"
    | Term.Coll (Term.Array, _) -> kind = "array" || kind = "collection"
    | Term.Coll (Term.Tuple, _) -> kind = "tuple"
    | _ -> (
      match term_type c env a with
      | Some t -> (
        let target =
          match kind with
          | "set" -> Vtype.Set Vtype.Any
          | "bag" -> Vtype.Bag Vtype.Any
          | "list" -> Vtype.List Vtype.Any
          | "array" -> Vtype.Array Vtype.Any
          | "tuple" -> Vtype.Tuple []
          | _ -> Vtype.Collection Vtype.Any
        in
        match target with
        | Vtype.Tuple [] -> (
          match Vtype.expand c.schema_env.Schema.types t with
          | Vtype.Tuple _ -> true
          | _ -> false)
        | _ -> Vtype.isa c.schema_env.Schema.types t target)
      | None -> false))
  | Some name -> (
    let types = c.schema_env.Schema.types in
    let target =
      match String.lowercase_ascii name with
      | "numeric" | "real" -> Some Vtype.Real
      | "int" | "integer" -> Some Vtype.Int
      | "char" | "string" -> Some Vtype.String
      | "boolean" | "bool" -> Some Vtype.Bool
      | _ -> (
        (* declared names parse lowercased; search case-insensitively *)
        let decls = Vtype.declarations types in
        match
          List.find_opt
            (fun d -> String.lowercase_ascii d.Vtype.name = String.lowercase_ascii name)
            decls
        with
        | Some d when d.Vtype.is_object -> Some (Vtype.Object d.Vtype.name)
        | Some d -> Some (Vtype.Named d.Vtype.name)
        | None -> None)
    in
    match target, term_type c env a with
    | Some target_ty, Some t -> Vtype.isa types t target_ty
    | _ -> false)

and constraint_pred c a =
  match a with
  | Term.Cst (Value.Str f) | Term.Var f -> (
    List.mem f comparison_ops
    ||
    match Adt.find c.schema_env.Schema.adts f with
    | Some entry -> Vtype.equal entry.Adt.result_type Vtype.Bool
    | None -> false)
  | _ -> false

(* refer_only(list(quals…), list(prefix…), group): every column reference
   of the qualifications points at the operand following the prefix, and
   within that operand at one of the first |group| attributes — i.e. the
   non-nested, grouping attributes of a nest (Figure 8). *)
and constraint_refer_only quals prefix group =
  let slot = List.length prefix + 1 in
  let width =
    match group with
    | Term.Coll (Term.Tuple, cols) -> List.length cols
    | _ -> 0
  in
  quals <> []
  && List.for_all
       (fun q ->
         List.for_all
           (fun (i, j) -> i = slot && j <= width)
           (Lera_term.cols_of q))
       quals

(* not_in_domain(k, col): k is a constant whose value cannot belong to the
   enumeration domain of col's element type — the MEMBER('Cartoon', …)
   inconsistency of §6.1.  A parameter is no [Term.Cst], so it vetoes
   whatever its value: no read, no guard. *)
and constraint_not_in_domain c env k col =
  match k, term_type c env col with
  | Term.Cst kv, Some ty -> (
    let types = c.schema_env.Schema.types in
    let elem =
      match Vtype.element_type types ty with Some e -> e | None -> ty
    in
    match Vtype.expand types elem with
    | Vtype.Enum (_, labels) -> (
      match kv with
      | Value.Str s -> not (List.mem s labels)
      | Value.Enum (_, s) -> not (List.mem s labels)
      | _ -> true)
    | _ -> false)
  | _ -> false

(* -- rule application ---------------------------------------------------- *)

let run_methods c env rule subst =
  let rec go subst = function
    | [] -> Some subst
    | (name, raw_args) :: rest -> (
      match List.assoc_opt name c.methods with
      | None -> raise (Rewrite_error (Fmt.str "unknown method %s in rule %s" name rule.Rule.name))
      | Some fn -> (
        match fn c env subst raw_args with
        | Some subst' -> go subst' rest
        | None -> None))
  in
  go subst rule.Rule.methods

(* Per-attempt veto accounting, filled in only when profiling or tracing
   is on (the tally is [None] on the undisturbed hot path). *)
type attempt_tally = {
  mutable subs : int;  (** substitutions enumerated *)
  mutable constraint_fails : int;
  mutable method_fails : int;
  mutable budget_hit : bool;
}

(* Shared core of rule application.  Enumerates the rule's matches
   lazily; each substitution whose constraints are about to be evaluated
   costs one condition check — [on_check] charges it against the block
   budget and returns false when the budget is exhausted, which aborts
   the enumeration ("each time a rule condition is checked, the limit of
   the block is decreased by one", §4.2). *)
let try_rule c env ~on_check ?tally (rule : Rule.t) t : Term.t option =
  let rec find seq =
    match seq () with
    | Seq.Nil -> None
    | Seq.Cons (subst, rest) -> (
      if not (on_check ()) then begin
        (match tally with Some a -> a.budget_hit <- true | None -> ());
        None
      end
      else begin
        (match tally with Some a -> a.subs <- a.subs + 1 | None -> ());
        let holds =
          List.for_all
            (fun ct -> eval_constraint c env (Subst.apply subst ct))
            rule.Rule.constraints
        in
        if not holds then begin
          (match tally with
          | Some a -> a.constraint_fails <- a.constraint_fails + 1
          | None -> ());
          find rest
        end
        else
          match run_methods c env rule subst with
          | Some subst' -> Some (Lera_term.normalize (Subst.apply subst' rule.Rule.rhs))
          | None ->
            (match tally with
            | Some a -> a.method_fails <- a.method_fails + 1
            | None -> ());
            find rest
      end)
  in
  find (Matcher.all ~pattern:rule.Rule.lhs t)

(* One (rule, node) attempt with observability: when the context carries
   a profile, aggregate attempts/fires/vetoes and condition time per
   (block, rule); when a trace sink is installed, emit one complete
   event per attempt with its outcome.  When neither is active this is
   exactly [try_rule] — one load and one branch of overhead. *)
let attempt_rule c env ~on_check ~block_name (rule : Rule.t) t : Term.t option =
  match c.profile, Obs.enabled () with
  | None, false -> try_rule c env ~on_check rule t
  | profile, traced ->
    let tally =
      { subs = 0; constraint_fails = 0; method_fails = 0; budget_hit = false }
    in
    let t0 = Obs.now () in
    let result = try_rule c env ~on_check ~tally rule t in
    let dt = Obs.now () -. t0 in
    (match profile with
    | Some p ->
      let cell = Obs.Profile.cell p ~block:block_name ~rule:rule.Rule.name in
      cell.Obs.Profile.attempts <- cell.Obs.Profile.attempts + 1;
      if Option.is_some result then
        cell.Obs.Profile.fires <- cell.Obs.Profile.fires + 1;
      cell.Obs.Profile.constraint_vetoes <-
        cell.Obs.Profile.constraint_vetoes + tally.constraint_fails;
      cell.Obs.Profile.method_vetoes <-
        cell.Obs.Profile.method_vetoes + tally.method_fails;
      if tally.budget_hit then
        cell.Obs.Profile.budget_aborts <- cell.Obs.Profile.budget_aborts + 1;
      cell.Obs.Profile.time_s <- cell.Obs.Profile.time_s +. dt
    | None -> ());
    if traced then begin
      let outcome =
        match result with
        | Some _ -> "fired"
        | None ->
          if tally.budget_hit then "budget"
          else if tally.method_fails > 0 then "method-veto"
          else if tally.constraint_fails > 0 then "constraint-veto"
          else "no-match"
      in
      Obs.complete ~cat:"rule"
        ~attrs:
          [
            ("block", Obs.Json.Str block_name);
            ("outcome", Obs.Json.Str outcome);
            ("substitutions", Obs.Json.Int tally.subs);
          ]
        ("rule:" ^ rule.Rule.name) ~ts:t0 ~dur:dt
    end;
    result

let apply_rule_at c env (rule : Rule.t) t : Term.t option =
  try_rule c env ~on_check:(fun () -> true) rule t

(* -- local environments while descending --------------------------------- *)

(* Structural equality with physical shortcuts: schemas are shared by the
   memo table, so the [==] fast path is the common case. *)
let schema_equal (s1 : Schema.t) (s2 : Schema.t) =
  s1 == s2
  || List.compare_lengths s1 s2 = 0
     && List.for_all2
          (fun (n1, t1) (n2, t2) -> String.equal n1 n2 && Vtype.equal t1 t2)
          s1 s2

let rvars_equal r1 r2 =
  r1 == r2
  || List.compare_lengths r1 r2 = 0
     && List.for_all2
          (fun (n1, s1) (n2, s2) -> String.equal n1 n2 && schema_equal s1 s2)
          r1 r2

let input_schemas_equal o1 o2 =
  match o1, o2 with
  | None, None -> true
  | Some l1, Some l2 ->
    l1 == l2 || (List.compare_lengths l1 l2 = 0 && List.for_all2 schema_equal l1 l2)
  | None, Some _ | Some _, None -> false

let env_equal e1 e2 =
  e1 == e2
  || input_schemas_equal e1.input_schemas e2.input_schemas
     && rvars_equal e1.rvars e2.rvars

(* Hashtable keyed on physical term identity.  [Hashtbl.hash] is
   structural but depth/width-bounded, so it is cheap, stable under the
   GC, and consistent with [==] (physically equal terms hash equally). *)
module Phystbl = Hashtbl.Make (struct
  type t = Term.t

  let equal = ( == )
  let hash = Hashtbl.hash
end)

type schema_memo = ((string * Schema.t) list * Schema.t option) list ref Phystbl.t

let schema_of_rel_plain c env rt =
  try Some (Schema.of_rel ~rvars:env.rvars c.schema_env (Lera_term.of_term rt))
  with Schema.Schema_error _ | Lera_term.Bridge_error _ -> None

(* [Schema.of_rel] re-derives the full operand schema on every visit of a
   qualification's parent; memoizing on the physical operand term turns
   the repeated derivations of an unchanged subtree into table lookups
   (normalize preserves sharing, so subtree identity survives rewrite
   steps).  The recursion-variable environment is part of the key. *)
let schema_of_rel_memo (memo : schema_memo) stats c env rt =
  let entries =
    match Phystbl.find_opt memo rt with
    | Some r -> r
    | None ->
      let r = ref [] in
      Phystbl.add memo rt r;
      r
  in
  match List.find_opt (fun (rv, _) -> rvars_equal rv env.rvars) !entries with
  | Some (_, res) ->
    stats.schema_hits <- stats.schema_hits + 1;
    res
  | None ->
    stats.schema_misses <- stats.schema_misses + 1;
    let res = schema_of_rel_plain c env rt in
    entries := (env.rvars, res) :: !entries;
    res

(* local environment refinement while descending: when entering the
   qualification or projection of a relational operator, record the
   operand schemas; when entering a fixpoint body, bind the recursion
   variable's schema.  [schema_of] abstracts over the memoized and plain
   derivations. *)
let child_envs_with ~schema_of env (t : Term.t) : local_env list =
  let with_inputs rels =
    let schemas = List.map (schema_of env) rels in
    if List.for_all Option.is_some schemas then
      { env with input_schemas = Some (List.map Option.get schemas) }
    else { env with input_schemas = None }
  in
  match t with
  | Term.App ("search", [ Term.Coll (Term.List, rels); _; _ ]) ->
    let qenv = with_inputs rels in
    [ env; qenv; qenv ]
  | Term.App ("filter", [ rel; _ ]) -> [ env; with_inputs [ rel ] ]
  | Term.App ("proj", [ rel; _ ]) -> [ env; with_inputs [ rel ] ]
  | Term.App ("join", [ r1; r2; _ ]) -> [ env; env; with_inputs [ r1; r2 ] ]
  | Term.App ("fix", [ Term.Cst (Value.Str n); _ ]) -> (
    match schema_of env t with
    | Some sch -> [ env; { env with rvars = (n, sch) :: env.rvars } ]
    | None -> [ env; env ])
  | Term.App (_, args) | Term.Coll (_, args) -> List.map (Fun.const env) args
  | Term.Var _ | Term.Cvar _ | Term.Cst _ -> []

(* -- block execution ------------------------------------------------------ *)

(* Per-block execution state of the indexed engine. *)
type exec = {
  ectx : ctx;
  stats : stats;
  bstats : block_stats;
  block : Rule.block;
  compiled : Rule.compiled;
  budget : int ref;
  memo : schema_memo;
  failed : local_env list ref Phystbl.t;
      (** subtrees proven redex-free for this block, with the local
          environments under which that was established *)
}

let charge_check ex () =
  if !(ex.budget) <= 0 then false
  else begin
    ex.stats.conditions_checked <- ex.stats.conditions_checked + 1;
    ex.bstats.conditions <- ex.bstats.conditions + 1;
    decr ex.budget;
    true
  end

let is_failed ex t env =
  match Phystbl.find_opt ex.failed t with
  | None -> false
  | Some envs -> List.exists (env_equal env) !envs

let mark_failed ex t env =
  match Phystbl.find_opt ex.failed t with
  | Some envs -> envs := env :: !envs
  | None -> Phystbl.add ex.failed t (ref [ env ])

let record ex rule redex replacement =
  ex.stats.trace <-
    {
      rule_name = rule.Rule.name;
      block_name = ex.block.Rule.block_name;
      redex;
      replacement;
    }
    :: ex.stats.trace;
  bump_rule ex.stats rule.Rule.name;
  ex.bstats.rewrites <- ex.bstats.rewrites + 1

(* One rewrite step of the indexed engine: scan top-down, leftmost; on
   success rebuild the path.  Equivalent to restarting a full scan from
   the root (same visit order, hence identical traces), except that
   subtrees recorded in [ex.failed] are skipped: they are physically the
   same terms under the same local environments as when a complete scan
   proved them redex-free, and nothing a rewrite elsewhere can change
   affects that verdict.  Rebuilt spine nodes are fresh allocations, so
   the ancestors of a redex are always re-examined — outermost priority
   is preserved. *)
let rec fast_at_node ex env t =
  if !(ex.budget) <= 0 then None
  else if is_failed ex t env then None
  else begin
    ex.stats.nodes_visited <- ex.stats.nodes_visited + 1;
    ex.bstats.nodes <- ex.bstats.nodes + 1;
    let cands = Rule.candidates ex.compiled t in
    let n_cands = List.length cands in
    ex.stats.index_hits <- ex.stats.index_hits + (Rule.rule_count ex.compiled - n_cands);
    ex.stats.index_misses <- ex.stats.index_misses + n_cands;
    match fast_try_rules ex env t cands with
    | Some t' -> Some t'
    | None ->
      let result = fast_into_children ex env t in
      (* only a completed scan proves redex-freedom: with the budget
         exhausted the subtree may contain untried matches *)
      if result = None && !(ex.budget) > 0 then mark_failed ex t env;
      result
  end

and fast_try_rules ex env t = function
  | [] -> None
  | rule :: rest ->
    if !(ex.budget) <= 0 then None
    else begin
      ex.stats.match_attempts <- ex.stats.match_attempts + 1;
      match
        attempt_rule ex.ectx env ~on_check:(charge_check ex)
          ~block_name:ex.block.Rule.block_name rule t
      with
      | Some t' ->
        record ex rule t t';
        Some t'
      | None -> fast_try_rules ex env t rest
    end

and fast_into_children ex env t =
  match t with
  | Term.Var _ | Term.Cvar _ | Term.Cst _ -> None
  | Term.App (_, args) | Term.Coll (_, args) ->
    let envs =
      child_envs_with
        ~schema_of:(fun env rt -> schema_of_rel_memo ex.memo ex.stats ex.ectx env rt)
        env t
    in
    let rec walk i = function
      | [] -> None
      | arg :: rest -> (
        let cenv = match List.nth_opt envs i with Some e -> e | None -> env in
        match fast_at_node ex cenv arg with
        | Some arg' ->
          let args' = List.mapi (fun j a -> if j = i then arg' else a) args in
          Some
            (match t with
            | Term.App (f, _) -> Term.App (f, args')
            | Term.Coll (k, _) -> Term.Coll (k, args')
            | _ -> assert false)
        | None -> walk (i + 1) rest)
    in
    walk 0 args

let run_block_exec ex t =
  let t0 = Unix.gettimeofday () in
  let rec loop t =
    if !(ex.budget) <= 0 then t
    else
      match fast_at_node ex top_env t with
      | Some t' -> loop (Lera_term.normalize t')
      | None -> t
  in
  let result = loop t in
  ex.bstats.time_s <- ex.bstats.time_s +. (Unix.gettimeofday () -. t0);
  result

(* [bstats] is this pass's cell; fold it into the name-summed view once
   the pass completes.  With a trace sink installed the pass becomes a
   span carrying its budget on entry and its work counters on exit. *)
let run_pass stats block_name ~limit ~bstats exec t =
  let result =
    if not (Obs.enabled ()) then exec t
    else begin
      let name = "block:" ^ block_name in
      Obs.span_begin ~cat:"rewrite"
        ~attrs:
          [
            ( "limit",
              match limit with
              | Some n -> Obs.Json.Int n
              | None -> Obs.Json.Str "inf" );
            ("pass", Obs.Json.Int (List.length stats.passes));
          ]
        name;
      Fun.protect
        ~finally:(fun () ->
          Obs.span_end ~cat:"rewrite"
            ~attrs:
              [
                ("nodes", Obs.Json.Int bstats.nodes);
                ("conditions", Obs.Json.Int bstats.conditions);
                ("rewrites", Obs.Json.Int bstats.rewrites);
              ]
            name)
        (fun () -> exec t)
    end
  in
  merge_pass stats block_name bstats;
  result

let run_block_with c stats memo (block : Rule.block) t =
  let bstats = new_pass stats block.Rule.block_name in
  let ex =
    {
      ectx = c;
      stats;
      bstats;
      block;
      compiled = Rule.compile block;
      budget = ref (match block.Rule.limit with Some n -> n | None -> max_int);
      memo;
      failed = Phystbl.create 256;
    }
  in
  run_pass stats block.Rule.block_name ~limit:block.Rule.limit ~bstats
    (run_block_exec ex) t

let run_block c ?stats (block : Rule.block) t =
  let stats = match stats with Some s -> s | None -> fresh_stats () in
  run_block_with c stats (Phystbl.create 256) block t

let run c ?stats (program : Rule.program) t =
  let stats = match stats with Some s -> s | None -> fresh_stats () in
  (* the schema memo is keyed on (physical term, rvars) and the context is
     fixed, so it stays valid across blocks and rounds *)
  let memo = Phystbl.create 256 in
  let round t =
    List.fold_left
      (fun acc block -> run_block_with c stats memo block acc)
      t program.Rule.blocks
  in
  let rec loop n t =
    if n <= 0 then t
    else
      let t' = round t in
      if Term.equal t' t then t' else loop (n - 1) t'
  in
  loop program.Rule.rounds t

(* -- reference engine ----------------------------------------------------- *)

(* The straightforward engine: restart the scan from the root after every
   rewrite, consult every rule of the block at every node, re-derive
   schemas on every visit.  Same rule semantics and budget accounting as
   the indexed engine — the golden-trace tests check that both produce
   identical results and traces; the benchmarks use the work counters to
   measure what indexing and incremental re-scan save. *)
let reference_step c block stats bstats budget t : Term.t option =
  let rec at_node env t =
    if !budget <= 0 then None
    else begin
      stats.nodes_visited <- stats.nodes_visited + 1;
      bstats.nodes <- bstats.nodes + 1;
      match try_rules env t block.Rule.rules with
      | Some t' -> Some t'
      | None -> into_children env t
    end
  and try_rules env t = function
    | [] -> None
    | rule :: rest ->
      if !budget <= 0 then None
      else begin
        stats.match_attempts <- stats.match_attempts + 1;
        let on_check () =
          if !budget <= 0 then false
          else begin
            stats.conditions_checked <- stats.conditions_checked + 1;
            bstats.conditions <- bstats.conditions + 1;
            decr budget;
            true
          end
        in
        match
          attempt_rule c env ~on_check ~block_name:block.Rule.block_name rule t
        with
        | Some t' ->
          stats.trace <-
            {
              rule_name = rule.Rule.name;
              block_name = block.Rule.block_name;
              redex = t;
              replacement = t';
            }
            :: stats.trace;
          bump_rule stats rule.Rule.name;
          bstats.rewrites <- bstats.rewrites + 1;
          Some t'
        | None -> try_rules env t rest
      end
  and into_children env t =
    match t with
    | Term.Var _ | Term.Cvar _ | Term.Cst _ -> None
    | Term.App (_, args) | Term.Coll (_, args) ->
      let envs =
        (* no memo: every derivation is counted as a miss, so the stats
           compare directly against the indexed engine's hit counters *)
        child_envs_with
          ~schema_of:(fun env rt ->
            stats.schema_misses <- stats.schema_misses + 1;
            schema_of_rel_plain c env rt)
          env t
      in
      let rec walk i = function
        | [] -> None
        | arg :: rest -> (
          let cenv = match List.nth_opt envs i with Some e -> e | None -> env in
          match at_node cenv arg with
          | Some arg' ->
            let args' = List.mapi (fun j a -> if j = i then arg' else a) args in
            Some
              (match t with
              | Term.App (f, _) -> Term.App (f, args')
              | Term.Coll (k, _) -> Term.Coll (k, args')
              | _ -> assert false)
          | None -> walk (i + 1) rest)
      in
      walk 0 args
  in
  at_node top_env t

let run_block_reference c ?stats (block : Rule.block) t =
  let stats = match stats with Some s -> s | None -> fresh_stats () in
  let bstats = new_pass stats block.Rule.block_name in
  let budget = ref (match block.Rule.limit with Some n -> n | None -> max_int) in
  let exec t =
    let t0 = Unix.gettimeofday () in
    let rec loop t =
      if !budget <= 0 then t
      else
        match reference_step c block stats bstats budget t with
        | Some t' -> loop (Lera_term.normalize t')
        | None -> t
    in
    let result = loop t in
    bstats.time_s <- bstats.time_s +. (Unix.gettimeofday () -. t0);
    result
  in
  run_pass stats block.Rule.block_name ~limit:block.Rule.limit ~bstats exec t

let run_reference c ?stats (program : Rule.program) t =
  let stats = match stats with Some s -> s | None -> fresh_stats () in
  let round t =
    List.fold_left
      (fun acc block -> run_block_reference c ~stats block acc)
      t program.Rule.blocks
  in
  let rec loop n t =
    if n <= 0 then t
    else
      let t' = round t in
      if Term.equal t' t then t' else loop (n - 1) t'
  in
  loop program.Rule.rounds t
