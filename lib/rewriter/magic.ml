module Value = Eds_value.Value
module Lera = Eds_lera.Lera
module Schema = Eds_lera.Schema

(* does this expression mention the recursion variable [n]? *)
let rec mentions n (r : Lera.rel) =
  match r with
  | Lera.Base m | Lera.Rvar m -> String.equal m n
  | Lera.Fix (m, body) -> (not (String.equal m n)) && mentions n body
  | Lera.Filter _ | Lera.Project _ | Lera.Join _ | Lera.Union _ | Lera.Diff _
  | Lera.Inter _ | Lera.Search _ | Lera.Nest _ | Lera.Unnest _ ->
    List.exists (mentions n) (Lera.inputs r)

let is_rvar n (r : Lera.rel) =
  match r with
  | Lera.Base m | Lera.Rvar m -> String.equal m n
  | _ -> false

let arms_of = function Lera.Union rs -> rs | r -> [ r ]

(* -- adornment ---------------------------------------------------------- *)

(* A bound is a constant or a template parameter: magic seeding needs a
   value fixed for the whole execution, not a known one, so a template
   adorns exactly like each of its bindings. *)
let adornment qual ~slot ~arity =
  let bound_of_conjunct c =
    match c with
    | Lera.Call ("=", [ Lera.Col (i, j); ((Lera.Cst _ | Lera.Param _) as k) ])
    | Lera.Call ("=", [ ((Lera.Cst _ | Lera.Param _) as k); Lera.Col (i, j) ])
      when i = slot && j <= arity ->
      Some (j, k)
    | _ -> None
  in
  Lera.conjuncts qual
  |> List.filter_map bound_of_conjunct
  |> List.sort_uniq (fun (a, _) (b, _) -> Int.compare a b)

(* -- linearization of the Figure-5 composition arm ---------------------- *)

let linearize_tc (r : Lera.rel) : Lera.rel option =
  match r with
  | Lera.Fix (n, body) -> (
    let arms = arms_of body in
    let base_arms, rec_arms = List.partition (fun a -> not (mentions n a)) arms in
    match base_arms, rec_arms with
    | _ :: _, [ Lera.Search ([ a; b ], q, proj) ]
      when is_rvar n a && is_rvar n b
           && Lera.equal_scalar q (Lera.eq (Lera.col 1 2) (Lera.col 2 1))
           && (match proj with
              | [ Lera.Col (1, 1); Lera.Col (2, 2) ] -> true
              | _ -> false) ->
      let base =
        match base_arms with [ one ] -> one | several -> Lera.Union several
      in
      let linear_arm = Lera.Search ([ base; Lera.Rvar n ], q, proj) in
      Some (Lera.Fix (n, Lera.Union (base_arms @ [ linear_arm ])))
    | _ -> None)
  | _ -> None

(* -- the transformation -------------------------------------------------- *)

(* remap a scalar whose columns live in the original input numbering onto
   the magic-rule numbering (magic at 1, kept inputs as given) *)
let remap_cols mapping (s : Lera.scalar) : Lera.scalar option =
  let ok = ref true in
  let rec go s =
    match s with
    | Lera.Cst _ | Lera.Param _ -> s
    | Lera.Col (i, j) -> (
      match List.assoc_opt i mapping with
      | Some i' -> Lera.Col (i', j)
      | None ->
        ok := false;
        s)
    | Lera.Call (f, args) -> Lera.Call (f, List.map go args)
  in
  let s' = go s in
  if !ok then Some s' else None

let scalar_inputs s = List.sort_uniq Int.compare (List.map fst (Lera.scalar_cols s))

type rec_arm = {
  inputs : Lera.rel list;
  qual : Lera.scalar;
  proj : Lera.scalar list;
  rpos : int;  (** position (1-based) of the recursion variable *)
}

let analyse_arm n (arm : Lera.rel) : rec_arm option =
  match arm with
  | Lera.Search (inputs, qual, proj) -> (
    let rec_positions =
      List.filteri (fun _ r -> is_rvar n r) inputs |> List.length
    in
    if rec_positions <> 1 then None
    else if List.exists (fun r -> (not (is_rvar n r)) && mentions n r) inputs then None
    else
      match List.find_index (is_rvar n) inputs with
      | Some i -> Some { inputs; qual; proj; rpos = i + 1 }
      | None -> None)
  | _ -> None

(* One magic rule for a linear recursive arm: compute which columns of the
   recursive call are derivable from the head's bound columns, the
   equality conjuncts, and the EDB operands.  Only the operands actually
   used by those definitions enter the magic rule's body. *)
let magic_arm magic_name (bound : (int * Lera.scalar) list) (arm : rec_arm) :
    Lera.rel option =
  let r = arm.rpos in
  (* definitions of the recursive call's columns (input 0 is a placeholder
     for the magic operand) and the conjuncts linking EDB operands to the
     magic attributes *)
  let defs : (int * Lera.scalar) list ref = ref [] in
  let links = ref [] in
  List.iteri
    (fun b_idx (j, _) ->
      let magic_col = Lera.Col (0, b_idx + 1) in
      match List.nth_opt arm.proj (j - 1) with
      | Some (Lera.Col (i, jj)) when i = r ->
        if not (List.mem_assoc jj !defs) then defs := (jj, magic_col) :: !defs
      | Some e ->
        if not (List.mem r (scalar_inputs e)) then
          links := Lera.eq e magic_col :: !links
      | None -> ())
    bound;
  let conjuncts = Lera.conjuncts arm.qual in
  let add_def j other =
    if
      (not (List.mem_assoc j !defs))
      && not (List.mem r (scalar_inputs other))
    then defs := (j, other) :: !defs
  in
  List.iter
    (fun c ->
      match c with
      | Lera.Call ("=", [ Lera.Col (i, j); other ]) when i = r -> add_def j other
      | Lera.Call ("=", [ other; Lera.Col (i, j) ]) when i = r -> add_def j other
      | _ -> ())
    conjuncts;
  (* the magic projection needs a definition for every bound column *)
  let proj_defs = List.map (fun (j, _) -> List.assoc_opt j !defs) bound in
  if List.exists Option.is_none proj_defs then None
  else begin
    let proj_defs = List.map Option.get proj_defs in
    (* operands required: those referenced by the chosen definitions and
       by the linking conjuncts (0, the magic placeholder, excluded) *)
    let needed =
      List.concat_map scalar_inputs (proj_defs @ !links)
      |> List.filter (fun i -> i <> 0 && i <> r)
      |> List.sort_uniq Int.compare
    in
    (* keep original conjuncts fully contained in the needed operands *)
    let kept =
      List.filter
        (fun c ->
          let ins = scalar_inputs c in
          ins <> [] && List.for_all (fun i -> List.mem i needed) ins)
        conjuncts
    in
    let mapping = (0, 1) :: List.mapi (fun idx i -> (i, idx + 2)) needed in
    let remap s = remap_cols mapping s in
    let all_some xs = List.for_all Option.is_some xs in
    let proj' = List.map remap proj_defs in
    let kept' = List.map remap kept in
    let links' = List.map remap !links in
    if not (all_some proj' && all_some kept' && all_some links') then None
    else
      let inputs' =
        Lera.Rvar magic_name
        :: List.map (fun i -> List.nth arm.inputs (i - 1)) needed
      in
      Some
        (Lera.Search
           ( inputs',
             Lera.conj (List.map Option.get (kept' @ links')),
             List.map Option.get proj' ))
  end

let transform env ~rvars (fix : Lera.rel) ~bound : Lera.rel option =
  match fix, bound with
  | _, [] -> None
  | Lera.Fix (n, body), _ -> (
    let schema =
      try Schema.of_rel ~rvars env fix with Schema.Schema_error _ -> []
    in
    let arity = List.length schema in
    if arity = 0 then None
    else begin
      let arms = arms_of body in
      let base_arms, rec_arm_terms =
        List.partition (fun a -> not (mentions n a)) arms
      in
      let rec_arms = List.map (analyse_arm n) rec_arm_terms in
      if base_arms = [] || rec_arms = [] || List.exists Option.is_none rec_arms then
        None
      else begin
        let rec_arms = List.map Option.get rec_arms in
        let magic_name = n ^ "_m" in
        let seed =
          Lera.Search ([], Lera.tru, List.map snd bound)
        in
        let magic_rule_arms = List.map (magic_arm magic_name bound) rec_arms in
        if List.exists Option.is_none magic_rule_arms then None
        else begin
          let magic_fix =
            Lera.Fix
              (magic_name, Lera.Union (seed :: List.map Option.get magic_rule_arms))
          in
          let answer_name = n ^ "_magic" in
          (* wrap a bare base-relation arm into search form *)
          let as_search (arm : Lera.rel) =
            match arm with
            | Lera.Search (inputs, q, proj) -> Some (inputs, q, proj)
            | Lera.Base _ -> (
              match Schema.of_rel ~rvars env arm with
              | sch ->
                let width = List.length sch in
                Some
                  ( [ arm ],
                    Lera.tru,
                    List.init width (fun j -> Lera.Col (1, j + 1)) )
              | exception Schema.Schema_error _ -> None)
            | _ -> None
          in
          let guard_arm (arm : Lera.rel) =
            match as_search arm with
            | None -> None
            | Some (inputs, q, proj) ->
              let inputs' =
                List.map
                  (fun r -> if is_rvar n r then Lera.Rvar answer_name else r)
                  inputs
              in
              let magic_pos = List.length inputs' + 1 in
              let guards =
                List.mapi
                  (fun b_idx (j, _) ->
                    match List.nth_opt proj (j - 1) with
                    | Some e -> Some (Lera.eq e (Lera.Col (magic_pos, b_idx + 1)))
                    | None -> None)
                  bound
              in
              if List.exists Option.is_none guards then None
              else
                Some
                  (Lera.Search
                     ( inputs' @ [ magic_fix ],
                       Lera.conj (q :: List.map Option.get guards),
                       proj ))
          in
          let guarded = List.map guard_arm arms in
          if List.exists Option.is_none guarded then None
          else Some (Lera.Fix (answer_name, Lera.Union (List.map Option.get guarded)))
        end
      end
    end)
  | _ -> None
