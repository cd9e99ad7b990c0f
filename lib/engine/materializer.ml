module Lera = Eds_lera.Lera
module Schema = Eds_lera.Schema
module Cost = Eds_lera.Cost
module Obs = Eds_obs.Obs
module Metrics = Eds_obs.Metrics

(* always-on maintenance counters, shared by every registry in the
   process (the bench and the daemon read them back through METRICS) *)
let m_runs =
  Metrics.counter ~help:"Incremental view maintenance steps"
    "eds_view_maintenance_runs_total"

let m_fallbacks =
  Metrics.counter
    ~help:"Maintenance steps that fell back to a full recompute"
    "eds_view_maintenance_fallback_total"

let m_refreshes =
  Metrics.counter ~help:"Explicit REFRESH / .refresh recomputations"
    "eds_view_refresh_total"

let m_delta =
  Metrics.counter ~help:"Tuples added to or removed from materialized extents"
    "eds_view_maintenance_delta_tuples_total"

type view = {
  name : string;
  plan : Lera.rel;
      (** the view body over base relations (and previously declared
          materialized views, referenced as [Base]) *)
  schema : Schema.t;
  deps : string list;  (** relations the plan reads, transitively flat *)
  monotone : bool;  (** no Diff/Nest anywhere: delta rules are sound *)
}

type stats = {
  mutable maintenance_runs : int;
  mutable fallback_recomputes : int;
  mutable refreshes : int;
  mutable delta_tuples : int;
  mutable last_refresh : float;  (** Unix time of last full (re)compute *)
}

type t = {
  mutable views : view list;  (** registration order = topological order *)
  stats : stats;
}

let create () =
  {
    views = [];
    stats =
      {
        maintenance_runs = 0;
        fallback_recomputes = 0;
        refreshes = 0;
        delta_tuples = 0;
        last_refresh = 0.;
      };
  }

let stats t = t.stats
let views t = t.views

let find t name =
  let wanted = String.lowercase_ascii name in
  List.find_opt (fun v -> String.lowercase_ascii v.name = wanted) t.views

let is_view t name = Option.is_some (find t name)

let rec monotone (r : Lera.rel) =
  match r with
  | Lera.Diff _ | Lera.Nest _ -> false
  | Lera.Base _ | Lera.Rvar _ -> true
  | Lera.Fix (_, body) -> monotone body
  | Lera.Filter _ | Lera.Project _ | Lera.Join _ | Lera.Union _ | Lera.Inter _
  | Lera.Search _ | Lera.Unnest _ ->
    List.for_all monotone (Lera.inputs r)

let register t ~name ~plan ~schema =
  let deps =
    List.filter (fun d -> d <> name) (Eval.base_deps plan)
  in
  let v = { name; plan; schema; deps; monotone = monotone plan } in
  t.views <- List.filter (fun w -> w.name <> name) t.views @ [ v ]

let unregister t name = t.views <- List.filter (fun v -> v.name <> name) t.views

(* -- evaluation helpers -------------------------------------------------- *)

(* the reserved recursion-variable name carrying a delta through a
   per-occurrence variant; never visible to user plans *)
let delta_name = "__mv_delta"

let eval_with ~physical ~stats ~deadline ~rvars db rel =
  Eval.run ~physical ?stats ?deadline ~rvars db rel

(* per-occurrence delta variants of [rel] w.r.t. name [d]: variant [i]
   replaces the [i]-th occurrence of [d] by the delta binding and leaves
   every other occurrence reading its current binding *)
let variants d rel =
  List.init (Eval.count_occurrences d rel) (fun i ->
      Eval.map_occurrences d
        (fun j -> if j = i + 1 then Lera.Rvar delta_name else Lera.Base d)
        rel)

(* top-level union arms: delta propagation works arm by arm, so an arm
   with no occurrence of the changed relation is never evaluated at all
   (its value at unchanged bindings is already inside the extent) *)
let top_arms = function Lera.Union rs -> rs | r -> [ r ]

(* union of [eval] over the per-occurrence variants of every changed
   dependency with a non-empty delta *)
let delta_candidates ~eval ~schema changed rel =
  List.fold_left
    (fun acc (d, delta) ->
      if Relation.is_empty delta then acc
      else
        List.fold_left
          (fun acc variant -> Relation.union acc (eval delta variant))
          acc (variants d rel))
    (Relation.empty schema) changed

(* a nested (non-top-level) Fix whose body mentions one of [names] makes
   per-occurrence substitution unsound — delta tuples would have to
   re-drive the inner fixpoint as a whole *)
let nested_fix_mentions plan names =
  let mentions sub =
    let deps = Eval.base_deps sub in
    List.exists (fun n -> List.mem n deps) names
  in
  let rec go ~top r =
    match r with
    | Lera.Fix (_, body) ->
      if (not top) && mentions r then true else go ~top:false body
    | Lera.Base _ | Lera.Rvar _ -> false
    | Lera.Filter _ | Lera.Project _ | Lera.Join _ | Lera.Union _
    | Lera.Diff _ | Lera.Inter _ | Lera.Search _ | Lera.Nest _
    | Lera.Unnest _ ->
      List.exists (go ~top:false) (Lera.inputs r)
  in
  go ~top:true plan

(* -- cost policy --------------------------------------------------------- *)

(* Estimated combinations for one maintenance step: each per-arm variant
   with the delta occurrence spelled as a [Base] of known (delta)
   cardinality, the view's recursion variable as a [Base] of extent
   cardinality, costed by the same model {!Session.estimate} uses for
   the recompute side.  Costing is per top-level union arm — exactly the
   granularity the evaluation uses — so an arm untouched by the delta
   contributes nothing, instead of charging the full join it would cost
   if it were re-evaluated (which it never is). *)
let maintenance_cost db ~extent_card changed rel =
  let fix_names =
    let rec go acc = function
      | Lera.Fix (n, body) -> go (n :: acc) body
      | r -> List.fold_left go acc (Lera.inputs r)
    in
    go [] rel
  in
  let card name =
    if name = delta_name then None (* bound per call below *)
    else if List.mem name fix_names then Some extent_card
    else Option.map Relation.cardinality (Database.relation_opt db name)
  in
  let env = Database.schema_env db in
  let ground r =
    (* spell every free recursion variable as a Base so the estimator can
       attach a cardinality to it *)
    List.fold_left
      (fun r n -> Eval.map_occurrences n (fun _ -> Lera.Base n) r)
      r
      (fix_names @ Eval.base_deps rel)
  in
  List.fold_left
    (fun acc (d, (delta : Relation.t)) ->
      if Relation.is_empty delta then acc
      else
        let card name =
          if name = delta_name then Some (Relation.cardinality delta)
          else card name
        in
        List.fold_left
          (fun acc arm ->
            List.fold_left
              (fun acc variant ->
                let variant =
                  Eval.map_occurrences delta_name
                    (fun _ -> Lera.Base delta_name)
                    (ground variant)
                in
                acc
                +. (Cost.estimate ~relation_cardinality:card env variant)
                     .Cost.cost)
              acc (variants d arm))
          acc (top_arms rel))
    0. changed

(* -- full recompute ------------------------------------------------------ *)

let recompute ~physical ?stats ?deadline db (v : view) =
  Obs.span ~cat:"materialize" ("recompute:" ^ v.name) (fun () ->
      Eval.run ~physical ?stats ?deadline db v.plan)

let refresh t ~physical ?stats ?deadline db name =
  match find t name with
  | None -> None
  | Some v ->
    let extent = recompute ~physical ?stats ?deadline db v in
    Database.add_relation db v.name extent;
    t.stats.refreshes <- t.stats.refreshes + 1;
    t.stats.last_refresh <- Unix.gettimeofday ();
    Metrics.Counter.incr m_refreshes;
    Some extent

(* initial extent at CREATE MATERIALIZED VIEW time *)
let initialize t ~physical ?stats ?deadline db name =
  match find t name with
  | None -> invalid_arg ("Materializer.initialize: unknown view " ^ name)
  | Some v ->
    let extent = recompute ~physical ?stats ?deadline db v in
    Database.add_relation db v.name extent;
    t.stats.last_refresh <- Unix.gettimeofday ();
    extent

(* -- incremental maintenance -------------------------------------------- *)

(* One view's new extent given the accumulated change set.

   [scratch] already holds the *new* value of every changed relation
   (base change applied, upstream extents maintained); [old_bindings]
   shadow them back to their old values for the over-deletion phase.

   Insertions propagate by per-occurrence delta substitution
   (semi-naive); deletions by delete-and-rederive: an over-deletion
   fixpoint collects every extent tuple with a derivation through a
   deleted tuple, survivors keep their independent support, and a
   rederivation pass (consequences of the survivors plus the delta
   insertions, iterated semi-naively) restores anything over-deleted
   that still has support.  Non-monotone plans (Diff/Nest), changes
   reaching a nested fixpoint, and steps costed above the recompute
   estimate all fall back to a full recompute. *)
let maintain_view t ~physical ?stats ?deadline ~recompute_cost scratch ~changed
    ~old_bindings (v : view) (old_extent : Relation.t) : Relation.t =
  let changed_here =
    List.filter (fun (d, _, _) -> List.mem d v.deps) changed
  in
  let plus = List.map (fun (d, p, _) -> (d, p)) changed_here in
  let minus = List.map (fun (d, _, m) -> (d, m)) changed_here in
  let any_minus = List.exists (fun (_, m) -> not (Relation.is_empty m)) minus in
  let any_plus = List.exists (fun (_, p) -> not (Relation.is_empty p)) plus in
  let fallback () =
    t.stats.fallback_recomputes <- t.stats.fallback_recomputes + 1;
    Metrics.Counter.incr m_fallbacks;
    recompute ~physical ?stats ?deadline scratch v
  in
  if not (any_plus || any_minus) then old_extent
  else if
    (not v.monotone)
    || nested_fix_mentions v.plan (List.map (fun (d, _, _) -> d) changed_here)
  then fallback ()
  else begin
    let schema = v.schema in
    let eval_new extra rel =
      eval_with ~physical ~stats ~deadline ~rvars:extra scratch rel
    in
    let eval_old extra rel =
      eval_with ~physical ~stats ~deadline
        ~rvars:(extra @ old_bindings)
        scratch rel
    in
    match v.plan with
    | Lera.Fix (n, body) ->
      let arms = match body with Lera.Union rs -> rs | r -> [ r ] in
      let rec_arms =
        List.filter (fun a -> Eval.count_occurrences n a > 0) arms
      in
      let base_arms =
        List.filter (fun a -> Eval.count_occurrences n a = 0) arms
      in
      (* cost gate: maintenance estimated against recompute *)
      let est_changed =
        List.map
          (fun (d, p, m) -> (d, if Relation.is_empty m then p else Relation.union p m))
          changed_here
      in
      if
        maintenance_cost scratch
          ~extent_card:(Relation.cardinality old_extent)
          est_changed body
        > recompute_cost v.plan
      then fallback ()
      else begin
        (* continue the semi-naive iteration from (total, delta) over the
           new database *)
        let rec iterate total delta =
          if Relation.is_empty delta then total
          else
            let candidates =
              List.fold_left
                (fun acc arm ->
                  Relation.union acc
                    (delta_candidates
                       ~eval:(fun d variant ->
                         eval_new [ (delta_name, d); (n, total) ] variant)
                       ~schema
                       [ (n, delta) ]
                       arm))
                (Relation.empty schema) rec_arms
            in
            let fresh = Relation.diff candidates total in
            iterate (Relation.union total fresh) fresh
        in
        let survivors =
          if not any_minus then old_extent
          else begin
            (* over-deletion fixpoint, evaluated in the old state *)
            let immediate =
              List.fold_left
                (fun acc arm ->
                  Relation.union acc
                    (delta_candidates
                       ~eval:(fun d variant ->
                         eval_old [ (delta_name, d); (n, old_extent) ] variant)
                       ~schema minus arm))
                (Relation.empty schema) arms
            in
            let rec overdelete deleted frontier =
              if Relation.is_empty frontier then deleted
              else
                let next =
                  List.fold_left
                    (fun acc arm ->
                      Relation.union acc
                        (delta_candidates
                           ~eval:(fun d variant ->
                             eval_old
                               [ (delta_name, d); (n, old_extent) ]
                               variant)
                           ~schema
                           [ (n, frontier) ]
                           arm))
                    (Relation.empty schema) rec_arms
                in
                let fresh =
                  Relation.diff (Relation.inter next old_extent) deleted
                in
                overdelete (Relation.union deleted fresh) fresh
            in
            let deleted =
              overdelete
                (Relation.inter immediate old_extent)
                (Relation.inter immediate old_extent)
            in
            Relation.diff old_extent deleted
          end
        in
        (* seed of the rederivation + insertion pass, over the new state.
           Insert-only steps skip the full base-arm evaluation: every
           base-arm tuple not involving an inserted dependency tuple is
           already in the extent, and combinations involving one are
           produced by the per-occurrence delta variants below. *)
        let base_new =
          if not any_minus then Relation.empty schema
          else
            List.fold_left
              (fun acc arm -> Relation.union acc (eval_new [] arm))
              (Relation.empty schema) base_arms
        in
        let rederived =
          if not any_minus then Relation.empty schema
          else
            (* consequences of the survivors: anything they still derive *)
            List.fold_left
              (fun acc arm ->
                Relation.union acc (eval_new [ (n, survivors) ] arm))
              (Relation.empty schema) rec_arms
        in
        let inserted =
          if not any_plus then Relation.empty schema
          else
            List.fold_left
              (fun acc arm ->
                Relation.union acc
                  (delta_candidates
                     ~eval:(fun d variant ->
                       eval_new [ (delta_name, d); (n, survivors) ] variant)
                     ~schema plus arm))
              (Relation.empty schema) arms
        in
        let seed =
          Relation.diff
            (Relation.union (Relation.union base_new rederived) inserted)
            survivors
        in
        iterate (Relation.union survivors seed) seed
      end
    | plan ->
      (* fix-free w.r.t. the change (nested fixpoints, if any, do not
         mention it): deltas substitute directly *)
      if
        maintenance_cost scratch
          ~extent_card:(Relation.cardinality old_extent)
          (List.map
             (fun (d, p, m) ->
               (d, if Relation.is_empty m then p else Relation.union p m))
             changed_here)
          plan
        > recompute_cost plan
      then fallback ()
      else begin
        let per_arm ~eval changed =
          List.fold_left
            (fun acc arm ->
              Relation.union acc (delta_candidates ~eval ~schema changed arm))
            (Relation.empty schema) (top_arms plan)
        in
        let after_deletes =
          if not any_minus then old_extent
          else begin
            let overdeleted =
              Relation.inter
                (per_arm
                   ~eval:(fun d variant ->
                     eval_old [ (delta_name, d) ] variant)
                   minus)
                old_extent
            in
            if Relation.is_empty overdeleted then old_extent
            else
              (* a tuple in the over-deletion set may still have support
                 from surviving combinations; rederive the candidates
                 against the new state *)
              let rederived =
                Relation.inter
                  (eval_with ~physical ~stats ~deadline ~rvars:[] scratch plan)
                  overdeleted
              in
              Relation.union (Relation.diff old_extent overdeleted) rederived
          end
        in
        if not any_plus then after_deletes
        else
          Relation.union after_deletes
            (per_arm
               ~eval:(fun d variant -> eval_new [ (delta_name, d) ] variant)
               plus)
      end
  end

(* -- the DML entry point ------------------------------------------------- *)

let apply t ~physical ?stats ?deadline ?recompute_cost db ~table ~before ~after :
    (string * Relation.t) list =
  let plus = Relation.diff after before in
  let minus = Relation.diff before after in
  let base_update = [ (table, after) ] in
  let dependents = List.exists (fun v -> List.mem table v.deps) t.views in
  if (Relation.is_empty plus && Relation.is_empty minus) || not dependents then
    base_update
  else begin
    let recompute_cost =
      match recompute_cost with
      | Some f -> f
      | None ->
        fun rel ->
          let card name =
            Option.map Relation.cardinality (Database.relation_opt db name)
          in
          (Cost.estimate ~relation_cardinality:card (Database.schema_env db) rel)
            .Cost.cost
    in
    (* scratch state: the live database is untouched until the caller
       publishes every update at once *)
    let scratch = Database.snapshot db in
    Database.add_relation scratch table after;
    let changed = ref [ (table, plus, minus) ] in
    let old_bindings = ref [ (table, before) ] in
    let updates = ref base_update in
    List.iter
      (fun v ->
        if List.exists (fun (d, _, _) -> List.mem d v.deps) !changed then begin
          match Database.relation_opt scratch v.name with
          | None -> () (* extent missing: left to a later refresh *)
          | Some old_extent ->
            let new_extent =
              Obs.span ~cat:"materialize" ("maintain:" ^ v.name) (fun () ->
                  maintain_view t ~physical ?stats ?deadline ~recompute_cost
                    scratch ~changed:!changed ~old_bindings:!old_bindings v
                    old_extent)
            in
            t.stats.maintenance_runs <- t.stats.maintenance_runs + 1;
            Metrics.Counter.incr m_runs;
            if not (Relation.equal new_extent old_extent) then begin
              let vplus = Relation.diff new_extent old_extent in
              let vminus = Relation.diff old_extent new_extent in
              let moved =
                Relation.cardinality vplus + Relation.cardinality vminus
              in
              t.stats.delta_tuples <- t.stats.delta_tuples + moved;
              Metrics.Counter.add m_delta moved;
              Database.add_relation scratch v.name new_extent;
              changed := (v.name, vplus, vminus) :: !changed;
              old_bindings := (v.name, old_extent) :: !old_bindings;
              updates := (v.name, new_extent) :: !updates
            end
        end)
      t.views;
    List.rev !updates
  end
