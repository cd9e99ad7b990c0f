module Value = Eds_value.Value
module Lera = Eds_lera.Lera
module Schema = Eds_lera.Schema
module Obs = Eds_obs.Obs
module Metrics = Eds_obs.Metrics

(* always-on work counters: every [run] batches its stats deltas into
   the registry on the way out (one fetch_and_add per field per query,
   nothing in the per-tuple loops) *)
let m_produced =
  Metrics.counter ~help:"Tuples produced by evaluator operators"
    "eds_eval_tuples_produced_total"

let m_read =
  Metrics.counter ~help:"Base relation tuples scanned" "eds_eval_tuples_read_total"

let m_combos =
  Metrics.counter ~help:"Operand combinations enumerated by filter/join/search"
    "eds_eval_combinations_total"

let m_probes =
  Metrics.counter ~help:"Hash-index lookups" "eds_eval_probes_total"

let m_builds =
  Metrics.counter ~help:"Tuples loaded into hash indexes" "eds_eval_builds_total"

let m_fix_iters =
  Metrics.counter ~help:"Fixpoint iterations" "eds_eval_fix_iterations_total"

let m_fix_hits =
  Metrics.counter ~help:"Closed-fixpoint memo hits" "eds_eval_fix_cache_hits_total"

let m_fix_misses =
  Metrics.counter ~help:"Closed fixpoints actually computed"
    "eds_eval_fix_cache_misses_total"

let m_columnar =
  Metrics.counter ~help:"Operator evaluations that took a columnar fast path"
    "eds_eval_columnar_ops_total"

type stats = {
  mutable combinations : int;
  mutable tuples_read : int;
  mutable tuples_produced : int;
  mutable fix_iterations : int;
  mutable probes : int;
  mutable builds : int;
  mutable fix_cache_hits : int;
  mutable fix_cache_misses : int;
  mutable columnar_ops : int;
      (** operator evaluations that ran vectorized; every other field is
          identical between the boxed and columnar paths by construction *)
}

let fresh_stats () =
  {
    combinations = 0;
    tuples_read = 0;
    tuples_produced = 0;
    fix_iterations = 0;
    probes = 0;
    builds = 0;
    fix_cache_hits = 0;
    fix_cache_misses = 0;
    columnar_ops = 0;
  }

let add_stats acc s =
  acc.combinations <- acc.combinations + s.combinations;
  acc.tuples_read <- acc.tuples_read + s.tuples_read;
  acc.tuples_produced <- acc.tuples_produced + s.tuples_produced;
  acc.fix_iterations <- acc.fix_iterations + s.fix_iterations;
  acc.probes <- acc.probes + s.probes;
  acc.builds <- acc.builds + s.builds;
  acc.fix_cache_hits <- acc.fix_cache_hits + s.fix_cache_hits;
  acc.fix_cache_misses <- acc.fix_cache_misses + s.fix_cache_misses;
  acc.columnar_ops <- acc.columnar_ops + s.columnar_ops

let copy_stats s = { s with combinations = s.combinations }

(* the work done since snapshot [s0] *)
let diff_stats s s0 =
  {
    combinations = s.combinations - s0.combinations;
    tuples_read = s.tuples_read - s0.tuples_read;
    tuples_produced = s.tuples_produced - s0.tuples_produced;
    fix_iterations = s.fix_iterations - s0.fix_iterations;
    probes = s.probes - s0.probes;
    builds = s.builds - s0.builds;
    fix_cache_hits = s.fix_cache_hits - s0.fix_cache_hits;
    fix_cache_misses = s.fix_cache_misses - s0.fix_cache_misses;
    columnar_ops = s.columnar_ops - s0.columnar_ops;
  }

let pp_stats ppf s =
  Fmt.pf ppf
    "combinations=%d read=%d produced=%d fix_iters=%d probes=%d builds=%d \
     fix_cache=%d/%d columnar=%d"
    s.combinations s.tuples_read s.tuples_produced s.fix_iterations s.probes
    s.builds s.fix_cache_hits
    (s.fix_cache_hits + s.fix_cache_misses)
    s.columnar_ops

type fix_mode = Naive | Seminaive

(* The physical evaluation layer (its own namespace: [Naive] would
   otherwise collide with the fix_mode constructor). *)
module Physical = struct
  type t =
    | Naive  (** cartesian enumeration + post-filter — the golden reference *)
    | Indexed  (** hash joins on extracted equi conjuncts, set-backed dedup *)

  let to_string = function Naive -> "naive" | Indexed -> "indexed"

  let of_string = function
    | "naive" -> Some Naive
    | "indexed" -> Some Indexed
    | _ -> None
end

exception Eval_error of string

let error fmt = Fmt.kstr (fun s -> raise (Eval_error s)) fmt

let is_false (q : Lera.scalar) =
  match q with
  | Lera.Cst (Eds_value.Value.Bool false) -> true
  | _ -> false

let is_true (q : Lera.scalar) =
  match q with
  | Lera.Cst (Eds_value.Value.Bool true) -> true
  | _ -> false

(* [Search] over one operand with a trivially-true predicate and the
   identity projection is the operand itself — the shape every
   [SELECT <all columns> FROM <one relation>] translates to, and in
   particular every full read of a materialized extent *)
let is_identity_proj ps arity =
  List.length ps = arity
  && List.for_all2
       (fun p j -> match p with Lera.Col (1, k) -> k = j | _ -> false)
       ps
       (List.init arity (fun j -> j + 1))

(* Replace the [i]-th occurrence (1-based, left-to-right) of recursion
   variable [n] — written either [Rvar n] or [Base n] — by the result of
   [f i].  Used by semi-naive differentiation. *)
let map_occurrences n f r =
  let counter = ref 0 in
  let rec go r =
    match r with
    | Lera.Rvar m when String.equal m n ->
      incr counter;
      f !counter
    | Lera.Base m when String.equal m n ->
      incr counter;
      f !counter
    | Lera.Base _ | Lera.Rvar _ -> r
    | Lera.Fix (m, body) -> if String.equal m n then r else Lera.Fix (m, go body)
    | Lera.Filter (a, q) -> Lera.Filter (go a, q)
    | Lera.Project (a, ps) -> Lera.Project (go a, ps)
    | Lera.Join (a, b, q) -> Lera.Join (go a, go b, q)
    | Lera.Union rs -> Lera.Union (List.map go rs)
    | Lera.Diff (a, b) -> Lera.Diff (go a, go b)
    | Lera.Inter (a, b) -> Lera.Inter (go a, go b)
    | Lera.Search (rs, q, ps) -> Lera.Search (List.map go rs, q, ps)
    | Lera.Nest (a, g, c) -> Lera.Nest (go a, g, c)
    | Lera.Unnest (a, i) -> Lera.Unnest (go a, i)
  in
  go r

let count_occurrences n r =
  let c = ref 0 in
  ignore
    (map_occurrences n
       (fun _ ->
         incr c;
         Lera.Rvar n)
       r);
  !c

(* does [body] mention name [n] as a Base or Rvar (unbound by a nested fix)? *)
let rec rvar_mentioned n (r : Lera.rel) =
  match r with
  | Lera.Base m | Lera.Rvar m -> String.equal m n
  | Lera.Fix (m, body) -> (not (String.equal m n)) && rvar_mentioned n body
  | Lera.Filter _ | Lera.Project _ | Lera.Join _ | Lera.Union _ | Lera.Diff _
  | Lera.Inter _ | Lera.Search _ | Lera.Nest _ | Lera.Unnest _ ->
    List.exists (rvar_mentioned n) (Lera.inputs r)

(* closed fixpoint subexpressions, keyed on the term's structural hash
   (Lera.hash) instead of a linear assoc scan: the magic fixpoint appears
   as an operand of several answer arms. *)
module Fix_cache = Hashtbl.Make (struct
  type t = Lera.rel

  let equal = Lera.equal
  let hash = Lera.hash
end)

(* Base/Rvar names a term reads from the database: everything not bound
   by an enclosing Fix.  For a closed fixpoint these are exactly the base
   relations its evaluation can touch. *)
let base_deps (r : Lera.rel) : string list =
  let rec go bound acc r =
    match r with
    | Lera.Base n | Lera.Rvar n -> if List.mem n bound then acc else n :: acc
    | Lera.Fix (n, body) -> go (n :: bound) acc body
    | Lera.Filter _ | Lera.Project _ | Lera.Join _ | Lera.Union _ | Lera.Diff _
    | Lera.Inter _ | Lera.Search _ | Lera.Nest _ | Lera.Unnest _ ->
      List.fold_left (go bound) acc (Lera.inputs r)
  in
  List.sort_uniq String.compare (go [] [] r)

(* A closed-fixpoint memo that survives across runs, with per-relation
   invalidation: each entry records the base relations the fixpoint read,
   by {e physical identity}.  The copy-on-write database replaces exactly
   the relation records a write touches, so an entry is stale iff one of
   its dependencies is no longer the same record — DML on unrelated
   relations leaves it valid, no explicit invalidation hooks needed.
   Thread-safe (the query server shares one across connections); a run
   given none memoizes into a fresh one of its own. *)
module Shared_fix_cache = struct
  type entry = {
    result : Relation.t;
    deps : (string * Relation.t option) list;
        (** dependency name → the relation record it resolved to when the
            fixpoint was computed ([None] = was absent) *)
  }

  type t = {
    tbl : entry Fix_cache.t;
    lock : Mutex.t;
    invalidations : int Atomic.t;
        (** bumped under [lock], read lock-free by the stats surfaces *)
  }

  let create () =
    { tbl = Fix_cache.create 8; lock = Mutex.create (); invalidations = Atomic.make 0 }

  let clear t = Mutex.protect t.lock (fun () -> Fix_cache.reset t.tbl)
  let size t = Mutex.protect t.lock (fun () -> Fix_cache.length t.tbl)
  let invalidations t = Atomic.get t.invalidations

  let deps_valid db deps =
    List.for_all
      (fun (n, ro) ->
        match (ro, Database.relation_opt db n) with
        | Some a, Some b -> a == b
        | None, None -> true
        | Some _, None | None, Some _ -> false)
      deps

  (* a hit must validate against the database the *current* run reads,
     so snapshot readers match entries from their own snapshot state *)
  let find t db r =
    Mutex.protect t.lock (fun () ->
        match Fix_cache.find_opt t.tbl r with
        | Some e ->
          if deps_valid db e.deps then Some e.result
          else begin
            Fix_cache.remove t.tbl r;
            Atomic.incr t.invalidations;
            None
          end
        | None -> None)

  let store t db r result =
    let deps =
      List.map (fun n -> (n, Database.relation_opt db n)) (base_deps r)
    in
    Mutex.protect t.lock (fun () -> Fix_cache.replace t.tbl r { result; deps })
end

(* -- EXPLAIN ANALYZE collection ------------------------------------------

   When an analysis is attached to the context, every operator
   evaluation records its inclusive wall time, output cardinality and
   stats deltas into an execution-tree node.  After the run the raw tree
   is collapsed: sibling nodes with the same operator label merge (so a
   fixpoint's per-iteration re-evaluations of the same arm fold into one
   line with a loop count, Postgres-style) and each node's work counters
   become {e exclusive} (total minus children), so summing any counter
   over the whole report reproduces the stats total exactly. *)

type node_report = {
  op : string;  (** {!op_label} of the operator *)
  mutable loops : int;  (** times this node was evaluated *)
  mutable rows : int;  (** output tuples, summed over loops *)
  mutable elapsed_s : float;  (** inclusive wall time, summed over loops *)
  mutable combinations : int;  (** exclusive of children *)
  mutable tuples_read : int;
  mutable probes : int;
  mutable builds : int;
  mutable columnar : bool;
      (** this node itself (exclusive of children) took a columnar fast
          path at least once — the [layout=] tag of EXPLAIN ANALYZE *)
  mutable join_order : int list;  (** first hash-join run's operand order *)
  mutable reused : int;  (** cached indexes its hash joins took *)
  mutable children : node_report list;  (** first-execution order *)
}

type raw_node = {
  rw_label : string;
  rw_rows : int;
  rw_t : float;
  rw_d : stats;  (** inclusive of the children *)
  rw_choice : Join_plan.choice option;
  rw_kids : raw_node list;
}

(* one open operator of an analyzed run *)
type frame = {
  mutable kids : raw_node list;  (** finished children, reversed *)
  mutable choice : Join_plan.choice option;
      (** the join executor's, when it ran for this operator *)
}

type analysis = {
  mutable an_stack : frame list;  (** the open operators, innermost first *)
  mutable an_roots : raw_node list;
}

type ctx = {
  db : Database.t;
  mode : fix_mode;
  physical : Physical.t;
  stats : stats;
  rvars : (string * Relation.t) list;
  fix_cache : Shared_fix_cache.t;
  analyze : analysis option;  (** [Some] only under {!run_analyzed} *)
  deadline : Cancel.t option;  (** the request's budget, if it has one *)
}

(* the cancellation probe of the hot loops: nothing without a deadline *)
let tick ctx = match ctx.deadline with None -> () | Some d -> Cancel.tick d

(* Cartesian enumeration of operand tuples, counting each complete
   combination.  Zero operands yield a single empty combination: a search
   with no inputs is a one-tuple constant relation (used by the magic
   seed of the Alexander transformation). *)
let cartesian ctx (rels : Relation.t list) (yield : Relation.tuple list -> unit) =
  let stats = ctx.stats in
  let rec go acc = function
    | [] ->
      tick ctx;
      stats.combinations <- stats.combinations + 1;
      yield (List.rev acc)
    | (r : Relation.t) :: rest ->
      List.iter (fun tup -> go (tup :: acc) rest) r.Relation.tuples
  in
  go [] rels

(* Whether to take the vectorized paths: the Indexed layer runs every
   equi-join through the columnar executor, and takes the columnar
   filter, projection and membership loops whenever the operator's
   predicate compiles and its flavors qualify, running the boxed loops
   otherwise.  {!Physical.Naive} always stays boxed: it is the
   paper-shape counter oracle. *)
let vectorized ctx =
  match ctx.physical with Physical.Indexed -> true | Physical.Naive -> false

(* Selection: one [combinations] per input tuple, [q] applied to the
   single-tuple binding. *)
let filter_tuples ctx q (ra : Relation.t) =
  let stats = ctx.stats in
  List.filter
    (fun tup ->
      tick ctx;
      stats.combinations <- stats.combinations + 1;
      Expr_eval.eval_bool ctx.db ~inputs:[ tup ] q)
    ra.Relation.tuples

(* Projection: a pure map, no counters. *)
let project_tuples ctx ps (ra : Relation.t) =
  List.map
    (fun tup -> List.map (fun p -> Expr_eval.eval ctx.db ~inputs:[ tup ] p) ps)
    ra.Relation.tuples

(* Vectorized selection: when the qualification compiles to a row
   predicate, filter by row number over the column arrays and rebuild
   the output as an order-preserving subset (no re-sort).  Counter
   parity with {!filter_tuples}: one [combinations] per input row.
   Falls back to the boxed path otherwise, and takes it for an empty
   input, where it costs nothing. *)
let columnar_filter ctx q (ra : Relation.t) =
  let boxed () = Relation.make ra.Relation.schema (filter_tuples ctx q ra) in
  if (not (vectorized ctx)) || Relation.is_empty ra then boxed ()
  else
    let tbl = Relation.columns ra in
    match Column.Pred.compile ~adts:(Database.adts ctx.db) [| tbl |] q with
    | Column.Pred.Opaque -> boxed ()
    | Column.Pred.Always ->
      (* constant-true qualification: every row qualifies, and the
         input is already in canonical form *)
      let stats = ctx.stats in
      stats.combinations <- stats.combinations + tbl.Column.nrows;
      stats.columnar_ops <- stats.columnar_ops + 1;
      ra
    | Column.Pred.Rows p ->
      let stats = ctx.stats in
      let rows = [| 0 |] in
      let out =
        Relation.filteri
          (fun i _ ->
            tick ctx;
            stats.combinations <- stats.combinations + 1;
            rows.(0) <- i;
            p rows)
          ra
      in
      stats.columnar_ops <- stats.columnar_ops + 1;
      out

(* Vectorized projection for pure column-pick lists ([Col (1, j)] only):
   materialize the picked cells straight off the column arrays.  Like
   {!project_tuples} this counts nothing; any non-column item (or an
   out-of-range pick, whose boxed evaluation raises) falls back, and an
   empty input takes the boxed path, where it costs nothing. *)
let columnar_project ctx ps schema (ra : Relation.t) =
  let boxed () = Relation.make schema (project_tuples ctx ps ra) in
  if (not (vectorized ctx)) || Relation.is_empty ra then boxed ()
  else
    let tbl = Relation.columns ra in
    let width = Array.length tbl.Column.cols in
    let pure_pick =
      List.for_all
        (function Lera.Col (1, j) -> j >= 1 && j <= width | _ -> false)
        ps
    in
    if not pure_pick then boxed ()
    else begin
      let js =
        Array.of_list
          (List.map (function Lera.Col (_, j) -> j - 1 | _ -> assert false) ps)
      in
      let out = ref [] in
      for row = tbl.Column.nrows - 1 downto 0 do
        out :=
          Array.to_list (Array.map (fun j -> Column.value_at tbl ~row ~col:j) js)
          :: !out
      done;
      ctx.stats.columnar_ops <- ctx.stats.columnar_ops + 1;
      Relation.make schema !out
    end

(* Vectorized whole-row membership, shared by Diff/Inter and the
   semi-naive freshness test: index [rb] on all of its columns, probe
   each row of [ra] allocation-free, keep the (non-)members as an
   order-preserving subset.  Requires flavor-identical shadows on both
   sides (within equal flavors, cell equality coincides with
   [Value.compare]-equality); [None] means "use the boxed path" — which
   also preserves the boxed arity-mismatch error, since differing
   arities never pass [flavors_equal].  Like the boxed set operations,
   counts nothing. *)
let columnar_members ctx ~keep_found (ra : Relation.t) (rb : Relation.t) =
  if (not (vectorized ctx)) || Relation.is_empty ra || Relation.is_empty rb then
    None
  else
    let ta = Relation.columns ra and tb = Relation.columns rb in
    if not (Column.flavors_equal ta tb) then None
    else begin
      let width = Array.length tb.Column.cols in
      let idx = Column.Index.build ~nrows:tb.Column.nrows tb.Column.cols in
      let key = ta.Column.cols in
      let rows = Array.make width 0 in
      let mem i =
        Array.fill rows 0 width i;
        Column.Index.first idx ~key ~rows >= 0
      in
      let out =
        Relation.filteri
          (fun i _ -> if keep_found then mem i else not (mem i))
          ra
      in
      ctx.stats.columnar_ops <- ctx.stats.columnar_ops + 1;
      Some out
    end

(* Collect [f combo] over the operand combinations satisfying
   qualification [q], counting one [combinations] per qualified
   candidate.  The naive layer enumerates the full cartesian product and
   tests [q] on each; the indexed layer hands a qualification with equi
   conjuncts to the hash-join executor, which enumerates only the equi
   matches and tests just the residual — both yield the same
   combination set. *)
let collect_joined ctx inputs q f =
  let stats = ctx.stats in
  let out = ref [] in
  let keep combo = out := f combo :: !out in
  let hash_join =
    match ctx.physical with
    | Physical.Naive -> None
    | Physical.Indexed ->
      let plan = Join_plan.analyze ~operands:(List.length inputs) q in
      if Join_plan.has_equis plan then Some plan else None
  in
  (match hash_join with
  | Some _ when List.exists Relation.is_empty inputs ->
    (* nothing to join: skip even the operands' column builds *)
    ()
  | Some plan ->
    let choice =
      Join_plan.execute ctx.db
        ~on_build:(fun () -> stats.builds <- stats.builds + 1)
        ~on_probe:(fun () -> stats.probes <- stats.probes + 1)
        ~on_combination:(fun () ->
          tick ctx;
          stats.combinations <- stats.combinations + 1)
        plan
        (Array.of_list (List.map Relation.columns inputs))
        keep
    in
    (* under an analysis, the operator's own frame is the innermost *)
    (match ctx.analyze with
    | Some { an_stack = frame :: _; _ } -> frame.choice <- Some choice
    | Some { an_stack = []; _ } | None -> ());
    stats.columnar_ops <- stats.columnar_ops + 1
  | None ->
    cartesian ctx inputs (fun combo ->
        if Expr_eval.eval_bool ctx.db ~inputs:combo q then keep combo));
  !out

(* trace-span label of one operator node *)
let op_label : Lera.rel -> string = function
  | Lera.Base n -> "base:" ^ n
  | Lera.Rvar n -> "rvar:" ^ n
  | Lera.Filter _ -> "filter"
  | Lera.Project _ -> "project"
  | Lera.Join _ -> "join"
  | Lera.Union _ -> "union"
  | Lera.Diff _ -> "diff"
  | Lera.Inter _ -> "inter"
  | Lera.Search _ -> "search"
  | Lera.Fix (n, _) -> "fix:" ^ n
  | Lera.Nest _ -> "nest"
  | Lera.Unnest _ -> "unnest"

(* batch one run's work into the always-on registry — recorded on every
   exit path so timed-out work still shows up *)
let record (d : stats) =
  Metrics.Counter.add m_combos d.combinations;
  Metrics.Counter.add m_read d.tuples_read;
  Metrics.Counter.add m_produced d.tuples_produced;
  Metrics.Counter.add m_probes d.probes;
  Metrics.Counter.add m_builds d.builds;
  Metrics.Counter.add m_fix_iters d.fix_iterations;
  Metrics.Counter.add m_fix_hits d.fix_cache_hits;
  Metrics.Counter.add m_fix_misses d.fix_cache_misses;
  Metrics.Counter.add m_columnar d.columnar_ops

let rec run_ctx ?(mode = Seminaive) ?(physical = Physical.Indexed) ?stats
    ?(rvars = []) ?fix_cache ?analyze ?deadline db (r : Lera.rel) : Relation.t =
  let stats = match stats with Some s -> s | None -> fresh_stats () in
  let fix_cache =
    match fix_cache with Some c -> c | None -> Shared_fix_cache.create ()
  in
  let s0 = copy_stats stats in
  Fun.protect
    ~finally:(fun () -> record (diff_stats stats s0))
    (fun () ->
      eval { db; mode; physical; stats; rvars; fix_cache; analyze; deadline } r)

(* With tracing off and no analysis attached this is one load and one
   branch around [eval_node]. *)
and eval ctx (r : Lera.rel) : Relation.t =
  match ctx.analyze with
  | None when not (Obs.enabled ()) -> eval_node ctx r
  | analyze -> eval_framed ctx analyze r

(* The per-operator frame.  Every operator evaluation becomes a span when
   tracing is on, carrying its output cardinality and the work it did —
   the intermediate-result sizes of a plan are then readable straight
   off the trace — and, under an analysis, an execution-tree node with
   its inclusive wall time; both read one stats delta. *)
and eval_framed ctx analyze (r : Lera.rel) : Relation.t =
  let label = op_label r in
  let name = "eval:" ^ label in
  let traced = Obs.enabled () in
  let t0 = Obs.now () in
  let s0 = copy_stats ctx.stats in
  let frame = { kids = []; choice = None } in
  Option.iter (fun a -> a.an_stack <- frame :: a.an_stack) analyze;
  if traced then Obs.span_begin ~cat:"eval" name;
  let finish result =
    let d = diff_stats ctx.stats s0 in
    let rows = match result with Some rel -> Relation.cardinality rel | None -> 0 in
    (if traced then
       let attrs =
         match result with
         | None -> []
         | Some _ ->
           [
             ("rows_out", Obs.Json.Int rows);
             ("combinations", Obs.Json.Int d.combinations);
             ("tuples_read", Obs.Json.Int d.tuples_read);
             ("probes", Obs.Json.Int d.probes);
             ("builds", Obs.Json.Int d.builds);
           ]
       in
       Obs.span_end ~cat:"eval" ~attrs name);
    match analyze with
    | None -> ()
    | Some a -> (
      (match a.an_stack with _ :: rest -> a.an_stack <- rest | [] -> ());
      let raw =
        {
          rw_label = label;
          rw_rows = rows;
          rw_t = Obs.now () -. t0;
          rw_d = d;
          rw_choice = frame.choice;
          rw_kids = List.rev frame.kids;
        }
      in
      match a.an_stack with
      | parent :: _ -> parent.kids <- raw :: parent.kids
      | [] -> a.an_roots <- raw :: a.an_roots)
  in
  match eval_node ctx r with
  | rel ->
    finish (Some rel);
    rel
  | exception e ->
    finish None;
    raise e

and eval_node ctx (r : Lera.rel) : Relation.t =
  let { db; stats; rvars; _ } = ctx in
  match r with
  | Lera.Base n -> (
    match List.assoc_opt n rvars with
    | Some rel -> rel
    | None -> (
      match Database.relation_opt db n with
      | Some rel ->
        stats.tuples_read <- stats.tuples_read + Relation.cardinality rel;
        rel
      | None -> error "unknown relation %s" n))
  | Lera.Rvar n -> (
    match List.assoc_opt n rvars with
    | Some rel -> rel
    | None -> error "unbound recursion variable %s" n)
  | Lera.Filter (_, q) when is_false q -> Relation.empty (rel_schema ctx r)
  | Lera.Filter (a, q) ->
    let ra = eval ctx a in
    produce stats (columnar_filter ctx q ra)
  | Lera.Project (a, ps) ->
    let ra = eval ctx a in
    let schema = rel_schema ctx r in
    produce stats (columnar_project ctx ps schema ra)
  | Lera.Join (_, _, q) when is_false q -> Relation.empty (rel_schema ctx r)
  | Lera.Join (a, b, q) ->
    let ra = eval ctx a and rb = eval ctx b in
    let schema = ra.Relation.schema @ rb.Relation.schema in
    let out =
      collect_joined ctx [ ra; rb ] q (fun combo ->
          match combo with [ ta; tb ] -> ta @ tb | _ -> assert false)
    in
    produce stats (Relation.make schema out)
  | Lera.Union rs -> (
    match List.map (eval ctx) rs with
    | [] -> error "empty union"
    | first :: rest -> produce stats (List.fold_left Relation.union first rest))
  | Lera.Diff (a, b) ->
    let ra = eval ctx a and rb = eval ctx b in
    let out =
      match columnar_members ctx ~keep_found:false ra rb with
      | Some d -> d
      | None -> Relation.diff ra rb
    in
    produce stats out
  | Lera.Inter (a, b) ->
    let ra = eval ctx a and rb = eval ctx b in
    let out =
      match columnar_members ctx ~keep_found:true ra rb with
      | Some d -> d
      | None -> Relation.inter ra rb
    in
    produce stats out
  | Lera.Search (_, q, _) when is_false q -> Relation.empty (rel_schema ctx r)
  | Lera.Search (rs, q, ps) -> (
    let inputs = List.map (eval ctx) rs in
    let schema = rel_schema ctx r in
    match inputs with
    | [ ra ] when is_true q && is_identity_proj ps (Schema.arity ra.Relation.schema) ->
      (* identity search: share the operand, retagged to the node's
         column names *)
      produce stats (Relation.with_schema schema ra)
    | _ ->
      let out =
        collect_joined ctx inputs q (fun combo ->
            List.map (fun p -> Expr_eval.eval db ~inputs:combo p) ps)
      in
      produce stats (Relation.make schema out))
  | Lera.Fix (n, body) ->
    (* memoize closed fixpoints whose base relations are not shadowed by
       an enclosing recursion variable *)
    let closed =
      Lera.free_rvars r = []
      && not
           (List.exists
              (fun (rv, _) -> rvar_mentioned rv body)
              ctx.rvars)
    in
    if not closed then produce stats (fixpoint ctx n body)
    else begin
      match Shared_fix_cache.find ctx.fix_cache db r with
      | Some cached ->
        stats.fix_cache_hits <- stats.fix_cache_hits + 1;
        if Obs.enabled () then
          Obs.counter "eval.fix_cache.hits" (float_of_int stats.fix_cache_hits);
        cached
      | None ->
        stats.fix_cache_misses <- stats.fix_cache_misses + 1;
        if Obs.enabled () then
          Obs.counter "eval.fix_cache.misses"
            (float_of_int stats.fix_cache_misses);
        let result = produce stats (fixpoint ctx n body) in
        Shared_fix_cache.store ctx.fix_cache db r result;
        result
    end
  | Lera.Nest (a, group, nested) ->
    let ra = eval ctx a in
    let schema = rel_schema ctx r in
    produce stats (Relation.make schema (nest_tuples ra group nested))
  | Lera.Unnest (a, i) ->
    let ra = eval ctx a in
    let schema = rel_schema ctx r in
    let explode tup =
      let arr = Array.of_list tup in
      if i < 1 || i > Array.length arr then
        error "unnest: column %d of a width-%d tuple" i (Array.length arr)
      else begin
        let v = arr.(i - 1) in
        if not (Value.is_collection v) then
          error "unnest: column %d holds %a" i Value.pp v
        else
          List.map
            (fun e ->
              let a' = Array.copy arr in
              a'.(i - 1) <- e;
              Array.to_list a')
            (Value.elements v)
      end
    in
    produce stats (Relation.make schema (List.concat_map explode ra.Relation.tuples))

and produce stats rel =
  stats.tuples_produced <- stats.tuples_produced + Relation.cardinality rel;
  rel

and rel_schema ctx r =
  let rvar_schemas = List.map (fun (n, rel) -> (n, rel.Relation.schema)) ctx.rvars in
  try Schema.of_rel ~rvars:rvar_schemas (Database.schema_env ctx.db) r
  with Schema.Schema_error msg -> error "schema: %s" msg

(* Hash-grouped, array-backed nest: one tuple→array conversion per input
   tuple (column picks are then O(1) instead of List.nth), groups keyed
   by the grouping columns in a tuple hashtable. *)
and nest_tuples (ra : Relation.t) group nested =
  let groups = Relation.Tuple_tbl.create 64 in
  List.iter
    (fun tup ->
      let arr = Array.of_list tup in
      let k = List.map (fun j -> arr.(j - 1)) group in
      let payload =
        match nested with
        | [ j ] -> arr.(j - 1)
        | js -> Value.Tuple (List.map (fun j -> (Fmt.str "a%d" j, arr.(j - 1))) js)
      in
      match Relation.Tuple_tbl.find_opt groups k with
      | Some items -> items := payload :: !items
      | None -> Relation.Tuple_tbl.replace groups k (ref [ payload ]))
    ra.Relation.tuples;
  Relation.Tuple_tbl.fold
    (fun k items acc -> (k @ [ Value.set !items ]) :: acc)
    groups []

and fixpoint ctx n body =
  let schema = rel_schema ctx (Lera.Fix (n, body)) in
  match ctx.mode with
  | Naive -> naive_fixpoint ctx n body schema
  | Seminaive -> seminaive_fixpoint ctx n body schema

and naive_fixpoint ctx n body schema =
  let rec iterate current =
    tick ctx;
    ctx.stats.fix_iterations <- ctx.stats.fix_iterations + 1;
    let next = eval { ctx with rvars = (n, current) :: ctx.rvars } body in
    if Relation.equal next current then current else iterate next
  in
  iterate (Relation.empty schema)

(* Differential evaluation: arms without the recursion variable seed the
   result; each cycle re-evaluates every recursive arm once per occurrence
   of the variable, substituting the delta for that occurrence and the
   accumulated relation for the others.  The accumulated [total] carries
   a hash-set view (Relation.index), so the freshness test per produced
   tuple is O(1); under the Indexed physical layer the per-arm delta
   substitution additionally goes through the hash-join machinery, so an
   iteration touches only tuples joinable with the delta. *)
and seminaive_fixpoint ctx n body schema =
  let arms = match body with Lera.Union rs -> rs | r -> [ r ] in
  let is_recursive arm = count_occurrences n arm > 0 in
  let base_arms, rec_arms = List.partition (fun a -> not (is_recursive a)) arms in
  let eval_with bindings arm = eval { ctx with rvars = bindings @ ctx.rvars } arm in
  let base =
    match base_arms with
    | [] -> Relation.empty schema
    | arms ->
      List.fold_left
        (fun acc arm -> Relation.union acc (eval_with [] arm))
        (Relation.empty schema) arms
  in
  let rec iterate total delta =
    if Relation.is_empty delta then total
    else begin
      tick ctx;
      ctx.stats.fix_iterations <- ctx.stats.fix_iterations + 1;
      if Obs.enabled () then
        Obs.instant ~cat:"eval"
          ~attrs:
            [
              ("delta", Obs.Json.Int (Relation.cardinality delta));
              ("total", Obs.Json.Int (Relation.cardinality total));
            ]
          ("fix-iteration:" ^ n);
      (* fold the per-occurrence variants into one candidate relation
         (union dedups exactly what the sort_uniq of [Relation.make]
         used to), then subtract [total] — columnar whole-row diff when
         both sides qualify, the hash-set diff otherwise; neither counts
         anything, and both produce the same set *)
      let candidates =
        List.fold_left
          (fun acc arm ->
            let occurrences = count_occurrences n arm in
            List.fold_left
              (fun acc which ->
                let variant =
                  map_occurrences n
                    (fun i -> if i = which then Lera.Rvar "__delta" else Lera.Rvar n)
                    arm
                in
                Relation.union acc
                  (eval_with [ (n, total); ("__delta", delta) ] variant))
              acc
              (List.init occurrences (fun i -> i + 1)))
          (Relation.empty schema) rec_arms
      in
      let delta' =
        match columnar_members ctx ~keep_found:false candidates total with
        | Some d -> d
        | None -> Relation.diff candidates total
      in
      iterate (Relation.union total delta') delta'
    end
  in
  if rec_arms = [] then base else iterate base base

let run ?mode ?physical ?stats ?rvars ?fix_cache ?deadline db r =
  run_ctx ?mode ?physical ?stats ?rvars ?fix_cache ?deadline db r

(* -- report collapse ------------------------------------------------------ *)

let rec merge_node (dst : node_report) (src : node_report) =
  dst.loops <- dst.loops + src.loops;
  dst.rows <- dst.rows + src.rows;
  dst.elapsed_s <- dst.elapsed_s +. src.elapsed_s;
  dst.combinations <- dst.combinations + src.combinations;
  dst.tuples_read <- dst.tuples_read + src.tuples_read;
  dst.probes <- dst.probes + src.probes;
  dst.builds <- dst.builds + src.builds;
  dst.columnar <- dst.columnar || src.columnar;
  if dst.join_order = [] then dst.join_order <- src.join_order;
  dst.reused <- dst.reused + src.reused;
  dst.children <- merge_children dst.children src.children

and merge_children dst src =
  List.fold_left
    (fun acc s ->
      match List.find_opt (fun d -> d.op = s.op) acc with
      | Some d ->
        merge_node d s;
        acc
      | None -> acc @ [ s ])
    dst src

let rec collapse (raws : raw_node list) : node_report list =
  List.fold_left
    (fun acc rw ->
      let node = node_of_raw rw in
      match List.find_opt (fun d -> d.op = node.op) acc with
      | Some d ->
        merge_node d node;
        acc
      | None -> acc @ [ node ])
    [] raws

and node_of_raw rw =
  let kids = fresh_stats () in
  List.iter (fun k -> add_stats kids k.rw_d) rw.rw_kids;
  let own = diff_stats rw.rw_d kids in
  {
    op = rw.rw_label;
    loops = 1;
    rows = rw.rw_rows;
    elapsed_s = rw.rw_t;
    combinations = max 0 own.combinations;
    tuples_read = max 0 own.tuples_read;
    probes = max 0 own.probes;
    builds = max 0 own.builds;
    columnar = own.columnar_ops > 0;
    join_order =
      (match rw.rw_choice with Some c -> c.Join_plan.order | None -> []);
    reused = (match rw.rw_choice with Some c -> c.Join_plan.reused | None -> 0);
    children = collapse rw.rw_kids;
  }

let run_analyzed ?mode ?physical ?stats ?rvars ?fix_cache ?deadline db r =
  let a = { an_stack = []; an_roots = [] } in
  let rel =
    run_ctx ?mode ?physical ?stats ?rvars ?fix_cache ~analyze:a ?deadline db r
  in
  let report =
    match collapse (List.rev a.an_roots) with
    | [ n ] -> n
    | ns ->
      (* a single top-level eval yields a single root; synthesize one
         defensively for the empty/multiple cases *)
      {
        op = "plan";
        loops = 1;
        rows = Relation.cardinality rel;
        elapsed_s = List.fold_left (fun t n -> t +. n.elapsed_s) 0. ns;
        combinations = 0;
        tuples_read = 0;
        probes = 0;
        builds = 0;
        columnar = false;
        join_order = [];
        reused = 0;
        children = ns;
      }
  in
  (rel, report)

let rec fold_report f acc n = List.fold_left (fold_report f) (f acc n) n.children

let pp_report ppf root =
  let rec go indent n =
    Fmt.pf ppf "%s%s  (rows=%d" (String.make indent ' ') n.op n.rows;
    if n.loops > 1 then Fmt.pf ppf " loops=%d" n.loops;
    Fmt.pf ppf " time=%.3fms" (n.elapsed_s *. 1000.);
    if n.combinations > 0 then Fmt.pf ppf " combos=%d" n.combinations;
    if n.probes > 0 then Fmt.pf ppf " probes=%d" n.probes;
    if n.builds > 0 then Fmt.pf ppf " builds=%d" n.builds;
    if n.tuples_read > 0 then Fmt.pf ppf " read=%d" n.tuples_read;
    if n.join_order <> [] then
      Fmt.pf ppf " order=%a reused=%d"
        Fmt.(list ~sep:(any ",") int) n.join_order n.reused;
    Fmt.pf ppf " layout=%s" (if n.columnar then "columnar" else "boxed");
    Fmt.pf ppf ")@\n";
    List.iter (go (indent + 2)) n.children
  in
  go 0 root
