(* Equi-join extraction and the hash-join executor of the indexed
   physical evaluator (Eval.Physical.Indexed).

   [analyze] splits the qualification of a Search/Join into equi-join
   conjuncts — [i.j = k.l] with i <> k, both operands in range — and a
   residual conjunction of everything else.  [execute] then enumerates
   exactly the operand combinations satisfying every equi conjunct:
   operands are bound one at a time ([order]), each new operand is
   probed through a hash index on its join columns — taken from the
   operand table's cache, or built there (one [on_build] per row) — and
   the partial combinations probe it (one [on_probe] per partial).  Each
   combination is tested against the residual, and the survivors are
   materialized in original operand order, so the naive cartesian
   enumerator and this path agree bit-for-bit on results. *)

module Lera = Eds_lera.Lera

type equi = {
  left : int * int;  (** (operand, column), 1-based, the lower operand *)
  right : int * int;  (** the higher operand *)
}

type t = {
  operands : int;
  equis : equi list;
  residual : Lera.scalar;
}

let analyze ~operands q =
  let is_equi = function
    | Lera.Call ("=", [ Lera.Col (i, j); Lera.Col (k, l) ])
      when i <> k && i >= 1 && i <= operands && k >= 1 && k <= operands ->
      Some (if i < k then { left = (i, j); right = (k, l) } else { left = (k, l); right = (i, j) })
    | _ -> None
  in
  let equis, residuals =
    List.fold_left
      (fun (es, rs) c ->
        match is_equi c with
        | Some e -> (e :: es, rs)
        | None -> (es, c :: rs))
      ([], [])
      (Lera.conjuncts q)
  in
  { operands; equis = List.rev equis; residual = Lera.conj (List.rev residuals) }

let residual p = p.residual
let equi_count p = List.length p.equis
let has_equis p = p.equis <> []

(* edges between operand [k] (0-based here) and the bound set: for each,
   the bound-side (operand, column) supplying the probe key and the
   column of [k] indexed by the build *)
let edges_to_bound p bound k =
  List.filter_map
    (fun { left = li, lj; right = ri, rj } ->
      if li - 1 = k && bound.(ri - 1) then Some ((ri - 1, rj), lj)
      else if ri - 1 = k && bound.(li - 1) then Some ((li - 1, lj), rj)
      else None)
    p.equis

let connected p bound k =
  List.exists
    (fun { left = li, _; right = ri, _ } ->
      (li - 1 = k && bound.(ri - 1)) || (ri - 1 = k && bound.(li - 1)))
    p.equis

(* greedy operand order: smallest relation first, then repeatedly the
   smallest operand having an equi edge into the bound set (falling back
   to the smallest unbound one — a cartesian step — when the join graph
   is disconnected) *)
let greedy_order p (cards : int array) =
  let n = Array.length cards in
  let bound = Array.make n false in
  let pick pred =
    let best = ref (-1) in
    for k = n - 1 downto 0 do
      if (not bound.(k)) && pred k && (!best < 0 || cards.(k) <= cards.(!best)) then
        best := k
    done;
    !best
  in
  let order = ref [] in
  for _ = 1 to n do
    let k =
      match pick (fun k -> connected p bound k) with
      | -1 -> pick (fun _ -> true)
      | k -> k
    in
    bound.(k) <- true;
    order := k :: !order
  done;
  List.rev !order

(* the 0-based build-key columns of an operand joining the bound set
   along [edges] (see [edges_to_bound]) *)
let build_keys edges = List.map (fun (_, jk) -> jk - 1) edges

(* Fan-out order, for three or more operands.  Distinct-key counts come
   only from indexes already cached on the operand tables, so it costs
   no stats pass and no extra build; with none cached on any equi edge
   it is the greedy cardinality order.  Otherwise it starts from the
   equi edge with the smallest estimated output |a|·|b| / max(ndv)
   over the ndv it knows — |a|·|b| on an edge with none, so an edge to
   a small operand (a filtered one has a fresh table, never cached)
   still competes with the edges whose counts happen to be cached —
   driving from the side whose partner's column has a cached index
   (then the smaller side), and then repeatedly binds
   the connected operand with the smallest estimated fan-out card/ndv
   on its build key — the partials it multiplies the enumeration by. *)
let fanout_order p (tables : Column.table array) (cards : int array) =
  let n = Array.length cards in
  (* 0 when no index on [keys] is cached *)
  let ndv k keys =
    match Column.cached tables.(k) keys with
    | Some idx -> Column.Index.distinct idx
    | None -> 0
  in
  (* the start, ranked by (estimate, partner's column not cached,
     driver card, driver, partner), lexicographically *)
  let est = ref infinity and cold = ref true and driver = ref (-1) and other = ref (-1) in
  let consider e d o c =
    let better =
      !driver < 0 || e < !est
      || (e = !est
         && ((!cold && not c)
            || (c = !cold
               && (cards.(d) < cards.(!driver)
                  || (cards.(d) = cards.(!driver) && (d < !driver || (d = !driver && o < !other)))))))
    in
    if better then begin
      est := e;
      cold := c;
      driver := d;
      other := o
    end
  in
  let known = ref false in
  List.iter
    (fun { left = a, ca; right = b, cb } ->
      let a = a - 1 and b = b - 1 in
      let na = ndv a [ ca - 1 ] and nb = ndv b [ cb - 1 ] in
      if na > 0 || nb > 0 then known := true;
      let e = float_of_int cards.(a) *. float_of_int cards.(b) /. float_of_int (max 1 (max na nb)) in
      consider e a b (nb = 0);
      consider e b a (na = 0))
    p.equis;
  if not !known then greedy_order p cards
  else begin
    let bound = Array.make n false in
    bound.(!driver) <- true;
    bound.(!other) <- true;
    let order = ref [ !other; !driver ] in
    for step = 3 to n do
      let best = ref (-1) and best_fan = ref infinity in
      for k = n - 1 downto 0 do
        if not bound.(k) then
          if step = n then best := k (* the last operand: no choice left *)
          else
            match edges_to_bound p bound k with
            | [] -> ()
            | edges ->
              let fan =
                float_of_int cards.(k) /. float_of_int (max 1 (ndv k (build_keys edges)))
              in
              if fan <= !best_fan then begin
                best := k;
                best_fan := fan
              end
      done;
      (* a disconnected join graph: a cartesian step over the smallest *)
      if !best < 0 then
        for k = n - 1 downto 0 do
          if (not bound.(k)) && (!best < 0 || cards.(k) <= cards.(!best)) then best := k
        done;
      bound.(!best) <- true;
      order := !best :: !order
    done;
    List.rev !order
  end

(* -- the executor ------------------------------------------------------------

   Enumeration is pipelined — combinations are walked depth-first over
   one cursor array instead of being materialized after every step —
   and the inner loops never touch a boxed [Value.t] on typed keys:
   operands are column arrays, probe keys hash and compare as packed
   ints ({!Column.Index}), and a combination becomes boxed tuples only
   once it reaches the residual test (compiled to a row predicate when
   it can be, {!Expr_eval.eval_bool} on the materialized tuples when
   not).  Counters: single-row operands compare directly with no
   counter (the same work as the eventual residual test, which keeps
   total probes within the naive combination count on all-singleton
   joins), cartesian steps count nothing, probes fire once per partial
   reaching a hash step.  An equi edge whose two columns differ in
   flavor compares through [Values] views of both, because the typed
   fast path cannot see [Value.compare]'s cross-constructor equalities
   (Int/Real); such a key is built afresh for each run, while a key on
   the table's own columns lives in the table's index cache. *)

type choice = { order : int list; reused : int }

let no_choice = { order = []; reused = 0 }

type step =
  | Scan of int
  | Single of {
      op : int;
      skey : Column.col array;  (** build key cells, all at row 0 *)
      pkey : Column.col array;
      pops : int array;  (** probe-side operand per edge *)
    }
  | Probe of {
      op : int;
      index : Column.Index.t;
      pkey : Column.col array;
      pops : int array;
    }

let execute db ~on_build ~on_probe ~on_combination p
    (tables : Column.table array) (yield : Relation.tuple list -> unit) =
  (* an empty operand: no combination, and nothing built or probed *)
  if Array.exists (fun (t : Column.table) -> t.Column.nrows = 0) tables then no_choice
  else begin
    let n = Array.length tables in
    let cards = Array.map (fun (t : Column.table) -> t.Column.nrows) tables in
    let current = Array.make n 0 in
    let materialize () =
      List.init n (fun k -> Column.tuple_at tables.(k) current.(k))
    in
    let residual = p.residual in
    let emit =
      match Column.Pred.compile ~adts:(Database.adts db) tables residual with
      | Column.Pred.Always -> fun () -> yield (materialize ())
      | Column.Pred.Rows test -> fun () -> if test current then yield (materialize ())
      | Column.Pred.Opaque ->
        fun () ->
          let combo = materialize () in
          if Expr_eval.eval_bool db ~inputs:combo residual then yield combo
    in
    let bound = Array.make n false in
    let reused = ref 0 in
    let step k =
      let edges = edges_to_bound p bound k in
      bound.(k) <- true;
      match edges with
      | [] -> Scan k
      | edges ->
        (* one (build cell, probe cell) column pair per edge *)
        let pairs =
          List.map
            (fun ((b, jb), jk) ->
              let ck = tables.(k).Column.cols.(jk - 1)
              and cb = tables.(b).Column.cols.(jb - 1) in
              if Column.flavor ck = Column.flavor cb then (ck, cb, true)
              else
                ( Column.values ~nrows:cards.(k) ck,
                  Column.values ~nrows:cards.(b) cb,
                  false ))
            edges
        in
        let skey () = Array.of_list (List.map (fun (ck, _, _) -> ck) pairs) in
        let pkey = Array.of_list (List.map (fun (_, cb, _) -> cb) pairs) in
        let pops = Array.of_list (List.map (fun ((b, _), _) -> b) edges) in
        if cards.(k) = 1 then Single { op = k; skey = skey (); pkey; pops }
        else
          let index =
            if List.for_all (fun (_, _, own) -> own) pairs then begin
              let index, hit = Column.index ~on_build tables.(k) (build_keys edges) in
              if hit then incr reused;
              index
            end
            else Column.Index.build ~on_build ~nrows:cards.(k) (skey ())
          in
          Probe { op = k; index; pkey; pops }
    in
    let order = if n < 3 then greedy_order p cards else fanout_order p tables cards in
    match order with
    | [] ->
      (* zero operands: the one empty combination *)
      on_combination ();
      emit ();
      no_choice
    | driver :: rest ->
      bound.(driver) <- true;
      let steps = List.map step rest in
      (* per-step probe-row scratch, refilled before each probe and left
         untouched by deeper steps *)
      let scratch =
        Array.of_list
          (List.map
             (function
               | Scan _ -> [||]
               | Single { pkey; _ } | Probe { pkey; _ } ->
                 Array.make (Array.length pkey) 0)
             steps)
      in
      let single_matches skey pkey pops =
        let ok = ref true in
        let e = ref 0 in
        let ne = Array.length skey in
        while !ok && !e < ne do
          if not (Column.cell_equal skey.(!e) 0 pkey.(!e) current.(pops.(!e)))
          then ok := false;
          incr e
        done;
        !ok
      in
      let rec go si = function
        | [] ->
          on_combination ();
          emit ()
        | Scan k :: deeper ->
          for r = 0 to cards.(k) - 1 do
            current.(k) <- r;
            go (si + 1) deeper
          done
        | Single { op; skey; pkey; pops } :: deeper ->
          if single_matches skey pkey pops then begin
            current.(op) <- 0;
            go (si + 1) deeper
          end
        | Probe pr :: deeper ->
          on_probe ();
          let rows = scratch.(si) in
          for e = 0 to Array.length rows - 1 do
            rows.(e) <- current.(pr.pops.(e))
          done;
          let r = ref (Column.Index.first pr.index ~key:pr.pkey ~rows) in
          while !r >= 0 do
            current.(pr.op) <- !r;
            go (si + 1) deeper;
            r := Column.Index.next pr.index ~key:pr.pkey ~rows !r
          done
      in
      for i = 0 to cards.(driver) - 1 do
        current.(driver) <- i;
        go 0 steps
      done;
      { order = List.map succ order; reused = !reused }
  end
