(* Equi-join extraction and the hash-join executor of the indexed
   physical evaluator (Eval.Physical.Indexed).

   [analyze] splits the qualification of a Search/Join into equi-join
   conjuncts — [i.j = k.l] with i <> k, both operands in range — and a
   residual conjunction of everything else.  [execute] then enumerates
   exactly the operand combinations satisfying every equi conjunct:
   operands are taken greedily by cardinality (preferring ones connected
   to the already-bound set), each new operand is loaded into a hash
   index on its join columns (one [on_build] per row) and the partial
   combinations probe it (one [on_probe] per partial).  Each
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
   (Int/Real). *)

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
  if not (Array.exists (fun (t : Column.table) -> t.Column.nrows = 0) tables)
  then begin
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
              if Column.flavor ck = Column.flavor cb then (ck, cb)
              else
                ( Column.values ~nrows:cards.(k) ck,
                  Column.values ~nrows:cards.(b) cb ))
            edges
        in
        let skey = Array.of_list (List.map fst pairs) in
        let pkey = Array.of_list (List.map snd pairs) in
        let pops = Array.of_list (List.map (fun ((b, _), _) -> b) edges) in
        if cards.(k) = 1 then Single { op = k; skey; pkey; pops }
        else
          Probe
            {
              op = k;
              index = Column.Index.build ~on_build ~nrows:cards.(k) skey;
              pkey;
              pops;
            }
    in
    match greedy_order p cards with
    | [] ->
      (* zero operands: the one empty combination *)
      on_combination ();
      emit ()
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
      done
  end
