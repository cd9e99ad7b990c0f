(* Equi-join extraction and hash-join execution for the indexed physical
   evaluator (Eval.Physical.Indexed).

   [analyze] splits the qualification of a Search/Join into equi-join
   conjuncts — [i.j = k.l] with i <> k, both operands in range — and a
   residual conjunction of everything else.  [execute] then enumerates
   exactly the operand combinations satisfying every equi conjunct:
   operands are taken greedily by cardinality (preferring ones connected
   to the already-bound set), each new operand is loaded into a hash
   index on its join columns (one [on_build] per tuple) and the
   accumulated partial combinations probe it (one [on_probe] per
   partial).  The caller applies the residual to the yielded
   combinations — which arrive in original operand order — so the naive
   cartesian enumerator and this path agree bit-for-bit on results. *)

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

let execute ~on_build ~on_probe p (rels : Relation.t array)
    (yield : Relation.tuple list -> unit) =
  let n = Array.length rels in
  if n = 0 then yield [] (* zero operands: the one empty combination *)
  else if Array.exists Relation.is_empty rels then ()
  else begin
    let cards = Array.map Relation.cardinality rels in
    let order = greedy_order p cards in
    let bound = Array.make n false in
    let combos = ref [] in
    List.iteri
      (fun step k ->
        if step = 0 then
          combos :=
            List.map
              (fun tup ->
                let c = Array.make n [] in
                c.(k) <- tup;
                c)
              rels.(k).Relation.tuples
        else begin
          let edges = edges_to_bound p bound k in
          match edges with
          | [] ->
            (* cartesian step: no equi edge reaches [k] yet *)
            combos :=
              List.concat_map
                (fun combo ->
                  List.map
                    (fun tup ->
                      let c = Array.copy combo in
                      c.(k) <- tup;
                      c)
                    rels.(k).Relation.tuples)
                !combos
          | _ -> (
            let build_cols = List.map snd edges in
            let key_of_tuple tup = List.map (fun j -> List.nth tup (j - 1)) build_cols in
            let probe_key combo =
              List.map (fun ((b, j), _) -> List.nth combo.(b) (j - 1)) edges
            in
            match rels.(k).Relation.tuples with
            | [ only ] ->
              (* single-tuple operand: comparing against it directly is the
                 same work as the eventual residual test, so no index is
                 built and neither counter fires — this also keeps total
                 probes within the naive combination count on degenerate
                 all-singleton joins *)
              let key = key_of_tuple only in
              combos :=
                List.filter_map
                  (fun combo ->
                    if Relation.compare_tuples (probe_key combo) key = 0 then begin
                      let c = Array.copy combo in
                      c.(k) <- only;
                      Some c
                    end
                    else None)
                  !combos
            | tuples ->
              let index = Relation.Tuple_tbl.create (max 16 cards.(k)) in
              List.iter
                (fun tup ->
                  on_build ();
                  let key = key_of_tuple tup in
                  let prev =
                    match Relation.Tuple_tbl.find_opt index key with
                    | Some ts -> ts
                    | None -> []
                  in
                  Relation.Tuple_tbl.replace index key (tup :: prev))
                tuples;
              combos :=
                List.concat_map
                  (fun combo ->
                    on_probe ();
                    match Relation.Tuple_tbl.find_opt index (probe_key combo) with
                    | None -> []
                    | Some matches ->
                      List.rev_map
                        (fun tup ->
                          let c = Array.copy combo in
                          c.(k) <- tup;
                          c)
                        matches)
                  !combos)
        end;
        bound.(k) <- true)
      order;
    List.iter (fun combo -> yield (Array.to_list combo)) !combos
  end

(* -- the columnar executor (Indexed with qualifying schemas) ---------------

   Same combination set and the same probe/build counter totals as
   [execute] (single-tuple operands compare directly with no counters,
   cartesian steps count nothing, probes fire once per partial reaching
   a hash step), but enumeration is pipelined — combinations are
   walked depth-first over one cursor array instead of being
   materialized after every step — and the inner loops never touch a
   boxed [Value.t]: operands are typed column arrays, probe keys hash
   and compare as packed ints ({!Column.Index}), and a match yields the
   per-operand *row numbers* so the caller materializes tuples only for
   combinations that survive its residual.

   Callers must check {!columnar_ok} first: every equi edge needs its
   two columns in range and of equal flavor, because the int fast path
   cannot see [Value.compare]'s Int/Real cross-equality. *)

let columnar_ok p (tables : Column.table array) =
  List.for_all
    (fun { left = li, lj; right = ri, rj } ->
      let ok (i, j) = j >= 1 && j <= Array.length tables.(i - 1).Column.cols in
      ok (li, lj)
      && ok (ri, rj)
      && Column.flavor tables.(li - 1).Column.cols.(lj - 1)
         = Column.flavor tables.(ri - 1).Column.cols.(rj - 1))
    p.equis

type cstep =
  | C_scan of int
  | C_single of {
      op : int;
      skey : Column.col array;  (** build key cells, all at row 0 *)
      pkey : Column.col array;
      pops : int array;  (** probe-side operand per edge *)
    }
  | C_probe of {
      op : int;
      index : Column.Index.t;
      pkey : Column.col array;
      pops : int array;
    }

let execute_columnar ~on_build ~on_probe p (tables : Column.table array)
    (yield : int array -> unit) =
  let n = Array.length tables in
  let cards = Array.map (fun (t : Column.table) -> t.Column.nrows) tables in
  let order = greedy_order p cards in
  let driver, rest = match order with d :: r -> (d, r) | [] -> assert false in
  let bound = Array.make n false in
  bound.(driver) <- true;
  let steps =
    List.map
      (fun k ->
        let edges = edges_to_bound p bound k in
        bound.(k) <- true;
        match edges with
        | [] -> C_scan k
        | edges ->
          let key_cols =
            Array.of_list (List.map (fun (_, j) -> j - 1) edges)
          in
          let pkey =
            Array.of_list
              (List.map
                 (fun ((b, j), _) -> tables.(b).Column.cols.(j - 1))
                 edges)
          in
          let pops = Array.of_list (List.map (fun ((b, _), _) -> b) edges) in
          if cards.(k) = 1 then
            C_single
              {
                op = k;
                skey = Array.map (fun c -> tables.(k).Column.cols.(c)) key_cols;
                pkey;
                pops;
              }
          else
            C_probe
              {
                op = k;
                index = Column.Index.build ~on_build tables.(k) ~key_cols;
                pkey;
                pops;
              })
      rest
  in
  let current = Array.make n 0 in
  (* per-step probe-row scratch, refilled before each probe and left
     untouched by deeper steps *)
  let scratch =
    Array.of_list
      (List.map
         (function
           | C_scan _ -> [||]
           | C_single { pkey; _ } | C_probe { pkey; _ } ->
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
    | [] -> yield current
    | C_scan k :: deeper ->
      for r = 0 to cards.(k) - 1 do
        current.(k) <- r;
        go (si + 1) deeper
      done
    | C_single { op; skey; pkey; pops } :: deeper ->
      if single_matches skey pkey pops then begin
        current.(op) <- 0;
        go (si + 1) deeper
      end
    | C_probe pr :: deeper ->
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
