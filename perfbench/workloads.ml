(* The three traffic mixes of the edsd serving benchmark: the schema and
   data each one loads over the wire, its seeded per-connection request
   streams, and the oracle that gives every request its expected reply.

   Bulk data is declared as materialized views over tiny seeded digit
   tables.  The wire has no bulk load, and a row-at-a-time INSERT
   re-sorts its table, so loading 20,000 rows that way is quadratic.
   Reads see a materialized extent exactly like a stored base table. *)

module Session = Eds.Session
module Relation = Session.Relation
module Value = Session.Value
module Planner = Eds_server.Planner
module Loadtest = Eds_server.Loadtest

type kind = Read | Write

type op = { text : string; kind : kind; expect : string Lazy.t }
(** One request and the payload of its [ok] reply.  A connection's
    expectations may replay statements on its oracle session, so they
    are forced in stream order. *)

type t = {
  name : string;
  conns : int;
  durable : bool;  (** [edsd --db] with an fsync on every commit *)
  warmup : int;  (** requests per connection before the measured window *)
  traced : int;  (** requests of the in-process traced replay *)
  setup : string list;  (** schema and data, one statement per request *)
  oracle : unit -> int -> unit -> op;
      (** build the oracle state, then one generator per connection *)
}

let render result =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Eds.Repl.print_result ppf result;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let local_session statements =
  let s = Session.create () in
  List.iter (fun stmt -> ignore (Session.exec_string s stmt)) statements;
  s

let rng seed salt = Random.State.make [| seed; salt |]

(* a uniform permutation, or with [~cyclic] a uniform single cycle
   (Sattolo's algorithm) *)
let shuffle ?(cyclic = false) st a =
  let a = Array.copy a in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (if cyclic then i else i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done;
  a

(* -- digit tables ------------------------------------------------------- *)

(* DIG maps a digit to a seeded character, PERM is a seeded cyclic
   permutation of the digits, SLOT names the five cast slots of a film
   and QUAD is the digit modulo 4.  Every larger relation is a cross
   product of these, so a seed relabels the data but keeps its shape:
   relation sizes, join fan-outs and reachable sets are the same for
   every seed. *)
type digits = { chr : int -> string; perm : int -> int }

let digits seed =
  let st = rng seed 0 in
  let chars = shuffle st (Array.init 10 Fun.id) in
  let perm = shuffle ~cyclic:true st (Array.init 10 Fun.id) in
  { chr = (fun d -> string_of_int chars.(d)); perm = (fun d -> perm.(d)) }

let slot_chr j = String.make 1 (Char.chr (Char.code 'a' + j))

let digit_tables d =
  let rows table n f =
    List.init n (fun i -> Printf.sprintf "INSERT INTO %s VALUES (%d, %s)" table i (f i))
  in
  [ "TABLE DIG (D : INT, S : CHAR)" ]
  @ rows "DIG" 10 (fun i -> Printf.sprintf "'%s'" (d.chr i))
  @ [ "TABLE PERM (D : INT, P : INT)" ]
  @ rows "PERM" 10 (fun i -> string_of_int (d.perm i))
  @ [ "TABLE QUAD (D : INT, M : INT)" ]
  @ rows "QUAD" 10 (fun i -> string_of_int (i mod 4))
  @ [ "TABLE SLOT (J : INT, C : CHAR)" ]
  @ rows "SLOT" 5 (fun j -> Printf.sprintf "'%s'" (slot_chr j))

let num4 = "D1.D * 1000 + D2.D * 100 + D3.D * 10 + D4.D"
let dig4 = "DIG D1, DIG D2, DIG D3, DIG D4"

(* Fig-8 at size: 4,000 films, five CHAR actors per film (20,000
   appearances), each actor cast in four films *)
let film_tables =
  [
    Printf.sprintf
      "CREATE MATERIALIZED VIEW FILM (Numf, Title) AS SELECT %s, CONCAT('F', \
       CONCAT(D1.S, CONCAT(D2.S, CONCAT(D3.S, D4.S)))) FROM %s WHERE D1.D < 4"
      num4 dig4;
    Printf.sprintf
      "CREATE MATERIALIZED VIEW APPEARS_IN (Numf, Actor) AS SELECT %s, \
       CONCAT('A', CONCAT(L.C, CONCAT(D2.S, CONCAT(D3.S, D4.S)))) FROM %s, SLOT L \
       WHERE D1.D < 4"
      num4 dig4;
  ]

let digits_of d ds = String.concat "" (List.map d.chr ds)
let film_title d n = "F" ^ digits_of d [ n / 1000; n / 100 mod 10; n / 10 mod 10; n mod 10 ]

(* actor of cast slot [slot] in film [n]; the thousands digit does not
   enter, so the actor plays in the films n mod 1000 + k·1000 *)
let actor d ~slot n = "A" ^ slot_chr slot ^ digits_of d [ n / 100 mod 10; n / 10 mod 10; n mod 10 ]

let reach_view name edges =
  Printf.sprintf
    "CREATE VIEW %s (Src, Dst) AS ( SELECT Src, Dst FROM %s UNION SELECT E1.Src, \
     E2.Dst FROM %s E1, %s E2 WHERE E1.Dst = E2.Src )"
    name edges name name

(* -- lookup_distinct ---------------------------------------------------- *)

(* A request shape: its text for drawn literals, and the bulk query its
   reply is cut from — the bulk rows whose first column is [key lits]
   and whose second exceeds the last literal, projected to the columns
   from [from] on.  Evaluating each bulk query once makes the oracle for
   millions of distinct texts cheap, and checks the server's per-literal
   plans against plans that never saw the literal. *)
type shape = {
  weight : int;
  draw : Random.State.t -> int array;
  text : int array -> string;
  bulk : string;
  key : int array -> Value.t;
  from : int;
}

let lookup_shapes d =
  let int st n = Random.State.int st n in
  let first l = Value.Int l.(0) in
  (* the two shapes over the large relations evaluate for longer than
     they plan, so they come at half the rate of the others *)
  [
    {
      weight = 1;
      draw = (fun st -> [| int st 2000; int st 10000 |]);
      text = (fun l -> Printf.sprintf "SELECT V FROM KV WHERE K = %d AND V > %d" l.(0) l.(1));
      bulk = "SELECT K, V FROM KV";
      key = first;
      from = 1;
    };
    {
      weight = 1;
      draw = (fun st -> [| int st 5; int st 1000; int st 4000 |]);
      text =
        (fun l ->
          Printf.sprintf
            "SELECT Title FROM FILM, APPEARS_IN WHERE FILM.Numf = APPEARS_IN.Numf AND \
             APPEARS_IN.Actor = '%s' AND FILM.Numf > %d"
            (actor d ~slot:l.(0) l.(1))
            l.(2));
      bulk =
        "SELECT APPEARS_IN.Actor, FILM.Numf, FILM.Title FROM FILM, APPEARS_IN WHERE \
         FILM.Numf = APPEARS_IN.Numf";
      key = (fun l -> Value.Str (actor d ~slot:l.(0) l.(1)));
      from = 2;
    };
    {
      weight = 2;
      draw = (fun st -> [| int st 2000; int st 10000 |]);
      text =
        (fun l -> Printf.sprintf "SELECT V, Title FROM KVF WHERE K = %d AND V > %d" l.(0) l.(1));
      bulk = "SELECT K, V, Title FROM KVF";
      key = first;
      from = 1;
    };
    {
      weight = 2;
      draw = (fun st -> [| int st 1000; int st 100 |]);
      text = (fun l -> Printf.sprintf "SELECT A, C FROM V8 WHERE B = %d AND A > %d" l.(0) l.(1));
      bulk = "SELECT B, A, C FROM V8";
      key = first;
      from = 1;
    };
    {
      weight = 2;
      (* the bound falls inside the source's ten-node cluster *)
      draw =
        (fun st ->
          let src = int st 1000 in
          [| src; (src / 10 * 10) + int st 10 |]);
      text =
        (fun l ->
          Printf.sprintf "SELECT Dst FROM REACH WHERE Src = %d AND Dst > %d" l.(0) l.(1));
      bulk = "SELECT Src, Dst FROM REACH";
      key = first;
      from = 1;
    };
  ]

let lookup_setup d =
  digit_tables d @ film_tables
  @ [
      Printf.sprintf
        "CREATE MATERIALIZED VIEW KV (K, V) AS SELECT %s, P.P * 1000 + D3.D * 100 + \
         D2.D * 10 + D1.D FROM %s, PERM P WHERE D1.D < 2 AND P.D = D4.D"
        num4 dig4;
      "CREATE VIEW KVF (K, V, Title) AS SELECT KV.K, KV.V, FILM.Title FROM KV, FILM \
       WHERE KV.K = FILM.Numf";
      "CREATE MATERIALIZED VIEW BASE (A, B, C) AS SELECT D1.D * 10 + D2.D, D3.D * 100 \
       + D2.D * 10 + D1.D, P.P FROM DIG D1, DIG D2, DIG D3, PERM P WHERE P.D = D3.D";
    ]
  @ List.init 8 (fun i ->
        Printf.sprintf "CREATE VIEW V%d (A, B, C) AS SELECT A, B, C FROM %s WHERE A > %d"
          (i + 1)
          (if i = 0 then "BASE" else Printf.sprintf "V%d" i)
          (i + 1))
  @ [
      "CREATE MATERIALIZED VIEW EDGE (Src, Dst) AS SELECT D1.D * 100 + D2.D * 10 + D3.D, \
       D1.D * 100 + D2.D * 10 + P.P FROM DIG D1, DIG D2, DIG D3, PERM P WHERE P.D = D3.D";
      reach_view "REACH" "EDGE";
    ]

let shape_oracle session shape =
  let index = Hashtbl.create 4096 in
  List.iter
    (fun row -> Hashtbl.add index (List.hd row) row)
    (Session.query session shape.bulk).Relation.tuples;
  let sample = shape.text (shape.draw (Random.State.make [| 0 |])) in
  let schema = (Session.query session sample).Relation.schema in
  fun lits ->
    let bound = Value.Int lits.(Array.length lits - 1) in
    let rows =
      List.filter_map
        (fun row ->
          if Value.compare (List.nth row 1) bound > 0 then
            Some (List.filteri (fun i _ -> i >= shape.from) row)
          else None)
        (Hashtbl.find_all index (shape.key lits))
    in
    render (Session.Rows (Relation.make schema rows))

let weighted st items =
  let total = List.fold_left (fun acc (w, _) -> acc + w) 0 items in
  let rec pick r = function
    | [ (_, x) ] -> x
    | (w, x) :: rest -> if r < w then x else pick (r - w) rest
    | [] -> invalid_arg "weighted: no items"
  in
  pick (Random.State.int st total) items

let lookup_distinct seed =
  let d = digits seed in
  let setup = lookup_setup d in
  let oracle () =
    let session = local_session setup in
    let shapes =
      List.map (fun sh -> (sh.weight, (sh, shape_oracle session sh))) (lookup_shapes d)
    in
    fun conn ->
      let st = rng seed (100 + conn) in
      fun () ->
        let sh, expected = weighted st shapes in
        let lits = sh.draw st in
        { text = sh.text lits; kind = Read; expect = lazy (expected lits) }
  in
  { name = "lookup_distinct"; conns = 2; durable = false; warmup = 300; traced = 600; setup;
    oracle }

(* -- analytic_cached ---------------------------------------------------- *)

let analytic_setup d =
  digit_tables d @ film_tables
  @ [
      (* R ⋈ S ⋈ T, 2,000 rows each: J takes 40 values, so R ⋈ S fans
         out 50-fold, and T keeps the S rows whose K is a multiple of 64 *)
      Printf.sprintf
        "CREATE MATERIALIZED VIEW R (A, J) AS SELECT %s, P.P * 4 + Q.M FROM %s, PERM \
         P, QUAD Q WHERE D1.D < 2 AND P.D = D4.D AND Q.D = D3.D"
        num4 dig4;
      Printf.sprintf
        "CREATE MATERIALIZED VIEW S (J, K) AS SELECT P.P * 4 + Q.M, %s FROM %s, PERM \
         P, QUAD Q WHERE D1.D < 2 AND P.D = D3.D AND Q.D = D4.D"
        num4 dig4;
      Printf.sprintf
        "CREATE MATERIALIZED VIEW T (K, B) AS SELECT (%s) * 64, %s FROM %s WHERE D1.D < 2"
        num4 num4 dig4;
      (* ten strongly connected clusters of 100 nodes, two edges per node *)
      "CREATE MATERIALIZED VIEW CEDGE (Src, Dst) AS ( SELECT D1.D * 100 + D2.D * 10 + \
       D3.D, D1.D * 100 + P.P * 10 + D3.D FROM DIG D1, DIG D2, DIG D3, PERM P WHERE P.D \
       = D2.D UNION SELECT D1.D * 100 + D2.D * 10 + D3.D, D1.D * 100 + D2.D * 10 + P.P \
       FROM DIG D1, DIG D2, DIG D3, PERM P WHERE P.D = D3.D )";
      reach_view "CREACH" "CEDGE";
      "CREATE MATERIALIZED VIEW R40 (A, J) AS SELECT D1.D * 10 + D2.D, D2.D FROM DIG \
       D1, DIG D2 WHERE D1.D < 4";
      "CREATE MATERIALIZED VIEW S40 (J, K) AS SELECT D1.D, D1.D * 10 + P.P FROM DIG D1, \
       DIG D2, PERM P WHERE D2.D < 4 AND P.D = D2.D";
      "CREATE MATERIALIZED VIEW T40 (K, B) AS SELECT D1.D * 10 + D2.D, D2.D * 10 + D1.D \
       FROM DIG D1, DIG D2 WHERE D1.D < 4";
      "CREATE MATERIALIZED VIEW FILM40 (Numf, Title) AS SELECT Numf, Title FROM FILM \
       WHERE Numf < 40";
      "CREATE MATERIALIZED VIEW APPEARS40 (Numf, Actor) AS SELECT Numf, Actor FROM \
       APPEARS_IN WHERE Numf < 40";
    ]

let analytic_queries d st =
  let int n = Random.State.int st n in
  [
    "SELECT T.B FROM R, S, T WHERE R.J = S.J AND S.K = T.K";
    Printf.sprintf "SELECT R.A FROM R, S, T WHERE R.J = S.J AND S.K = T.K AND T.B = %d"
      (int 32);
    Printf.sprintf
      "SELECT Title FROM FILM, APPEARS_IN WHERE FILM.Numf = APPEARS_IN.Numf AND \
       APPEARS_IN.Actor = '%s'"
      (actor d ~slot:(int 5) (int 1000));
    Printf.sprintf
      "SELECT Actor FROM FILM, APPEARS_IN WHERE FILM.Numf = APPEARS_IN.Numf AND \
       FILM.Title = '%s'"
      (film_title d (int 4000));
    Printf.sprintf "SELECT Dst FROM CREACH WHERE Src = %d" (int 1000);
    Printf.sprintf "SELECT Src FROM CREACH WHERE Dst = %d" (int 1000);
    "SELECT T40.B FROM R40, S40, T40 WHERE R40.J = S40.J AND S40.K = T40.K";
    Printf.sprintf
      "SELECT Title FROM FILM40, APPEARS40 WHERE FILM40.Numf = APPEARS40.Numf AND \
       APPEARS40.Actor = '%s'"
      (actor d ~slot:(int 5) (int 40));
  ]

let analytic_cached seed =
  let d = digits seed in
  let setup = analytic_setup d in
  let queries = Array.of_list (analytic_queries d (rng seed 1)) in
  let n = Array.length queries in
  let oracle () =
    let session = local_session setup in
    let ops =
      Array.map
        (fun q ->
          let reply = render (Session.Rows (Session.query session q)) in
          { text = q; kind = Read; expect = Lazy.from_val reply })
        queries
    in
    fun conn ->
      let st = rng seed (100 + conn) in
      fun () -> ops.(Random.State.int st n)
  in
  { name = "analytic_cached"; conns = 2; durable = false; warmup = 40; traced = 400; setup;
    oracle }

(* -- durable_mixed ------------------------------------------------------ *)

(* a connection's private edge table, the recursive materialized view
   edsd maintains over it, and a plain recursive view over it that every
   read re-derives, memoized in the fixpoint cache until the next write *)
let private_ddl conn =
  Loadtest.mview_ddl conn
  @ [ reach_view (Printf.sprintf "VR_%d" conn) (Loadtest.mview_table conn) ]

let shared_rows = 64
let shared_keys = 8

let durable_setup seed ~conns =
  let st = rng seed 2 in
  [ "TABLE SHARED (K : INT, V : INT)" ]
  @ List.init shared_rows (fun k ->
        Printf.sprintf "INSERT INTO SHARED VALUES (%d, %d)" k (Random.State.int st 100000))
  @ List.concat (List.init conns private_ddl)

(* Connection [conn] writes only its own edge table, so a private oracle
   session replaying the same statements predicts every reply however
   the two connections interleave.  Nodes range over 11 values: the
   graph stays small and cyclic.  Four requests in ten are writes. *)
let durable_op st ~conn ~shared =
  let t = Loadtest.mview_table conn and v = Loadtest.mview_name conn in
  let node () = Random.State.int st 11 in
  let r = Random.State.int st 100 in
  let sql fmt = Printf.sprintf fmt in
  if r < 18 then (Write, sql "INSERT INTO %s VALUES (%d, %d)" t (node ()) (node ()))
  else if r < 28 then (Write, sql "DELETE FROM %s WHERE Src = %d" t (node ()))
  else if r < 40 then (Write, sql "UPDATE %s SET Dst = %d WHERE Src = %d" t (node ()) (node ()))
  else if r < 52 then (Read, sql "SELECT %s.A, %s.B FROM %s" v v v)
  else if r < 64 then (Read, sql "SELECT %s.B FROM %s WHERE %s.A = %d" v v v (node ()))
  else if r < 74 then (Read, sql "SELECT Dst FROM %s WHERE Src = %d" t (node ()))
  else if r < 86 then (Read, sql "SELECT Dst FROM VR_%d WHERE Src = %d" conn (node ()))
  else (Read, shared.(Random.State.int st (Array.length shared)))

let durable_mixed seed =
  let conns = 2 in
  let setup = durable_setup seed ~conns in
  let oracle () =
    let session = local_session setup in
    let st = rng seed 3 in
    let shared =
      Array.init shared_keys (fun _ ->
          Printf.sprintf "SELECT V FROM SHARED WHERE K = %d" (Random.State.int st shared_rows))
    in
    let shared_reply q = render (Session.Rows (Session.query session q)) in
    let shared_expect = Array.map (fun q -> (q, shared_reply q)) shared in
    fun conn ->
      let st = rng seed (100 + conn) in
      let own = Planner.create (local_session (private_ddl conn)) in
      fun () ->
        let kind, text = durable_op st ~conn ~shared in
        let expect =
          match (List.assoc_opt text (Array.to_list shared_expect), kind) with
          | Some reply, _ -> Lazy.from_val reply
          | None, Read -> lazy (render (Session.Rows (fst (Planner.execute own text))))
          | None, Write -> lazy (render (Session.exec_string (Planner.session own) text))
        in
        { text; kind; expect }
  in
  { name = "durable_mixed"; conns; durable = true; warmup = 500; traced = 1200; setup; oracle }

let all =
  [
    ("lookup_distinct", lookup_distinct);
    ("analytic_cached", analytic_cached);
    ("durable_mixed", durable_mixed);
  ]
