module Session = Eds.Session
module Repl = Eds.Repl
module Obs = Eds_obs.Obs
module Metrics = Eds_obs.Metrics

(* -- the workload -------------------------------------------------------- *)

(* Figure-8 shape: films and appearances, joined with a pushable
   selection.  Kept to plain INT/CHAR columns so the identical text
   works over the wire and through Session.exec_string. *)

let n_films = 40

let setup_statements =
  let ddl =
    [
      "TABLE FILM (Numf : INT, Title : CHAR)";
      "TABLE APPEARS_IN (Numf : INT, Actor : CHAR)";
      "TABLE EDGE (Src : INT, Dst : INT)";
      "TABLE R (A : INT, J : INT)";
      "TABLE S (J : INT, K : INT)";
      "TABLE T (K : INT, B : INT)";
      "CREATE VIEW REACH (Src, Dst) AS ( SELECT Src, Dst FROM EDGE UNION \
       SELECT E1.Src, E2.Dst FROM REACH E1, REACH E2 WHERE E1.Dst = E2.Src )";
    ]
  in
  let films =
    List.init n_films (fun i ->
        Printf.sprintf "INSERT INTO FILM VALUES (%d, 'F%d')" i i)
  in
  let appearances =
    List.concat
      (List.init n_films (fun i ->
           [
             Printf.sprintf "INSERT INTO APPEARS_IN VALUES (%d, 'A%d')" i (i mod 7);
             Printf.sprintf "INSERT INTO APPEARS_IN VALUES (%d, 'A%d')" i
               (((i * 3) + 1) mod 11);
           ]))
  in
  (* a 12-node chain: REACH closes to 66 tuples, selections stay small *)
  let edges =
    List.init 11 (fun i ->
        Printf.sprintf "INSERT INTO EDGE VALUES (%d, %d)" (i + 1) (i + 2))
  in
  let r =
    List.init 20 (fun i -> Printf.sprintf "INSERT INTO R VALUES (%d, %d)" i (i mod 6))
  in
  let s =
    List.concat
      (List.init 6 (fun j ->
           List.init 4 (fun k ->
               Printf.sprintf "INSERT INTO S VALUES (%d, %d)" j k)))
  in
  let t =
    List.init 4 (fun k -> Printf.sprintf "INSERT INTO T VALUES (%d, %d)" k (k * 10))
  in
  ddl @ films @ appearances @ edges @ r @ s @ t

let queries =
  [
    "SELECT Title FROM FILM, APPEARS_IN WHERE FILM.Numf = APPEARS_IN.Numf AND \
     APPEARS_IN.Actor = 'A3'";
    "SELECT Actor FROM FILM, APPEARS_IN WHERE FILM.Numf = APPEARS_IN.Numf AND \
     FILM.Numf = 7";
    "SELECT Title FROM FILM WHERE Numf = 11";
    "SELECT R.A, T.B FROM R, S, T WHERE R.J = S.J AND S.K = T.K";
    "SELECT R.A, T.B FROM R, S, T WHERE R.J = S.J AND S.K = T.K AND T.B = 20";
    "SELECT Dst FROM REACH WHERE Src = 2";
    "SELECT Src FROM REACH WHERE Dst = 9";
    "SELECT Title FROM FILM, APPEARS_IN WHERE FILM.Numf = APPEARS_IN.Numf AND \
     FILM.Numf = 3";
  ]

let apply_setup session =
  List.iter (fun stmt -> ignore (Session.exec_string session stmt)) setup_statements

let setup_over_wire client =
  List.iter
    (fun stmt ->
      match Client.request client stmt with
      | Protocol.Ok, _ -> ()
      | status, payload ->
          failwith
            (Printf.sprintf "setup statement %S answered %s: %s" stmt
               (Protocol.status_to_string status)
               (String.trim payload)))
    setup_statements

let render_result result =
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Repl.print_result ppf result;
  Format.pp_print_flush ppf ();
  Buffer.contents buf

let render_rows rel = render_result (Session.Rows rel)

let expected_payloads session =
  List.map (fun q -> (q, render_rows (Session.query session q))) queries

let n_queries = List.length queries
let query_at i = List.nth queries (i mod n_queries)

(* -- the mixed read/write workload ---------------------------------------- *)

(* Each client owns a private table: writes never collide across
   clients, so every response — write acks included — can be verified
   byte-for-byte against a per-client oracle session that replays the
   same statements locally.  Shared-table reads are interleaved to keep
   the snapshot read path under pressure while the writers churn. *)

let mix_table index = Printf.sprintf "MIX_%d" index
let mix_ddl index = Printf.sprintf "TABLE %s (K : INT, V : INT)" (mix_table index)

(* deterministic op [j] of client [index]: 2 writes and 3 reads per 5 *)
let mixed_op ~index j =
  let t = mix_table index in
  match j mod 5 with
  | 0 -> `Write (Printf.sprintf "INSERT INTO %s VALUES (%d, %d)" t j ((j * 7) mod 100))
  | 1 -> `Private_read (Printf.sprintf "SELECT V FROM %s WHERE K = %d" t (j - 1))
  | 2 -> `Shared_read (query_at (index + j))
  | 3 ->
      `Write
        (if j mod 10 = 3 then
           Printf.sprintf "UPDATE %s SET V = %d WHERE K = %d" t (j mod 50) (j - 3)
         else Printf.sprintf "DELETE FROM %s WHERE K = %d" t (j - 3))
  | _ -> `Private_read (Printf.sprintf "SELECT K, V FROM %s" t)

(* -- the materialized-view maintenance workload --------------------------- *)

(* Client [i] owns a private edge table and a private {e materialized}
   recursive reachability view over it, so every maintained extent the
   server serves back — after INSERTs, DELETEs and explicit REFRESHes —
   is verified byte-for-byte against the client's oracle session
   replaying the same statements.  Shared reads (including the expanded
   recursive REACH queries) interleave like the mixed mode. *)

let mview_table index = Printf.sprintf "MVE_%d" index
let mview_name index = Printf.sprintf "MVR_%d" index

let mview_ddl index =
  let t = mview_table index and v = mview_name index in
  [
    Printf.sprintf "TABLE %s (Src : INT, Dst : INT)" t;
    Printf.sprintf
      "CREATE MATERIALIZED VIEW %s (A, B) AS ( SELECT Src, Dst FROM %s UNION \
       SELECT E.Src, %s.B FROM %s E, %s WHERE E.Dst = %s.A )"
      v t v t v v;
  ]

(* deterministic op [j] of client [index], per 6: an INSERT, a full
   extent read, a shared read, a DELETE or second INSERT, a filtered
   extent read, and a REFRESH.  Edges live on 11 nodes so the closure
   develops chains and cycles quickly. *)
let mview_op ~index j =
  let t = mview_table index and v = mview_name index in
  match j mod 6 with
  | 0 ->
      `Write
        (Printf.sprintf "INSERT INTO %s VALUES (%d, %d)" t (j mod 11)
           (((j * 5) + 1) mod 11))
  | 1 -> `Private_read (Printf.sprintf "SELECT %s.A, %s.B FROM %s" v v v)
  | 2 -> `Shared_read (query_at (index + j))
  | 3 ->
      `Write
        (if j mod 12 = 3 then
           Printf.sprintf "DELETE FROM %s WHERE Src = %d" t ((j / 2) mod 11)
         else
           Printf.sprintf "INSERT INTO %s VALUES (%d, %d)" t
             (((j * 7) + 2) mod 11)
             (((j * 3) + 4) mod 11))
  | 4 ->
      `Private_read
        (Printf.sprintf "SELECT %s.B FROM %s WHERE %s.A = %d" v v v (j mod 11))
  | _ -> `Write (Printf.sprintf "REFRESH %s" v)

(* -- the fan-out --------------------------------------------------------- *)

type outcome = {
  clients : int;
  per_client : int;
  total : int;
  ok : int;
  writes : int;
  errors : int;
  busy : int;
  protocol_errors : int;
  dropped_connections : int;
  elapsed_s : float;
  qps : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_ms : float;
  bit_identical : bool;
  cache_hits : int;
  cache_misses : int;
  hit_rate : float;
  wal_fsyncs : int;
  wal_commits : int;
  server_p50_ms : float;
  server_p95_ms : float;
  server_p99_ms : float;
  ping_p50_ms : float;
  ping_p95_ms : float;
  ping_p99_ms : float;
  client_mean_ms : float;
  ping_mean_ms : float;
  server_mean_ms : float;  (** histogram sum/count of the run's delta *)
  server_within_client : bool;
  percentiles_agree : bool;
}

type worker = {
  mutable w_ok : int;
  mutable w_writes : int;
  mutable w_errors : int;
  mutable w_busy : int;
  mutable w_protocol : int;
  mutable w_dropped : int;
  mutable w_sent : int;
  mutable w_mismatch : int;
  mutable w_latencies : float list;  (** ms, newest first *)
  mutable w_ping_latencies : float list;
      (** round-trips of no-op PINGs interleaved into the load: the
          transport + scheduling floor a query's RTT pays on top of
          server-side processing *)
}

let fresh_worker () =
  {
    w_ok = 0;
    w_writes = 0;
    w_errors = 0;
    w_busy = 0;
    w_protocol = 0;
    w_dropped = 0;
    w_sent = 0;
    w_mismatch = 0;
    w_latencies = [];
    w_ping_latencies = [];
  }

(* One no-op PING per few requests, recorded separately: its RTT under
   the very same load measures everything a query round-trip pays
   {e besides} server-side processing (syscalls, wire, and waiting for
   the server's runtime lock behind the other clients). *)
let record_ping client w =
  let t0 = Unix.gettimeofday () in
  match Client.request client "PING" with
  | Protocol.Ok, _ ->
      w.w_ping_latencies <-
        ((Unix.gettimeofday () -. t0) *. 1000.) :: w.w_ping_latencies
  | _ -> ()

(* one METRICS round trip: plan-cache hits/misses plus the WAL's
   group-commit tallies (0 when the server runs without a WAL) *)
let server_counters ~host ~port =
  let zero = (0, 0, 0, 0) in
  match Client.connect ~host port with
  | exception _ -> zero
  | client ->
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          match Client.request client "METRICS" with
          | Protocol.Ok, payload -> (
              match Obs.Json.parse (String.trim payload) with
              | Ok json ->
                  let geti key =
                    match Obs.Json.member key json with
                    | Some v -> Option.value ~default:0 (Obs.Json.to_int v)
                    | None -> 0
                  in
                  ( geti "server.plan_cache.hits",
                    geti "server.plan_cache.misses",
                    geti "wal.fsyncs",
                    geti "wal.commits" )
              | Error _ -> zero)
          | _ -> zero
          | exception _ -> zero)

let worker_body ~host ~port ~expected ~per_client ~index w =
  match Client.connect ~host port with
  | exception _ -> w.w_dropped <- w.w_dropped + 1
  | client -> (
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          try
            for j = 0 to per_client - 1 do
              if j mod 4 = 3 then record_ping client w;
              let q = query_at (index + j) in
              w.w_sent <- w.w_sent + 1;
              let t0 = Unix.gettimeofday () in
              match Client.request client q with
              | Protocol.Ok, payload ->
                  w.w_latencies <-
                    ((Unix.gettimeofday () -. t0) *. 1000.) :: w.w_latencies;
                  w.w_ok <- w.w_ok + 1;
                  (match List.assoc_opt q expected with
                  | Some want when want <> payload -> w.w_mismatch <- w.w_mismatch + 1
                  | _ -> ())
              | Protocol.Error, _ -> w.w_errors <- w.w_errors + 1
              | Protocol.Busy, _ -> w.w_busy <- w.w_busy + 1
            done
          with
          | End_of_file | Unix.Unix_error _ | Sys_error _ ->
              w.w_dropped <- w.w_dropped + 1
          | Failure _ -> w.w_protocol <- w.w_protocol + 1))

(* Linear interpolation between the two ranks straddling p (the
   "exclusive" definition used by most monitoring stacks): continuous in
   p and far less grid-snapped than nearest-rank on small samples, so it
   compares meaningfully against the server histogram's interpolated
   quantiles. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.
  else if n = 1 then sorted.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = max 0 (min (n - 2) (int_of_float (Float.floor rank))) in
    let frac = rank -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(lo + 1) -. sorted.(lo)))
  end

(* -- server-side latency via the Prometheus exposition -------------------- *)

let contains line sub =
  let n = String.length line and m = String.length sub in
  let rec go i = i + m <= n && (String.sub line i m = sub || go (i + 1)) in
  m = 0 || go 0

let line_value line =
  match String.rindex_opt line ' ' with
  | None -> None
  | Some i ->
      float_of_string_opt (String.sub line (i + 1) (String.length line - i - 1))

let le_of_line line =
  match String.index_opt line '{' with
  | None -> None
  | Some _ -> (
      let marker = "le=\"" in
      let rec find i =
        if i + String.length marker > String.length line then None
        else if String.sub line i (String.length marker) = marker then
          let start = i + String.length marker in
          String.index_from_opt line start '"'
          |> Option.map (fun stop -> String.sub line start (stop - start))
        else find (i + 1)
      in
      match find 0 with
      | Some "+Inf" -> Some infinity
      | Some s -> float_of_string_opt s
      | None -> None)

(* Rebuild a {!Metrics.Histogram.snapshot} for [name] restricted to the
   series carrying [label] (e.g. [verb="select"]) from Prometheus text:
   the fixed log₂ bucket layout means the [le] bounds map 1:1 onto
   {!Metrics.Histogram.bounds}, so cumulative wire buckets de-cumulate
   straight into a snapshot that merges and quantiles like a local one. *)
let histogram_of_prom ~name ~label text =
  let nbuckets = Array.length Metrics.Histogram.bounds + 1 in
  let cumulative = Array.make nbuckets 0 in
  let sum = ref 0. in
  let seen = ref false in
  List.iter
    (fun line ->
      if String.starts_with ~prefix:(name ^ "_bucket{") line && contains line label
      then (
        match (le_of_line line, line_value line) with
        | Some le, Some v ->
            seen := true;
            cumulative.(Metrics.Histogram.bucket_index le) <- int_of_float v
        | _ -> ())
      else if String.starts_with ~prefix:(name ^ "_sum{") line && contains line label
      then
        match line_value line with
        | Some v ->
            seen := true;
            sum := v
        | None -> ())
    (String.split_on_char '\n' text);
  if not !seen then None
  else begin
    let counts =
      Array.init nbuckets (fun i ->
          if i = 0 then cumulative.(0) else max 0 (cumulative.(i) - cumulative.(i - 1)))
    in
    Some { Metrics.Histogram.counts; sum = !sum }
  end

let select_latency_snapshot ~host ~port =
  match Client.connect ~host port with
  | exception _ -> None
  | client -> (
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          match Client.request client "METRICS PROM" with
          | Protocol.Ok, payload ->
              histogram_of_prom ~name:"eds_query_duration_seconds"
                ~label:"verb=\"select\"" payload
          | _ -> None
          | exception _ -> None))

(* Each client owns private relations, so its write acks and private
   reads are checked against a per-client oracle session replaying the
   same statements; shared-table reads check against [expected] like
   the read-only mode.  [ddl] gives the client's private schema and
   [op] its deterministic statement stream — the mixed and the
   materialized-view workloads differ only in those two. *)
let verified_worker_body ?(oracle_setup = []) ~host ~port ~physical ~expected ~ddl
    ~op ~per_client ~index w =
  match Client.connect ~host port with
  | exception _ -> w.w_dropped <- w.w_dropped + 1
  | client -> (
      Fun.protect
        ~finally:(fun () -> Client.close client)
        (fun () ->
          try
            let oracle = Session.create () in
            Session.set_physical oracle physical;
            List.iter (fun stmt -> ignore (Session.exec_string oracle stmt)) oracle_setup;
            List.iter
              (fun stmt ->
                match Client.request client stmt with
                | Protocol.Ok, _ -> ignore (Session.exec_string oracle stmt)
                | _, payload ->
                    failwith
                      (Printf.sprintf "private setup for client %d: %s" index
                         (String.trim payload)))
              (ddl index);
            for j = 0 to per_client - 1 do
              if j mod 4 = 3 then record_ping client w;
              let op = op ~index j in
              let stmt =
                match op with
                | `Write s | `Shared_read s | `Private_read s -> s
              in
              w.w_sent <- w.w_sent + 1;
              let t0 = Unix.gettimeofday () in
              match Client.request client stmt with
              | Protocol.Ok, payload -> (
                  w.w_latencies <-
                    ((Unix.gettimeofday () -. t0) *. 1000.) :: w.w_latencies;
                  w.w_ok <- w.w_ok + 1;
                  match op with
                  | `Shared_read _ -> (
                      match List.assoc_opt stmt expected with
                      | Some want when want <> payload ->
                          w.w_mismatch <- w.w_mismatch + 1
                      | _ -> ())
                  | `Write _ ->
                      w.w_writes <- w.w_writes + 1;
                      if render_result (Session.exec_string oracle stmt) <> payload
                      then w.w_mismatch <- w.w_mismatch + 1
                  | `Private_read _ ->
                      if render_rows (Session.query oracle stmt) <> payload then
                        w.w_mismatch <- w.w_mismatch + 1)
              | Protocol.Error, _ -> w.w_errors <- w.w_errors + 1
              | Protocol.Busy, _ -> w.w_busy <- w.w_busy + 1
            done
          with
          | End_of_file | Unix.Unix_error _ | Sys_error _ ->
              w.w_dropped <- w.w_dropped + 1
          | Failure _ -> w.w_protocol <- w.w_protocol + 1
          | Session.Session_error _ -> w.w_protocol <- w.w_protocol + 1))

let fan_out ~host ~port ~clients ~per_client body =
  let hits0, misses0, fsyncs0, commits0 = server_counters ~host ~port in
  let hist0 = select_latency_snapshot ~host ~port in
  let workers = Array.init clients (fun _ -> fresh_worker ()) in
  let t0 = Unix.gettimeofday () in
  let threads =
    List.init clients (fun i -> Thread.create (fun () -> body i workers.(i)) ())
  in
  List.iter Thread.join threads;
  let elapsed_s = Unix.gettimeofday () -. t0 in
  let hits1, misses1, fsyncs1, commits1 = server_counters ~host ~port in
  let hist1 = select_latency_snapshot ~host ~port in
  let sum f = Array.fold_left (fun acc w -> acc + f w) 0 workers in
  let ok = sum (fun w -> w.w_ok) in
  let latencies =
    Array.of_list (Array.fold_left (fun acc w -> w.w_latencies @ acc) [] workers)
  in
  Array.sort compare latencies;
  let cache_hits = max 0 (hits1 - hits0) in
  let cache_misses = max 0 (misses1 - misses0) in
  let looked_up = cache_hits + cache_misses in
  let p50_ms = percentile latencies 50. in
  let p95_ms = percentile latencies 95. in
  let p99_ms = percentile latencies 99. in
  (* the run's own server-side recordings: the registry histogram is
     cumulative (and process-wide under the in-process tests), so only
     the before/after delta belongs to this fan-out *)
  let delta =
    match (hist0, hist1) with
    | Some a, Some b -> Some (Metrics.Histogram.sub b a)
    | None, Some b -> Some b
    | _ -> None
  in
  let server_q p =
    match delta with
    | Some d when Metrics.Histogram.count d > 0 ->
        Metrics.Histogram.quantile d (p /. 100.) *. 1000.
    | _ -> 0.
  in
  let server_p50_ms = server_q 50. in
  let server_p95_ms = server_q 95. in
  let server_p99_ms = server_q 99. in
  let pings =
    Array.of_list
      (Array.fold_left (fun acc w -> w.w_ping_latencies @ acc) [] workers)
  in
  Array.sort compare pings;
  let ping_p50_ms = percentile pings 50. in
  let ping_p95_ms = percentile pings 95. in
  let ping_p99_ms = percentile pings 99. in
  (* Cross-check: a query's client-side RTT is server-side processing
     plus a transport/scheduling floor, and the interleaved PINGs
     measure that floor under the same load.  Queue waits do not
     correspond rank-by-rank, so tail quantiles cannot be equated — but
     expectations add: E[RTT] = E[floor] + E[service].  Agreement
     therefore demands (a) at each of p50/p95/p99 the server-side
     quantile never exceeds the client-side value by more than one log₂
     bucket (processing is a component of the round trip); (b) the mean
     identity holds — client mean minus ping mean matches the
     histogram's sum/count within the larger of 0.5 ms and the server
     mean itself (scheduling noise at sub-ms scales rivals service
     time, and a units or labelling bug is off by orders of magnitude,
     not a factor of two); and (c) at the median, where ranks are
     stable, the floor-adjusted client value matches the server value
     within one bucket width plus the same 0.5 ms allowance. *)
  let mean a =
    let n = Array.length a in
    if n = 0 then 0.
    else Array.fold_left ( +. ) 0. a /. float_of_int n
  in
  let client_mean_ms = mean latencies in
  let ping_mean_ms = mean pings in
  let bucket_width_ms v_ms =
    let b = Metrics.Histogram.bounds in
    let i = Metrics.Histogram.bucket_index (v_ms /. 1000.) in
    let w =
      if i >= Array.length b then b.(Array.length b - 1)
      else if i = 0 then b.(0)
      else b.(i) -. b.(i - 1)
    in
    w *. 1000.
  in
  let server_mean_ms =
    match delta with
    | Some d when Metrics.Histogram.count d > 0 ->
        d.Metrics.Histogram.sum /. float_of_int (Metrics.Histogram.count d) *. 1000.
    | _ -> 0.
  in
  let have_delta =
    match delta with
    | Some d -> Metrics.Histogram.count d > 0
    | None -> false
  in
  let server_within_client =
    (not have_delta)
    || List.for_all
         (fun (client_ms, server_ms) ->
           client_ms <= 0. || server_ms <= 0.
           || Metrics.Histogram.bucket_index (server_ms /. 1000.)
              <= Metrics.Histogram.bucket_index (client_ms /. 1000.) + 1)
         [
           (p50_ms, server_p50_ms);
           (p95_ms, server_p95_ms);
           (p99_ms, server_p99_ms);
         ]
  in
  let percentiles_agree =
    (not have_delta)
    || begin
         let mean_ok =
           let adjusted = Float.max (client_mean_ms -. ping_mean_ms) 0. in
           Float.abs (adjusted -. server_mean_ms)
           <= Float.max 0.5 (Float.max server_mean_ms (0.5 *. ping_mean_ms))
         in
         let median_ok =
           p50_ms <= 0. || server_p50_ms <= 0.
           ||
           let adjusted = Float.max (p50_ms -. ping_p50_ms) 0. in
           Float.abs (server_p50_ms -. adjusted)
           <= Float.max (bucket_width_ms (Float.max server_p50_ms adjusted)) 0.5
         in
         server_within_client && mean_ok && median_ok
       end
  in
  {
    clients;
    per_client;
    total = sum (fun w -> w.w_sent);
    ok;
    writes = sum (fun w -> w.w_writes);
    errors = sum (fun w -> w.w_errors);
    busy = sum (fun w -> w.w_busy);
    protocol_errors = sum (fun w -> w.w_protocol);
    dropped_connections = sum (fun w -> w.w_dropped);
    elapsed_s;
    qps = (if elapsed_s > 0. then float_of_int ok /. elapsed_s else 0.);
    p50_ms;
    p95_ms;
    p99_ms;
    max_ms = (if Array.length latencies = 0 then 0. else latencies.(Array.length latencies - 1));
    bit_identical = sum (fun w -> w.w_mismatch) = 0;
    cache_hits;
    cache_misses;
    hit_rate =
      (if looked_up = 0 then 0.
       else float_of_int cache_hits /. float_of_int looked_up);
    wal_fsyncs = max 0 (fsyncs1 - fsyncs0);
    wal_commits = max 0 (commits1 - commits0);
    server_p50_ms;
    server_p95_ms;
    server_p99_ms;
    ping_p50_ms;
    ping_p95_ms;
    ping_p99_ms;
    client_mean_ms;
    ping_mean_ms;
    server_mean_ms;
    server_within_client;
    percentiles_agree;
  }

let run ?(host = "127.0.0.1") ?(expected = []) ~port ~clients ~per_client () =
  fan_out ~host ~port ~clients ~per_client (fun i w ->
      worker_body ~host ~port ~expected ~per_client ~index:i w)

let run_mixed ?(host = "127.0.0.1") ?(physical = Session.Eval.Physical.Indexed)
    ?(expected = []) ~port ~clients ~per_client () =
  fan_out ~host ~port ~clients ~per_client (fun i w ->
      verified_worker_body ~host ~port ~physical ~expected
        ~ddl:(fun i -> [ mix_ddl i ])
        ~op:mixed_op ~per_client ~index:i w)

let run_mview ?(host = "127.0.0.1") ?(physical = Session.Eval.Physical.Indexed)
    ?(expected = []) ~port ~clients ~per_client () =
  fan_out ~host ~port ~clients ~per_client (fun i w ->
      verified_worker_body ~host ~port ~physical ~expected ~ddl:mview_ddl
        ~op:mview_op ~per_client ~index:i w)

(* -- distinct literals ------------------------------------------------------ *)

(* Four templates over the shared workload, each fed a literal no other
   request of the run uses: request [n] instantiates template [n mod 4]
   with literal [n / 4].  Early literals hit data, later ones select
   nothing; either way no text repeats, so only a template-keyed plan
   cache can serve them. *)
let param_templates =
  [|
    Printf.sprintf
      "SELECT Title FROM FILM, APPEARS_IN WHERE FILM.Numf = APPEARS_IN.Numf AND \
       APPEARS_IN.Actor = 'A%d'";
    Printf.sprintf
      "SELECT Actor FROM FILM, APPEARS_IN WHERE FILM.Numf = APPEARS_IN.Numf AND \
       FILM.Numf = %d";
    (fun k ->
      Printf.sprintf
        "SELECT R.A, T.B FROM R, S, T WHERE R.J = S.J AND S.K = T.K AND T.B = %d"
        (10 * k));
    Printf.sprintf "SELECT Dst FROM REACH WHERE Src = %d";
  |]

let param_query ~per_client ~index j =
  let n = (index * per_client) + j in
  param_templates.(n mod Array.length param_templates) (n / Array.length param_templates)

let run_param ?(host = "127.0.0.1") ?(physical = Session.Eval.Physical.Indexed) ~port
    ~clients ~per_client () =
  fan_out ~host ~port ~clients ~per_client (fun i w ->
      verified_worker_body ~oracle_setup:setup_statements ~host ~port ~physical
        ~expected:[] ~ddl:(fun _ -> [])
        ~op:(fun ~index j -> `Private_read (param_query ~per_client ~index j))
        ~per_client ~index:i w)

let pp_outcome ppf o =
  Fmt.pf ppf "clients          : %d × %d requests@." o.clients o.per_client;
  Fmt.pf ppf "responses        : %d ok (%d writes), %d error, %d busy of %d@." o.ok
    o.writes o.errors o.busy o.total;
  Fmt.pf ppf "failures         : %d dropped connections, %d protocol errors@."
    o.dropped_connections o.protocol_errors;
  Fmt.pf ppf "throughput       : %.0f q/s over %.3fs@." o.qps o.elapsed_s;
  Fmt.pf ppf "latency (ms)     : p50 %.2f, p95 %.2f, p99 %.2f, max %.2f@." o.p50_ms
    o.p95_ms o.p99_ms o.max_ms;
  Fmt.pf ppf "ping floor (ms)  : p50 %.2f, p95 %.2f, p99 %.2f@." o.ping_p50_ms
    o.ping_p95_ms o.ping_p99_ms;
  Fmt.pf ppf "means (ms)       : client %.3f = ping %.3f + server %.3f (+ noise)@."
    o.client_mean_ms o.ping_mean_ms o.server_mean_ms;
  Fmt.pf ppf "server hist (ms) : p50 %.2f, p95 %.2f, p99 %.2f (agree: %b)@."
    o.server_p50_ms o.server_p95_ms o.server_p99_ms o.percentiles_agree;
  Fmt.pf ppf "plan cache       : %d hits, %d misses (hit rate %.2f)@." o.cache_hits
    o.cache_misses o.hit_rate;
  if o.wal_commits > 0 then
    Fmt.pf ppf "wal group commit : %d commits in %d fsyncs (%.2f fsyncs/commit)@."
      o.wal_commits o.wal_fsyncs
      (float_of_int o.wal_fsyncs /. float_of_int o.wal_commits);
  Fmt.pf ppf "bit-identical    : %b@." o.bit_identical
