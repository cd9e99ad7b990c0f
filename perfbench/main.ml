(* edsd serving benchmark.

   One run boots bin/edsd as a separate process, loads one workload's
   schema and data over the wire, warms it up, then drives the
   workload's seeded request streams closed-loop for a fixed window
   from this one process: each connection sends its next request only
   after the previous reply arrived.  Every reply is checked against
   an oracle computed on local sessions, before the window for as much
   of the stream as the warm-up rate predicts.  The server is measured
   from outside: its counters through METRICS and METRICS PROM deltas
   around the window, its CPU and peak RSS from /proc.

   --trace 0 prints the end-to-end metrics; --trace 1 prints the
   per-layer ones, which add an in-process traced replay of the same
   stream (see Trace).  The last line of stdout is one JSON object.

   Usage: main.exe --edsd PATH --workload NAME --seed N --seconds S --trace 0|1 *)

module Session = Eds.Session
module Client = Eds_server.Client
module Protocol = Eds_server.Protocol
module Loadtest = Eds_server.Loadtest
module Json = Eds_obs.Obs.Json
module W = Workloads

(* the metrics BENCHMARK.json bounds; every other one is per-layer *)
let end_to_end =
  [
    "throughput_ops"; "read_p50_ms"; "read_p99_ms"; "server_cpu_us_per_op";
    "server_rss_peak_mb"; "setup_s";
  ]

let setups_per_run = 7
let ping_every = 16

(* the window is cut into slices of about this length: long enough for
   1,000 reads per slice on the slowest workload, so each has a p99 *)
let slice_target_s = 3.

(* USER_HZ, the unit of the times in /proc/<pid>/stat on Linux *)
let clock_ticks_per_s = 100.

let now = Unix.gettimeofday
let fail fmt = Printf.ksprintf failwith fmt
let ratio n d = if d = 0. then 0. else n /. d

let percentile xs p =
  let a = Array.of_list xs in
  Array.sort compare a;
  Loadtest.percentile a p

let median xs = percentile xs 50.

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Sys.mkdir path 0o755
  end

(* -- the server process --------------------------------------------- *)

type server = { pid : int; port : int; out : in_channel }

let live = ref []
let forget pid = live := List.filter (( <> ) pid) !live

let reap pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  forget pid

let () =
  at_exit (fun () -> List.iter reap !live);
  (* a caller's timeout must not leave servers behind *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 3)))
    [ Sys.sigterm; Sys.sigint ]

(* boot edsd on an ephemeral port and read the port from its banner,
   "edsd: listening on HOST:PORT (...)" *)
let spawn ~edsd args =
  let r, w = Unix.pipe ~cloexec:true () in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0 in
  let argv = Array.of_list (edsd :: "-p" :: "0" :: args) in
  let pid = Unix.create_process edsd argv null w Unix.stderr in
  Unix.close w;
  Unix.close null;
  live := pid :: !live;
  let out = Unix.in_channel_of_descr r in
  let rec port () =
    match String.split_on_char ' ' (input_line out) with
    | "edsd:" :: "listening" :: "on" :: addr :: _ ->
        int_of_string (List.nth (String.split_on_char ':' addr) 1)
    | _ -> port ()
    | exception End_of_file -> fail "edsd exited before listening"
  in
  { pid; port = port (); out }

(* SIGTERM and wait: edsd stops its listener, joins its threads and,
   with --db, checkpoints before exiting *)
let stop s =
  (try Unix.kill s.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = now () +. 30. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] s.pid with
    | 0, _ when now () < deadline ->
        Thread.delay 0.01;
        wait ()
    | 0, _ -> reap s.pid
    | _ -> forget s.pid
  in
  wait ();
  close_in_noerr s.out

let kill s =
  reap s.pid;
  close_in_noerr s.out

let request c text =
  match Client.request c text with
  | Protocol.Ok, payload -> payload
  | status, payload ->
      fail "%S answered %s: %s" text (Protocol.status_to_string status) (String.trim payload)

let boot ~edsd args =
  let s = spawn ~edsd args in
  let c = Client.connect s.port in
  ignore (request c "PING");
  (s, c)

(* One set-up: spawn, first PING answer, schema and data over the wire.
   Under --db the loaded server is killed and a second one recovers the
   database from its write-ahead log. *)
let set_up ~edsd ~dir (w : W.t) =
  let args = if w.W.durable then [ "--db"; Filename.concat dir "db.esql" ] else [] in
  let t0 = now () in
  let s, c = boot ~edsd args in
  List.iter (fun stmt -> ignore (request c stmt)) w.W.setup;
  Client.close c;
  let s =
    if not w.W.durable then s
    else begin
      kill s;
      let s, c = boot ~edsd args in
      Client.close c;
      s
    end
  in
  (s, now () -. t0)

(* -- /proc sampling --------------------------------------------------- *)

let read_file path = In_channel.with_open_text path In_channel.input_all

(* user + system seconds: fields 14 and 15 of the file, counted from 3
   after the parenthesized command name *)
let cpu_s pid =
  let stat = read_file (Printf.sprintf "/proc/%d/stat" pid) in
  let start = String.rindex stat ')' + 2 in
  let fields = Array.of_list (String.split_on_char ' ' (String.sub stat start (String.length stat - start))) in
  (float_of_string fields.(11) +. float_of_string fields.(12)) /. clock_ticks_per_s

let vm_hwm_mb pid =
  let lines = String.split_on_char '\n' (read_file (Printf.sprintf "/proc/%d/status" pid)) in
  let line = List.find (String.starts_with ~prefix:"VmHWM:") lines in
  match List.filter (( <> ) "") (String.split_on_char ' ' line) with
  | [ _; kb; "kB" ] -> float_of_string kb /. 1024.
  | _ -> fail "cannot parse %S" line

(* -- wire counters ---------------------------------------------------- *)

type wire = { json : Json.t; prom : string }

let wire c =
  match Json.parse (String.trim (request c "METRICS")) with
  | Ok json -> { json; prom = request c "METRICS PROM" }
  | Error e -> fail "METRICS: %s" e

let delta a b key =
  let get w = Option.value ~default:0 (Option.bind (Json.member key w.json) Json.to_int) in
  float_of_int (get b - get a)

(* the value of the exposition line of [series] (a name plus its label
   block, e.g. eds_query_duration_seconds_sum{verb="select"}) *)
let prom_value w series =
  let prefix = series ^ " " in
  match List.find_opt (String.starts_with ~prefix) (String.split_on_char '\n' w.prom) with
  | None -> 0.
  | Some l ->
      let n = String.length prefix in
      float_of_string (String.sub l n (String.length l - n))

(* (seconds, observations) a histogram series recorded between [a] and [b] *)
let hist a b name labels =
  let v w suffix = prom_value w (name ^ suffix ^ labels) in
  (v b "_sum" -. v a "_sum", v b "_count" -. v a "_count")

(* -- the closed loop -------------------------------------------------- *)

type tally = {
  mutable sent : int;
  mutable ok : int;
  mutable errors : int;
  mutable busy : int;
  mutable protocol : int;
  mutable dropped : int;
  mutable mismatch : int;
  mutable resent : int;
  mutable reads : (float * float) list;  (** (completion time, round trip in ms) *)
  mutable writes : (float * float) list;
  mutable pings : float list;
  mutable reply_bytes : int;
  mutable write_bytes : int;  (** statement bytes of acknowledged writes *)
}

let tally () =
  {
    sent = 0; ok = 0; errors = 0; busy = 0; protocol = 0; dropped = 0; mismatch = 0; resent = 0;
    reads = []; writes = []; pings = []; reply_bytes = 0; write_bytes = 0;
  }

let sum f ts = List.fold_left (fun acc t -> acc + f t) 0 ts
let failures t = t.errors + t.busy + t.protocol + t.dropped + t.mismatch

(* A connection's stream.  Expected payloads are forced in stream order
   ([forced] of them so far): before the window for as many requests as
   the warm-up rate predicts, and after it for any the window went past.
   Only the text of such a late request is generated inside the window;
   its reply waits in [late] to be checked. *)
type lane = {
  client : Client.t;
  gen : unit -> W.op;
  mutable ops : W.op array;
  mutable pos : int;
  mutable forced : int;
  mutable late : (int * string) list;
}

let extend lane n = lane.ops <- Array.append lane.ops (Array.init n (fun _ -> lane.gen ()))

let mismatch t (op : W.op) payload =
  if t.mismatch = 0 then
    Printf.eprintf "perfbench: oracle mismatch on %S\n got: %S\nwant: %S\n%!" op.W.text
      payload (Lazy.force op.W.expect);
  t.mismatch <- t.mismatch + 1

(* force the expectations of the first [n] requests, checking late replies *)
let force lane t n =
  let late = Hashtbl.of_seq (List.to_seq lane.late) in
  let n = min n (Array.length lane.ops) in
  for i = lane.forced to n - 1 do
    let op = lane.ops.(i) in
    let want = Lazy.force op.W.expect in
    Option.iter (fun got -> if got <> want then mismatch t op got) (Hashtbl.find_opt late i)
  done;
  lane.forced <- max lane.forced n;
  lane.late <- List.filter (fun (i, _) -> i >= lane.forced) lane.late

let elapsed_ms t0 = (now () -. t0) *. 1000.

(* edsd fails a request whose evaluation forces a lazily built value
   (e.g. a relation's columnar shadow) that another connection's request
   is still building; this hits while the shared state is cold, so the
   warm-up sends such a request again *)
let lazy_race payload =
  let marker = "CamlinternalLazy.Undefined" in
  let n = String.length payload and m = String.length marker in
  let rec at i = i + m <= n && (String.sub payload i m = marker || at (i + 1)) in
  at 0

(* send [text], count its outcome; [Some (payload, ms)] when ok *)
let rec send ~resend lane t text =
  let t0 = now () in
  match Client.request lane.client text with
  | Protocol.Ok, payload -> Some (payload, elapsed_ms t0)
  | Protocol.Error, payload when resend > 0 && lazy_race payload ->
      (* give the other connection time to finish building the value *)
      t.resent <- t.resent + 1;
      Thread.delay 0.05;
      send ~resend:(resend - 1) lane t text
  | Protocol.Error, payload ->
      if t.errors = 0 then Printf.eprintf "perfbench: %S failed: %s%!" text payload;
      t.errors <- t.errors + 1;
      None
  | Protocol.Busy, _ ->
      t.busy <- t.busy + 1;
      None

let drive ?(resend = 0) lane t ~until =
  let rec loop k =
    if not (until lane) then begin
      if lane.pos >= Array.length lane.ops then extend lane 1000;
      if k mod ping_every = ping_every - 1 then
        Option.iter (fun (_, ms) -> t.pings <- ms :: t.pings) (send ~resend lane t "PING");
      let i = lane.pos in
      let op = lane.ops.(i) in
      lane.pos <- i + 1;
      t.sent <- t.sent + 1;
      (match send ~resend lane t op.W.text with
      | None -> ()
      | Some (payload, ms) ->
          t.ok <- t.ok + 1;
          t.reply_bytes <- t.reply_bytes + String.length payload;
          (match op.W.kind with
          | W.Read -> t.reads <- (now (), ms) :: t.reads
          | W.Write ->
              t.writes <- (now (), ms) :: t.writes;
              t.write_bytes <- t.write_bytes + String.length op.W.text);
          if i >= lane.forced then lane.late <- (i, payload) :: lane.late
          else if payload <> Lazy.force op.W.expect then mismatch t op payload);
      loop (k + 1)
    end
  in
  try loop 0 with
  | End_of_file | Unix.Unix_error _ | Sys_error _ -> t.dropped <- t.dropped + 1
  | Failure _ -> t.protocol <- t.protocol + 1

let in_parallel ?(meanwhile = ignore) lanes f =
  let tallies = List.map (fun _ -> tally ()) lanes in
  let threads = List.map2 (fun lane t -> Thread.create (fun () -> f lane t) ()) lanes tallies in
  meanwhile ();
  List.iter Thread.join threads;
  tallies

(* -- one run ---------------------------------------------------------- *)

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (string * float * string) list;
}

(* share of the requests whose normalized text was sent before in the
   run: what any plan cache can at best reuse *)
let repeat_share lanes =
  let seen = Hashtbl.create 4096 and n = ref 0 in
  List.iter
    (fun lane ->
      for i = 0 to lane.pos - 1 do
        incr n;
        Hashtbl.replace seen (Eds_server.Planner.normalize lane.ops.(i).W.text) ()
      done)
    lanes;
  ratio (float_of_int (!n - Hashtbl.length seen)) (float_of_int !n)

let measure ~edsd ~dir ~seconds (w : W.t) =
  (* set up several times; the last server serves the run *)
  let set_up_in i =
    let d = Filename.concat dir (Printf.sprintf "setup%d" i) in
    mkdir_p d;
    set_up ~edsd ~dir:d w
  in
  let discarded =
    List.init (setups_per_run - 1) (fun i ->
        let s, dt = set_up_in i in
        kill s;
        dt)
  in
  let server, last = set_up_in (setups_per_run - 1) in
  let setup_s = median (last :: discarded) in
  let gen = w.W.oracle () in
  let lanes =
    List.init w.W.conns (fun i ->
        let client = Client.connect server.port in
        let lane = { client; gen = gen i; ops = [||]; pos = 0; forced = 0; late = [] } in
        extend lane w.W.warmup;
        force lane (tally ()) w.W.warmup;
        lane)
  in
  (* warm-up: plan cache, intern table, lazy columns; in no metric *)
  let t0 = now () in
  let warm =
    in_parallel lanes (fun lane t ->
        drive ~resend:5 lane t ~until:(fun lane -> lane.pos >= w.W.warmup))
  in
  let warm_s = now () -. t0 in
  if sum failures warm > 0 then fail "%d failures during warm-up" (sum failures warm);
  if sum (fun t -> t.resent) warm > 0 then
    Printf.eprintf "perfbench: resent %d warm-up requests edsd failed with \
                    CamlinternalLazy.Undefined\n%!" (sum (fun t -> t.resent) warm);
  let predicted = int_of_float (float_of_int w.W.warmup /. warm_s *. seconds *. 1.2) in
  List.iter
    (fun lane ->
      extend lane (max predicted (w.W.traced / w.W.conns));
      force lane (tally ()) (w.W.warmup + predicted))
    lanes;
  let control = (List.hd lanes).client in
  let w0 = wire control in
  (* the window is cut into slices, the server's CPU read at each
     boundary; timings are medians over the slices, so a burst of
     outside load on the shared host moves one slice, not the result *)
  let slices = max 1 (int_of_float (Float.round (seconds /. slice_target_s))) in
  let slice_s = seconds /. float_of_int slices in
  let t0 = now () in
  let deadline = t0 +. seconds in
  let cpu = Array.make (slices + 1) (cpu_s server.pid) in
  let sample () =
    for k = 1 to slices do
      Thread.delay (Float.max 0. (t0 +. (float_of_int k *. slice_s) -. now ()));
      cpu.(k) <- cpu_s server.pid
    done
  in
  let window =
    in_parallel ~meanwhile:sample lanes (fun lane t ->
        drive lane t ~until:(fun _ -> now () >= deadline))
  in
  let window_s = now () -. t0 in
  let rss = vm_hwm_mb server.pid in
  let w1 = wire control in
  List.iter2
    (fun lane t ->
      if lane.pos > lane.forced then
        Printf.printf "checking %d replies past the pre-computed stream\n" (lane.pos - lane.forced);
      (* the traced replay reads expectations up to here as well *)
      force lane t (max lane.pos (w.W.warmup + (w.W.traced / w.W.conns))))
    lanes window;
  List.iter (fun lane -> Client.close lane.client) lanes;
  stop server;
  let ok = float_of_int (sum (fun t -> t.ok) window) in
  let attempted = sum (fun t -> t.sent) window in
  let failed = sum failures window in
  let failed_ratio = ratio (float_of_int failed) (float_of_int attempted) in
  let reads = List.concat_map (fun t -> t.reads) window in
  let writes = List.concat_map (fun t -> t.writes) window in
  let slice k xs =
    let lo = t0 +. (float_of_int k *. slice_s) in
    List.filter_map (fun (at, ms) -> if at >= lo && at < lo +. slice_s then Some ms else None) xs
  in
  let per_slice f = median (List.init slices f) in
  let slice_ops k = float_of_int (List.length (slice k reads) + List.length (slice k writes)) in
  let pct p xs = per_slice (fun k -> percentile (slice k xs) p) in
  Printf.printf "%s: %d requests in %.2fs (%d reads, %d writes), %d failed\n  ops/s by slice:"
    w.W.name attempted window_s (List.length reads) (List.length writes) failed;
  for k = 0 to slices - 1 do
    Printf.printf " %.0f" (slice_ops k /. slice_s)
  done;
  print_newline ();
  let e2e =
    [
      ("throughput_ops", per_slice (fun k -> slice_ops k /. slice_s), "ops/s");
      ("read_p50_ms", pct 50. reads, "ms");
      ("read_p99_ms", pct 99. reads, "ms");
      ( "server_cpu_us_per_op",
        per_slice (fun k -> (cpu.(k + 1) -. cpu.(k)) *. 1e6 /. slice_ops k),
        "us" );
      ("server_rss_peak_mb", rss, "MB");
      ("setup_s", setup_s, "s");
      (* zero on the read-only workloads, so reported with the layers *)
      ("write_p50_ms", pct 50. writes, "ms");
      ("write_p99_ms", pct 99. writes, "ms");
      ("failed_ratio", failed_ratio, "ratio");
    ]
  in
  let d = delta w0 w1 in
  let sel_s, sel_n = hist w0 w1 "eds_query_duration_seconds" "{verb=\"select\"}" in
  let wr_s, wr_n = hist w0 w1 "eds_query_duration_seconds" "{verb=\"write\"}" in
  let phase_us p =
    let s, n = hist w0 w1 "eds_phase_duration_seconds" (Printf.sprintf "{phase=\"%s\"}" p) in
    ratio (s *. 1e6) n
  in
  let fsync_s, fsync_n = hist w0 w1 "eds_wal_fsync_duration_seconds" "" in
  let hits = d "server.plan_cache.hits" and misses = d "server.plan_cache.misses" in
  let runs = d "session.mviews.maintenance_runs" in
  let nw = float_of_int (List.length writes) in
  let user_bytes = float_of_int (sum (fun t -> t.write_bytes) window) in
  let service_ms = ratio ((sel_s +. wr_s) *. 1000.) (sel_n +. wr_n) in
  let wire_layers =
    [
      ("server.wait_ms_per_op", mean (List.map snd (reads @ writes)) -. service_ms, "ms");
      ("server.select_service_ms_mean", ratio (sel_s *. 1000.) sel_n, "ms");
      ("server.write_service_ms_mean", ratio (wr_s *. 1000.) wr_n, "ms");
      ("protocol.ping_p50_ms", percentile (List.concat_map (fun t -> t.pings) window) 50., "ms");
      ( "protocol.reply_bytes_per_op",
        ratio (float_of_int (sum (fun t -> t.reply_bytes) window)) ok,
        "bytes" );
      ("stream.repeat_share", repeat_share lanes, "ratio");
      ("plan_cache.hit_ratio", ratio hits (hits +. misses), "ratio");
      ("plan_cache.evictions_per_op", ratio (d "server.plan_cache.evictions") ok, "count");
      ("rwlock.write_acq_per_op", ratio (d "server.rwlock.write_acquired") ok, "count");
      ("rwlock.read_acq", d "server.rwlock.read_acquired", "count");
      ("parser.wire_us_per_plan", phase_us "parse", "us");
      ("translate.wire_us_per_plan", phase_us "translate", "us");
      ("optimizer.wire_rewrite_us_per_plan", phase_us "rewrite", "us");
      ("eval.wire_exec_us_per_op", phase_us "execute", "us");
      ("materializer.runs_per_write", ratio runs nw, "count");
      ("materializer.fallback_ratio", ratio (d "session.mviews.fallback_recomputes") runs, "ratio");
      ("materializer.delta_tuples_per_write", ratio (d "session.mviews.delta_tuples") nw, "count");
      ( "eval.fix_cache_invalidations_per_write",
        ratio (d "session.fix_cache.invalidations") nw,
        "count" );
      ("wal.fsyncs_per_commit", ratio (d "wal.fsyncs") (d "wal.commits"), "count");
      ("wal.fsync_ms_mean", ratio (fsync_s *. 1000.) fsync_n, "ms");
      ("wal.bytes_per_user_byte", ratio (d "wal.bytes") user_bytes, "ratio");
    ]
  in
  (* the traced replay interleaves the connections' streams *)
  let interleave first n =
    let arrays = Array.of_list (List.map (fun lane -> lane.ops) lanes) in
    Array.init n (fun i -> arrays.(i mod w.W.conns).(first + (i / w.W.conns)))
  in
  let streams = (interleave 0 (w.W.warmup * w.W.conns), interleave w.W.warmup w.W.traced) in
  ({ correct = failed = 0; attempted; failed; metrics = e2e @ wire_layers }, streams)

(* -- the traced run --------------------------------------------------- *)

let layer_metrics ~dir ~trace_file (w : W.t) (warmup, ops) =
  let replay i traced =
    let d = Filename.concat dir (Printf.sprintf "replay%d" i) in
    mkdir_p d;
    Trace.replay ~dir:d ~traced w ~warmup ops
  in
  (* traced and untraced replays alternate; the fastest of each gives
     the tracing overhead, and all four must count the same work *)
  let a = replay 0 true in
  let plain = replay 1 false in
  let b = replay 2 true in
  let plain' = replay 3 false in
  let counts r = Trace.count_list r.Trace.counts in
  let repeat = List.for_all (fun r -> counts r = counts a) [ plain; b; plain' ] in
  if not repeat then prerr_endline "perfbench: work counts differ between replays of one stream";
  let fastest x y = Float.min x.Trace.wall_s y.Trace.wall_s in
  Trace.write_chrome trace_file a.Trace.spans;
  let c = a.Trace.counts and spans = a.Trace.spans in
  let self = Trace.self_by_layer spans in
  let total = Trace.sum_spans spans "request" in
  let share ls =
    let layer l = Option.value ~default:0. (Hashtbl.find_opt self l) in
    ratio (List.fold_left (fun acc l -> acc +. layer l) 0. ls) total
  in
  let unattributed = share [ "unattributed" ] in
  if unattributed > 0.05 then
    Printf.eprintf "perfbench: %.1f%% of the traced time is in no layer\n%!" (100. *. unattributed);
  let f = float_of_int in
  let misses = f c.Trace.misses and selects = f c.Trace.selects and writes = f c.Trace.writes in
  let us_per n seconds = ratio (seconds *. 1e6) n in
  let spans_us n name = us_per n (Trace.sum_spans spans name) in
  let e = c.Trace.engine and v = c.Trace.eval in
  let block name = Option.value ~default:0. (List.assoc_opt name a.Trace.blocks) in
  let blocks = [ "merging"; "fixpoint"; "permutation"; "semantic"; "simplification" ] in
  let fix_lookups = v.Session.Eval.fix_cache_hits + v.Session.Eval.fix_cache_misses in
  let index_lookups = e.Session.Engine.index_hits + e.Session.Engine.index_misses in
  ( repeat && c.Trace.mismatches = 0,
    [
      ("planner.plan_us_per_miss", us_per misses c.Trace.plan_miss_s, "us");
      ("planner.misses_per_select", ratio misses selects, "ratio");
      ("parser.us_per_plan", spans_us misses "Parser.parse", "us");
      ("translate.us_per_plan", spans_us misses "Translate.select", "us");
      ("optimizer.rewrite_us_per_plan", spans_us misses "Optimizer.rewrite", "us");
    ]
    @ List.map
        (fun b -> (Printf.sprintf "engine.block.%s.us_per_plan" b, us_per misses (block b), "us"))
        blocks
    @ [
        ("engine.match_attempts_per_plan", ratio (f e.Session.Engine.match_attempts) misses, "count");
        ("engine.conditions_per_plan", ratio (f e.Session.Engine.conditions_checked) misses, "count");
        ( "engine.fire_ratio",
          ratio (f e.Session.Engine.rewrites_applied) (f e.Session.Engine.match_attempts),
          "ratio" );
        ("engine.index_skip_ratio", ratio (f e.Session.Engine.index_hits) (f index_lookups), "ratio");
        ("eval.exec_us_per_op", spans_us selects "Session.run_plan", "us");
        ( "eval.tuples_read_per_row",
          ratio (f v.Session.Eval.tuples_read) (f (max 1 c.Trace.rows)),
          "ratio" );
        ("eval.combinations_per_op", ratio (f v.Session.Eval.combinations) selects, "count");
        ("eval.probes_per_op", ratio (f v.Session.Eval.probes) selects, "count");
        ("eval.builds_per_op", ratio (f v.Session.Eval.builds) selects, "count");
        ("eval.columnar_op_share", ratio (f c.Trace.columnar_selects) selects, "ratio");
        ("eval.fix_cache_hit_ratio", ratio (f v.Session.Eval.fix_cache_hits) (f fix_lookups), "ratio");
        ("eval.alloc_kwords_per_op", ratio (c.Trace.alloc_words /. 1000.) selects, "kwords");
        ("render.us_per_op", spans_us (selects +. writes) "Repl.print_result", "us");
        ("session.write_us_per_write", spans_us writes "Session.exec_string", "us");
        ("trace.materializer_runs_per_write", ratio (f c.Trace.mv_runs) writes, "count");
        ("trace.wal_commits_per_write", ratio (f c.Trace.wal_commits) writes, "count");
        ("trace.plan_share", share [ "planner"; "parser"; "translate"; "optimizer"; "engine" ], "ratio");
        ("trace.eval_share", share [ "eval" ], "ratio");
        ("trace.render_share", share [ "render" ], "ratio");
        ("trace.write_share", share [ "session" ], "ratio");
        ("trace.wal_share", share [ "wal" ], "ratio");
        ("trace.unattributed_share", unattributed, "ratio");
        ("trace.overhead_share", ratio (fastest a b) (fastest plain plain') -. 1., "ratio");
        ("trace.counts_repeat", (if repeat then 1. else 0.), "bool");
      ] )

(* -- command line ----------------------------------------------------- *)

let () =
  let edsd = ref "" and workload = ref "" and seed = ref 1 and seconds = ref 10.
  and trace = ref 0 in
  Arg.parse
    [
      ("--edsd", Arg.Set_string edsd, "PATH the edsd executable");
      ("--workload", Arg.Set_string workload, "NAME " ^ String.concat " | " (List.map fst W.all));
      ("--seed", Arg.Set_int seed, "N seed of the data and the request streams");
      ("--seconds", Arg.Set_float seconds, "S length of the measured window");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end metrics, or per-layer ones from a traced replay");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --edsd PATH --workload NAME --seed N --seconds S --trace 0|1";
  let make =
    match List.assoc_opt !workload W.all with
    | Some make -> make
    | None ->
        prerr_endline ("perfbench: unknown workload " ^ !workload);
        exit 2
  in
  if not (Sys.file_exists !edsd) then begin
    prerr_endline ("perfbench: no edsd at " ^ !edsd);
    exit 2
  end;
  let w = make !seed in
  let dir = Filename.concat "perfbench/_run" (Printf.sprintf "%s-%d" w.W.name (Unix.getpid ())) in
  mkdir_p dir;
  at_exit (fun () ->
      List.iter reap !live;
      rm_rf dir);
  let traced = !trace = 1 in
  match
    let r, streams = measure ~edsd:!edsd ~dir ~seconds:!seconds w in
    if not traced then r
    else begin
      mkdir_p "perfbench/_traces";
      let trace_file = Printf.sprintf "perfbench/_traces/%s-seed%d.json" w.W.name !seed in
      let ok, layers = layer_metrics ~dir ~trace_file w streams in
      { r with correct = r.correct && ok; metrics = r.metrics @ layers }
    end
  with
  | exception e ->
      Printf.eprintf "perfbench: %s\n%!" (Printexc.to_string e);
      exit 2
  | r ->
      List.iter (fun (n, v, u) -> Printf.printf "  %-40s %14.4f %s\n" n v u) r.metrics;
      let shown = List.filter (fun (n, _, _) -> List.mem n end_to_end = not traced) r.metrics in
      let metric (n, v, u) = (n, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str u) ]) in
      print_endline
        (Json.to_string
           (Json.Obj
              [
                ("correct", Json.Bool r.correct);
                ("attempted", Json.Int r.attempted);
                ("failed", Json.Int r.failed);
                ("metrics", Json.Obj (List.map metric shown));
              ]));
      exit (if r.correct then 0 else 1)
