(* The traced run: a workload's seeded request stream replayed
   sequentially in-process, on a session set up as edsd sets up its own,
   through the same public calls edsd makes per request.  The benchmark
   records one span per call, named for the call and tagged with the
   layer it enters; a miss's parse / translate / rewrite phases and the
   rewrite blocks become child spans built from the program's own
   timers.  Spans stay in memory and are written out when the run ends. *)

module Session = Eds.Session
module Wal = Eds.Wal
module Planner = Eds_server.Planner
module Metrics = Eds_obs.Metrics
module Json = Eds_obs.Obs.Json
module Eval = Session.Eval
module Engine = Session.Engine
module W = Workloads

type span = {
  id : int;
  parent : int;  (** -1 for a request's root span *)
  req : int;
  name : string;
  layer : string;
  t0 : float;
  t1 : float;
}

type recorder = {
  on : bool;
  mutable spans : span list;  (** newest first *)
  mutable next : int;
  mutable current : int;
  mutable req : int;
}

let recorder on = { on; spans = []; next = 0; current = -1; req = 0 }

let add r ~parent ~name ~layer t0 t1 =
  let id = r.next in
  r.next <- id + 1;
  r.spans <- { id; parent; req = r.req; name; layer; t0; t1 } :: r.spans;
  id

(* [f ()], with the span's id, start and end (-1 and zeros when off) *)
let span r ~name ~layer f =
  if not r.on then (f (), -1, 0., 0.)
  else begin
    let parent = r.current in
    let id = r.next in
    r.next <- id + 1;
    r.current <- id;
    let t0 = Unix.gettimeofday () in
    let result = Fun.protect ~finally:(fun () -> r.current <- parent) f in
    let t1 = Unix.gettimeofday () in
    r.spans <- { id; parent; req = r.req; name; layer; t0; t1 } :: r.spans;
    (result, id, t0, t1)
  end

(* The phase histograms Session.explain feeds (registration returns the
   existing cells): their sums' deltas around a miss are its parse /
   translate / rewrite times. *)
let phases =
  List.map
    (fun (phase, name, layer) ->
      (Metrics.histogram ~labels:[ ("phase", phase) ] "eds_phase_duration_seconds", name, layer))
    [
      ("parse", "Parser.parse", "parser");
      ("translate", "Translate.select", "translate");
      ("rewrite", "Optimizer.rewrite", "optimizer");
    ]

let phase_sums () =
  List.map (fun (h, _, _) -> (Metrics.Histogram.snapshot h).Metrics.Histogram.sum) phases

(* Work counters of one replay; every replay of one stream must agree on
   all of them (the two float fields are times, not counts). *)
type counts = {
  mutable selects : int;
  mutable writes : int;
  mutable misses : int;
  mutable rows : int;
  mutable columnar_selects : int;
  mutable alloc_words : float;
  mutable plan_miss_s : float;  (** Planner.plan time of the misses *)
  engine : Engine.stats;
  eval : Eval.stats;
  mutable mv_runs : int;
  mutable mv_fallbacks : int;
  mutable mv_delta : int;
  mutable wal_commits : int;
  mutable mismatches : int;
}

let fresh_counts () =
  {
    selects = 0; writes = 0; misses = 0; rows = 0; columnar_selects = 0; alloc_words = 0.;
    plan_miss_s = 0.; engine = Engine.fresh_stats (); eval = Eval.fresh_stats ();
    mv_runs = 0; mv_fallbacks = 0; mv_delta = 0; wal_commits = 0; mismatches = 0;
  }

let count_list c =
  let e = c.engine and v = c.eval in
  [
    c.selects; c.writes; c.misses; c.rows; c.columnar_selects;
    e.Engine.match_attempts; e.Engine.conditions_checked; e.Engine.rewrites_applied;
    e.Engine.nodes_visited; e.Engine.index_hits; e.Engine.index_misses;
    v.Eval.combinations; v.Eval.tuples_read; v.Eval.tuples_produced; v.Eval.probes;
    v.Eval.builds; v.Eval.fix_iterations; v.Eval.fix_cache_hits; v.Eval.fix_cache_misses;
    v.Eval.columnar_ops; c.mv_runs; c.mv_fallbacks; c.mv_delta; c.wal_commits; c.mismatches;
  ]

let add_engine (acc : Engine.stats) (s : Engine.stats) =
  acc.Engine.match_attempts <- acc.Engine.match_attempts + s.Engine.match_attempts;
  acc.Engine.conditions_checked <- acc.Engine.conditions_checked + s.Engine.conditions_checked;
  acc.Engine.rewrites_applied <- acc.Engine.rewrites_applied + s.Engine.rewrites_applied;
  acc.Engine.nodes_visited <- acc.Engine.nodes_visited + s.Engine.nodes_visited;
  acc.Engine.index_hits <- acc.Engine.index_hits + s.Engine.index_hits;
  acc.Engine.index_misses <- acc.Engine.index_misses + s.Engine.index_misses

type replay = {
  wall_s : float;
  counts : counts;
  spans : span list;
  blocks : (string * float) list;  (** rewrite seconds per block name *)
}

(* the materializer's counters are one mutable record: copy them out *)
let mv_counts session =
  let m = Session.mv_stats session in
  Session.Materializer.(m.maintenance_runs, m.fallback_recomputes, m.delta_tuples)

(* Set up a session as edsd does ([edsd --db] recovers it and logs every
   committed statement), run [warmup] unrecorded, then run [ops] through
   the calls edsd makes, recording spans when [traced]. *)
let replay ~dir ~traced (w : W.t) ~warmup ops =
  let session, wal =
    if w.W.durable then begin
      let db = Filename.concat dir "db.esql" in
      let session, handle, _ = Wal.Manager.recover ~sync:true ~db () in
      (session, Some handle)
    end
    else (Session.create (), None)
  in
  List.iter
    (fun stmt ->
      ignore (Session.exec_string session stmt);
      Option.iter (fun h -> Wal.Manager.log h stmt) wal)
    w.W.setup;
  let planner = Planner.create ~capacity:256 session in
  let select r c text =
    let miss = ref None in
    let exclusive f =
      let rel, id, t0, _ = span r ~name:"Session.explain" ~layer:"planner" f in
      miss := Some (id, t0);
      rel
    in
    let plan, _, p0, p1 =
      span r ~name:"Planner.plan" ~layer:"planner" (fun () ->
          fst (Planner.plan ~exclusive planner text))
    in
    if !miss <> None then c.plan_miss_s <- c.plan_miss_s +. (p1 -. p0);
    let stats = Eval.fresh_stats () in
    let db = Session.snapshot_db session in
    let alloc0 = Gc.allocated_bytes () in
    let rel, _, _, _ =
      span r ~name:"Session.run_plan" ~layer:"eval" (fun () ->
          Session.run_plan ~stats ~db session plan)
    in
    c.alloc_words <- c.alloc_words +. ((Gc.allocated_bytes () -. alloc0) /. 8.);
    c.selects <- c.selects + 1;
    c.rows <- c.rows + Session.Relation.cardinality rel;
    if stats.Eval.columnar_ops > 0 then c.columnar_selects <- c.columnar_selects + 1;
    Eval.add_stats c.eval stats;
    let payload, _, _, _ =
      span r ~name:"Repl.print_result" ~layer:"render" (fun () ->
          W.render (Session.Rows rel))
    in
    (payload, !miss)
  in
  let write r c text =
    let runs0, fallbacks0, delta0 = mv_counts session in
    let result, _, _, _ =
      span r ~name:"Session.exec_string" ~layer:"session" (fun () ->
          Session.exec_string session text)
    in
    let runs1, fallbacks1, delta1 = mv_counts session in
    c.mv_runs <- c.mv_runs + runs1 - runs0;
    c.mv_fallbacks <- c.mv_fallbacks + fallbacks1 - fallbacks0;
    c.mv_delta <- c.mv_delta + delta1 - delta0;
    c.writes <- c.writes + 1;
    Option.iter
      (fun h ->
        let mark, _, _, _ =
          span r ~name:"Wal.Manager.log_nosync" ~layer:"wal" (fun () ->
              Wal.Manager.log_nosync h text)
        in
        ignore (span r ~name:"Wal.Manager.sync" ~layer:"wal" (fun () -> Wal.Manager.sync h mark)))
      wal;
    let payload, _, _, _ =
      span r ~name:"Repl.print_result" ~layer:"render" (fun () -> W.render result)
    in
    (payload, None)
  in
  (* a miss's phases, laid out in pipeline order from the start of the
     miss section, and its blocks in order inside rewrite *)
  let add_phases r ~explain_id ~explain_t0 before after (stats : Engine.stats) =
    let t = ref explain_t0 in
    List.iter2
      (fun (_, name, layer) (b, a) ->
        let t0 = !t in
        t := t0 +. (a -. b);
        let id = add r ~parent:explain_id ~name ~layer t0 !t in
        if layer = "optimizer" then begin
          let tb = ref t0 in
          List.iter
            (fun (block, (bs : Engine.block_stats)) ->
              let b0 = !tb in
              tb := b0 +. bs.Engine.time_s;
              ignore (add r ~parent:id ~name:("Engine.block." ^ block) ~layer:"engine" b0 !tb))
            stats.Engine.per_block
        end)
      phases (List.combine before after)
  in
  let run r c blocks i (op : W.op) =
    r.req <- i;
    let before = if r.on then phase_sums () else [] in
    let (payload, miss), _, _, _ =
      span r ~name:"request" ~layer:"unattributed" (fun () ->
          match op.W.kind with
          | W.Read -> select r c op.W.text
          | W.Write -> write r c op.W.text)
    in
    if payload <> Lazy.force op.W.expect then c.mismatches <- c.mismatches + 1;
    Option.iter
      (fun (explain_id, explain_t0) ->
        c.misses <- c.misses + 1;
        let stats = Option.get (Session.last_rewrite_stats session) in
        add_engine c.engine stats;
        List.iter
          (fun (name, (b : Engine.block_stats)) ->
            let prev = Option.value ~default:0. (Hashtbl.find_opt blocks name) in
            Hashtbl.replace blocks name (prev +. b.Engine.time_s))
          stats.Engine.per_block;
        if r.on then add_phases r ~explain_id ~explain_t0 before (phase_sums ()) stats)
      miss
  in
  let commits () =
    match wal with Some h -> (Wal.Manager.stats h).Wal.Manager.commits | None -> 0
  in
  Array.iteri (run (recorder false) (fresh_counts ()) (Hashtbl.create 8)) warmup;
  let r = recorder traced and c = fresh_counts () and blocks = Hashtbl.create 8 in
  let commits0 = commits () in
  let t_start = Unix.gettimeofday () in
  Array.iteri (run r c blocks) ops;
  let wall_s = Unix.gettimeofday () -. t_start in
  c.wal_commits <- commits () - commits0;
  Option.iter Wal.Manager.close wal;
  { wall_s; counts = c; spans = r.spans; blocks = List.of_seq (Hashtbl.to_seq blocks) }

(* Self time per layer: each span's duration minus the part its
   children cover (children never overlap one another). *)
let self_by_layer spans =
  let add tbl key x = Hashtbl.replace tbl key (x +. Option.value ~default:0. (Hashtbl.find_opt tbl key)) in
  let children = Hashtbl.create 1024 and layers = Hashtbl.create 16 in
  List.iter (fun s -> if s.parent >= 0 then add children s.parent (s.t1 -. s.t0)) spans;
  List.iter
    (fun s ->
      let covered = Option.value ~default:0. (Hashtbl.find_opt children s.id) in
      add layers s.layer (s.t1 -. s.t0 -. covered))
    spans;
  layers

let sum_spans spans name =
  List.fold_left (fun acc s -> if s.name = name then acc +. (s.t1 -. s.t0) else acc) 0. spans

(* Chrome trace-event JSON: loads in Perfetto or chrome://tracing *)
let write_chrome path spans =
  let event s =
    Json.Obj
      [
        ("name", Json.Str s.name);
        ("cat", Json.Str s.layer);
        ("ph", Json.Str "X");
        ("ts", Json.Float (s.t0 *. 1e6));
        ("dur", Json.Float ((s.t1 -. s.t0) *. 1e6));
        ("pid", Json.Int 1);
        ("tid", Json.Int 1);
        ( "args",
          Json.Obj
            [ ("req", Json.Int s.req); ("id", Json.Int s.id); ("parent", Json.Int s.parent) ] );
      ]
  in
  let trace = Json.Obj [ ("traceEvents", Json.List (List.rev_map event spans)) ] in
  Out_channel.with_open_text path (fun oc -> output_string oc (Json.to_string trace))
