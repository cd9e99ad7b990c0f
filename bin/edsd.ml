(* edsd — the EDS query server daemon.

   Serves the edsd wire protocol (see {!Eds_server.Protocol}) on a TCP
   port: ESQL statements, EXPLAIN and the uppercase server commands
   (VERIFY RULES / HELP / PING / STATS / METRICS / SAVE / QUIT).  edsql
   dot-directives are refused: rules, limits and the physical layer are
   fixed when the daemon starts.  Attach an interactive shell with
   [edsql --connect HOST:PORT], or talk to it with [nc].  Stops cleanly
   on SIGINT/SIGTERM.

   With --db the daemon is durable: boot recovers the checkpoint dump
   plus the paired write-ahead log (FILE.wal), every committed write is
   fsync'd to the log before it is acknowledged, SAVE FILE compacts the
   log into a fresh checkpoint, and a clean shutdown checkpoints so the
   next boot replays nothing.  kill -9 loses at most unacknowledged
   statements. *)

module Session = Eds.Session
module Storage = Eds.Storage
module Wal = Eds.Wal
module Server = Eds_server.Server

open Cmdliner

let host_arg =
  Arg.(value & opt string "127.0.0.1" & info [ "host" ] ~docv:"ADDR"
         ~doc:"Bind address.")

let port_arg =
  Arg.(value & opt int 7878 & info [ "p"; "port" ] ~docv:"PORT"
         ~doc:"TCP port (0 picks an ephemeral one, printed on boot).")

let db_arg =
  Arg.(value & opt (some string) None & info [ "db" ] ~docv:"FILE"
         ~doc:"Durable database: recover $(docv) plus its write-ahead log \
               ($(docv).wal) on boot, log every committed write, checkpoint \
               on SAVE $(docv) and on clean shutdown.")

let no_fsync_arg =
  Arg.(value & flag & info [ "no-fsync" ]
         ~doc:"Do not fsync the write-ahead log on every commit (faster, \
               but a crash may lose acknowledged statements).")

let max_conns_arg =
  Arg.(value & opt int 64 & info [ "max-connections" ] ~docv:"N"
         ~doc:"Serve at most $(docv) connections at once; beyond that new \
               connections are refused with a busy response.")

let backlog_arg =
  Arg.(value & opt int 16 & info [ "backlog" ] ~docv:"N"
         ~doc:"Kernel accept-queue bound.")

let timeout_arg =
  Arg.(value & opt int 30000 & info [ "timeout-ms" ] ~docv:"MS"
         ~doc:"Per-statement wall-clock budget; an overrunning query is \
               cancelled with an error while its connection survives.  \
               0 disables the budget.")

let cache_arg =
  Arg.(value & opt int 256 & info [ "cache" ] ~docv:"N"
         ~doc:"Shared rewrite-plan cache capacity (entries).")

let norewrite_arg =
  Arg.(value & flag & info [ "no-rewrite" ] ~doc:"Disable the query rewriter.")

let slow_ms_arg =
  Arg.(value & opt (some float) None & info [ "slow-ms" ] ~docv:"MS"
         ~doc:"Slow-query log: append one JSON line (query text, total and \
               per-phase latency, plan-cache origin, work counters) for every \
               request taking at least $(docv) milliseconds.")

let slow_log_arg =
  Arg.(value & opt (some string) None & info [ "slow-log" ] ~docv:"FILE"
         ~doc:"Append slow-query lines to $(docv) instead of stderr \
               (implies nothing without --slow-ms).")

(* one line per append, O_APPEND so concurrent daemons interleave whole
   lines; opened lazily on the first slow query *)
let file_sink path =
  let lock = Mutex.create () in
  let oc =
    lazy (open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path)
  in
  fun line ->
    Mutex.lock lock;
    Fun.protect
      ~finally:(fun () -> Mutex.unlock lock)
      (fun () ->
        let oc = Lazy.force oc in
        output_string oc (line ^ "\n");
        flush oc)

let main host port db no_fsync max_connections backlog timeout_ms cache
    norewrite slow_ms slow_log =
  let session, wal =
    match db with
    | Some file ->
      (try
         let session, handle, replayed =
           Wal.Manager.recover ~sync:(not no_fsync) ~db:file ()
         in
         if replayed > 0 then
           Fmt.pr "edsd: replayed %d statement%s from %s@." replayed
             (if replayed = 1 then "" else "s")
             (Wal.Manager.wal_path file);
         (session, Some handle)
       with
       | Storage.Storage_error msg | Session.Session_error msg | Sys_error msg ->
         Fmt.epr "edsd: cannot recover %s: %s@." file msg;
         exit 1
       | Wal.Wal_error msg ->
         Fmt.epr "edsd: cannot open %s: %s@." (Wal.Manager.wal_path file) msg;
         exit 1)
    | None -> (Session.create (), None)
  in
  if norewrite then Session.set_rewriting session false;
  let config =
    {
      Server.host;
      port;
      max_connections;
      backlog;
      query_timeout =
        (if timeout_ms <= 0 then None else Some (float_of_int timeout_ms /. 1000.));
      cache_capacity = cache;
      slow_query_ms = slow_ms;
      slow_log = Option.map file_sink slow_log;
    }
  in
  let server =
    try Server.start ~config ?wal session with
    | Unix.Unix_error (e, _, _) ->
      Fmt.epr "edsd: cannot listen on %s:%d: %s@." host port (Unix.error_message e);
      exit 1
  in
  Fmt.pr "edsd: listening on %s:%d (%d max connections, plan cache %d)@." host
    (Server.port server) max_connections cache;
  (match db with
  | Some file -> Fmt.pr "edsd: durable database at %s (wal: %s)@." file
                   (Wal.Manager.wal_path file)
  | None -> ());
  let running = ref true in
  let request_stop _ = running := false in
  Sys.set_signal Sys.sigint (Sys.Signal_handle request_stop);
  Sys.set_signal Sys.sigterm (Sys.Signal_handle request_stop);
  (* the delay loop is the signal-polling point: handlers only set the
     flag, the main thread notices it here *)
  while !running do
    Thread.delay 0.1
  done;
  Fmt.pr "edsd: shutting down@.";
  Server.stop server;
  (* clean shutdown compacts: the next boot replays nothing *)
  (match wal with
  | Some handle ->
    Server.checkpoint server;
    Wal.Manager.close handle;
    Fmt.pr "edsd: checkpointed %s@." (Wal.Manager.db_path handle)
  | None -> ());
  let n key = int_of_float (Server.metric server key) in
  Fmt.pr "edsd: served %d connections (%d refused), %d ok / %d errors / %d timeouts@."
    (n "server.connections.accepted") (n "server.connections.refused")
    (n "server.queries.ok") (n "server.queries.errors") (n "server.queries.timeouts")

let cmd =
  let doc = "EDS query server: shared sessions, plan cache, admission control" in
  Cmd.v (Cmd.info "edsd" ~doc)
    Term.(const main $ host_arg $ port_arg $ db_arg $ no_fsync_arg $ max_conns_arg
          $ backlog_arg $ timeout_arg $ cache_arg $ norewrite_arg
          $ slow_ms_arg $ slow_log_arg)

let () = exit (Cmd.eval cmd)
