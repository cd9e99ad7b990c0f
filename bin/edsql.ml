(* edsql — an interactive shell and script runner for the EDS rewriter.

   Statements are ESQL; shell directives start with a dot — see [.help]
   for the full list.  All the shell logic lives in {!Eds.Repl} (so the
   test suite can drive it); this executable only parses the command
   line and wires stdin/stdout.  Setting EDS_TRACE=<file> in the
   environment traces the whole run to a Chrome trace-event file. *)

module Session = Eds.Session
module Repl = Eds.Repl
module Storage = Eds.Storage
module Client = Eds_server.Client
module Protocol = Eds_server.Protocol

open Cmdliner

let file_arg =
  Arg.(value & opt (some string) None & info [ "f"; "file" ] ~docv:"FILE"
         ~doc:"Execute the ESQL script $(docv) instead of starting the REPL.")

let explain_arg =
  Arg.(value & flag & info [ "explain" ] ~doc:"Print plans for every SELECT.")

let norewrite_arg =
  Arg.(value & flag & info [ "no-rewrite" ] ~doc:"Disable the query rewriter.")

let limits_arg =
  Arg.(value & opt (some int) None & info [ "limits" ]
         ~doc:"Apply this limit to every rule block (negative = infinite).")

let connect_arg =
  Arg.(value & opt (some string) None & info [ "connect" ] ~docv:"HOST:PORT"
         ~doc:"Attach to a running edsd server instead of evaluating \
               locally; every line but .quit/.exit is sent over the wire \
               verbatim (the server refuses other shell directives).")

let db_arg =
  Arg.(value & opt (some string) None & info [ "db" ] ~docv:"FILE"
         ~doc:"Load this database dump (written by .save) on boot.")

(* the remote loop: the server already does per-line recovery, rendering
   and prompt-less framing, so the client just shuttles lines.  The
   server refuses shell directives, so .quit/.exit close locally. *)
let remote_repl target =
  let host, port =
    match String.rindex_opt target ':' with
    | Some i -> (
      let host = String.sub target 0 i in
      let port = String.sub target (i + 1) (String.length target - i - 1) in
      match int_of_string_opt port with
      | Some p -> ((if host = "" then "127.0.0.1" else host), p)
      | None -> Fmt.epr "error: bad port in %S@." target; exit 1)
    | None -> Fmt.epr "error: --connect expects HOST:PORT@."; exit 1
  in
  let client =
    try Client.connect ~host port with
    | Unix.Unix_error (e, _, _) ->
      Fmt.epr "error: cannot connect to %s:%d: %s@." host port
        (Unix.error_message e);
      exit 1
  in
  Fmt.pr "edsql — connected to edsd at %s:%d (.quit or QUIT to leave)@." host port;
  let rec loop () =
    match In_channel.input_line stdin with
    | None -> Client.close client
    | Some line when String.trim line = "" -> loop ()
    | Some line when List.mem (String.trim line) [ ".quit"; ".exit" ] ->
      Client.close client
    | Some line -> (
      match Client.request client line with
      | Protocol.Ok, payload ->
        print_string payload;
        flush stdout;
        if String.uppercase_ascii (String.trim line) = "QUIT" then Client.close client
        else loop ()
      | (Protocol.Error | Protocol.Busy), payload ->
        print_string payload;
        flush stdout;
        loop ()
      | exception (End_of_file | Unix.Unix_error _ | Sys_error _) ->
        Fmt.epr "error: server closed the connection@.";
        Client.close client;
        exit 1)
  in
  loop ()

let main file explain norewrite limits connect db =
  match connect with
  | Some target -> remote_repl target
  | None ->
  let session =
    match db with
    | Some path ->
      (try Storage.load path with
       | Storage.Storage_error msg | Session.Session_error msg | Sys_error msg ->
         Fmt.epr "error: cannot load %s: %s@." path msg;
         exit 1)
    | None -> Session.create ()
  in
  if norewrite then Session.set_rewriting session false;
  (match limits with
  | Some n -> Session.set_config session (Repl.limits_config n)
  | None -> ());
  (* EDS_TRACE=<file> traces the whole run; the finaliser writes the
     closing bracket even on early exit *)
  (match Sys.getenv_opt "EDS_TRACE" with
  | Some path when path <> "" -> Repl.start_tracing path
  | _ -> ());
  at_exit Repl.stop_tracing;
  match file with
  | Some path -> (
    try Repl.run_file ~explain session path with
    | Session.Session_error msg | Eds_esql.Parser.Parse_error msg ->
      Fmt.epr "error: %s@." msg;
      exit 1)
  | None ->
    ignore
      (Repl.repl ~read_line:(fun () -> In_channel.input_line stdin) session)

let cmd =
  let doc = "an extensible rule-based query rewriter (ICDE 1991 reproduction)" in
  Cmd.v (Cmd.info "edsql" ~doc)
    Term.(const main $ file_arg $ explain_arg $ norewrite_arg $ limits_arg
          $ connect_arg $ db_arg)

let () = exit (Cmd.eval cmd)
