type status = Ok | Error | Busy

let status_to_string = function Ok -> "ok" | Error -> "error" | Busy -> "busy"

let status_of_string = function
  | "ok" -> Some Ok
  | "error" -> Some Error
  | "busy" -> Some Busy
  | _ -> None

let write_response oc status payload =
  Printf.fprintf oc "%s %d\n" (status_to_string status) (String.length payload);
  output_string oc payload;
  flush oc

let read_response ic =
  match input_line ic with
  | exception End_of_file -> None
  | header -> (
      match String.split_on_char ' ' (String.trim header) with
      | [ word; n ] -> (
          match (status_of_string word, int_of_string_opt n) with
          | Some status, Some n when n >= 0 ->
              let payload = really_input_string ic n in
              Some (status, payload)
          | _ -> failwith (Printf.sprintf "malformed response header: %S" header))
      | _ -> failwith (Printf.sprintf "malformed response header: %S" header))

let max_request_bytes = 1 lsl 20

type reader = { fd : Unix.file_descr; buf : Bytes.t; mutable pos : int; mutable len : int }

let reader fd = { fd; buf = Bytes.create 65536; pos = 0; len = 0 }

let rec refill r =
  match Unix.read r.fd r.buf 0 (Bytes.length r.buf) with
  | n ->
      r.pos <- 0;
      r.len <- n
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> refill r

(* Scan the buffered bytes for a newline and refill from the socket
   until one arrives; the line buffer never holds more than
   [max_request_bytes] plus one chunk. *)
let read_request r =
  let line = Buffer.create 128 in
  let rec go () =
    if r.pos = r.len then refill r;
    if r.len = 0 then if Buffer.length line = 0 then `Eof else `Line (Buffer.contents line)
    else begin
      let stop = ref r.pos in
      while !stop < r.len && Bytes.get r.buf !stop <> '\n' do
        incr stop
      done;
      Buffer.add_subbytes line r.buf r.pos (!stop - r.pos);
      r.pos <- min r.len (!stop + 1);
      if Buffer.length line > max_request_bytes then `Too_long
      else if !stop < r.len then `Line (Buffer.contents line)
      else go ()
    end
  in
  go ()

let send_request oc line =
  if String.contains line '\n' then invalid_arg "Protocol.send_request: embedded newline";
  output_string oc line;
  output_char oc '\n';
  flush oc
