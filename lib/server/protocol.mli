(** The edsd wire protocol.

    Requests are single lines of at most {!max_request_bytes} bytes: an
    ESQL statement, [EXPLAIN], or an uppercase server command
    ([VERIFY RULES], [HELP], [PING], [STATS], [METRICS], [SAVE <path>],
    [QUIT]).  edsql shell directives ([.]-lines) are not part of the
    protocol.

    Responses are length-prefixed but still readable over [nc]:

    {v
    <status> <nbytes>\n
    <nbytes bytes of payload>
    v}

    where [<status>] is [ok], [error] or [busy].  The payload is UTF-8
    text (or JSON for [METRICS]) and, by convention, ends in a newline
    when non-empty so interactive use stays line-aligned. *)

type status = Ok | Error | Busy

val status_to_string : status -> string
val status_of_string : string -> status option

val write_response : out_channel -> status -> string -> unit
(** Emit one framed response and flush. *)

val read_response : in_channel -> (status * string) option
(** Read one framed response; [None] on clean EOF.  Raises [Failure] on
    a malformed frame (a non-protocol peer). *)

val max_request_bytes : int
(** 1 MiB: the longest request line the server reads. *)

type reader
(** A buffered request reader over a connected socket. *)

val reader : Unix.file_descr -> reader

val read_request : reader -> [ `Line of string | `Eof | `Too_long ]
(** The next request line without its ['\n'] (a final line cut short
    by EOF counts), [`Eof] at end of input, or [`Too_long] as soon as
    more than {!max_request_bytes} bytes arrive without a newline —
    memory stays bounded whatever the peer sends.  Raises
    [Unix.Unix_error] on a socket error. *)

val send_request : out_channel -> string -> unit
(** Send one request line (the line must not contain ['\n']) and
    flush. *)
