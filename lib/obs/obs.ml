(* Structured tracing for the whole pipeline (parse →
   translate → rewrite → evaluate).  The design goal is zero cost when
   disabled: the disabled state is the absence of a sink, so every
   instrumentation site is one load and one branch away from doing
   nothing — no event is allocated, no clock is read.  With a sink
   installed, events flow to one of two backends: a Chrome trace-event
   sink (openable in Perfetto / chrome://tracing) or an in-memory sink.

   The sink is the one process-wide cell here, on purpose: only the
   shell's [.trace-file] / [EDS_TRACE] sets it, and no request changes
   it.  Per-request state (the rule profile) travels in the rewrite
   context instead. *)

(* -- a minimal JSON codec ------------------------------------------------ *)

(* the toolchain has no JSON library; this covers what the trace sink,
   the benchmark emitter and the tests need *)
module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | Str of string
    | List of t list
    | Obj of (string * t) list

  let escape buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  (* JSON has no nan/infinity; a finite decimal form is required *)
  let float_repr f =
    if Float.is_nan f || f = Float.infinity || f = Float.neg_infinity then "null"
    else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
    else
      (* shortest representation that still round-trips — epoch-microsecond
         timestamps need more than the 12 significant digits that suffice
         for ordinary metric values *)
      let s = Printf.sprintf "%.12g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f

  let rec to_buffer buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | Str s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
    | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          to_buffer buf item)
        items;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape buf k;
          Buffer.add_string buf "\":";
          to_buffer buf v)
        fields;
      Buffer.add_char buf '}'

  let to_string j =
    let buf = Buffer.create 256 in
    to_buffer buf j;
    Buffer.contents buf

  let rec pp_indented ppf ~indent j =
    let pad n = String.make n ' ' in
    match j with
    | Obj fields when fields <> [] ->
      Fmt.pf ppf "{";
      List.iteri
        (fun i (k, v) ->
          Fmt.pf ppf "%s@\n%s%S: %a"
            (if i > 0 then "," else "")
            (pad (indent + 2)) k
            (pp_indented ~indent:(indent + 2))
            v)
        fields;
      Fmt.pf ppf "@\n%s}" (pad indent)
    | List items when items <> [] ->
      Fmt.pf ppf "[";
      List.iteri
        (fun i v ->
          Fmt.pf ppf "%s@\n%s%a"
            (if i > 0 then "," else "")
            (pad (indent + 2))
            (pp_indented ~indent:(indent + 2))
            v)
        items;
      Fmt.pf ppf "@\n%s]" (pad indent)
    | j -> Fmt.string ppf (to_string j)

  let pp ppf j = pp_indented ppf ~indent:0 j

  exception Parse_failure of string

  (* recursive-descent parser, sufficient for trace records and the
     benchmark snapshots *)
  let parse (s : string) : (t, string) result =
    let n = String.length s in
    let pos = ref 0 in
    let fail fmt = Fmt.kstr (fun m -> raise (Parse_failure m)) fmt in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let rec skip_ws () =
      match peek () with
      | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
      | _ -> ()
    in
    let expect c =
      match peek () with
      | Some d when d = c -> advance ()
      | Some d -> fail "expected %c at offset %d, got %c" c !pos d
      | None -> fail "expected %c at offset %d, got end of input" c !pos
    in
    let literal word value =
      if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        value
      end
      else fail "bad literal at offset %d" !pos
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string"
        else
          let c = s.[!pos] in
          advance ();
          match c with
          | '"' -> Buffer.contents buf
          | '\\' -> (
            if !pos >= n then fail "unterminated escape";
            let e = s.[!pos] in
            advance ();
            match e with
            | '"' | '\\' | '/' ->
              Buffer.add_char buf e;
              go ()
            | 'b' ->
              Buffer.add_char buf '\b';
              go ()
            | 'f' ->
              Buffer.add_char buf '\012';
              go ()
            | 'n' ->
              Buffer.add_char buf '\n';
              go ()
            | 'r' ->
              Buffer.add_char buf '\r';
              go ()
            | 't' ->
              Buffer.add_char buf '\t';
              go ()
            | 'u' ->
              if !pos + 4 > n then fail "bad \\u escape";
              let hex = String.sub s !pos 4 in
              pos := !pos + 4;
              let code =
                try int_of_string ("0x" ^ hex)
                with _ -> fail "bad \\u escape %s" hex
              in
              (match Uchar.of_int code with
              | u -> Buffer.add_utf_8_uchar buf u
              | exception Invalid_argument _ -> Buffer.add_char buf '?');
              go ()
            | e -> fail "bad escape \\%c" e)
          | c ->
            Buffer.add_char buf c;
            go ()
      in
      go ()
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && is_num_char s.[!pos] do
        advance ()
      done;
      let text = String.sub s start (!pos - start) in
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt text with
        | Some f -> Float f
        | None -> fail "bad number %s at offset %d" text start)
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> Str (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              items (v :: acc)
            | Some ']' ->
              advance ();
              List (List.rev (v :: acc))
            | _ -> fail "expected , or ] at offset %d" !pos
          in
          items []
        end
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec fields acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
              advance ();
              fields ((k, v) :: acc)
            | Some '}' ->
              advance ();
              Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected , or } at offset %d" !pos
          in
          fields []
        end
      | Some _ -> parse_number ()
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage at offset %d" !pos;
      v
    with
    | v -> Ok v
    | exception Parse_failure msg -> Error msg

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None

  let to_int = function Int i -> Some i | _ -> None
  let to_float = function Float f -> Some f | Int i -> Some (float_of_int i) | _ -> None
  let to_str = function Str s -> Some s | _ -> None
end

(* -- events and sinks ---------------------------------------------------- *)

type attrs = (string * Json.t) list

type event =
  | Begin of { name : string; cat : string; ts : float; attrs : attrs }
  | End of { name : string; cat : string; ts : float; attrs : attrs }
  | Complete of { name : string; cat : string; ts : float; dur : float; attrs : attrs }
  | Instant of { name : string; cat : string; ts : float; attrs : attrs }
  | Counter of { name : string; ts : float; value : float }

type sink = {
  emit : event -> unit;
  flush : unit -> unit;
  close : unit -> unit;  (** finalize the output (e.g. close the JSON array) *)
}

let now = Unix.gettimeofday

(* -- the global sink ----------------------------------------------------- *)

let sink_ref : sink option ref = ref None

let set_sink s =
  (match !sink_ref with
  | Some old ->
    old.flush ();
    old.close ()
  | None -> ());
  sink_ref := s

let enabled () = Option.is_some !sink_ref

let emit e = match !sink_ref with Some s -> s.emit e | None -> ()

let span_begin ?(cat = "eds") ?(attrs = []) name =
  match !sink_ref with
  | None -> ()
  | Some s -> s.emit (Begin { name; cat; ts = now (); attrs })

let span_end ?(cat = "eds") ?(attrs = []) name =
  match !sink_ref with
  | None -> ()
  | Some s -> s.emit (End { name; cat; ts = now (); attrs })

let span ?(cat = "eds") ?(attrs = []) name f =
  match !sink_ref with
  | None -> f ()
  | Some s ->
    s.emit (Begin { name; cat; ts = now (); attrs });
    Fun.protect
      ~finally:(fun () -> s.emit (End { name; cat; ts = now (); attrs = [] }))
      f

let instant ?(cat = "eds") ?(attrs = []) name =
  match !sink_ref with
  | None -> ()
  | Some s -> s.emit (Instant { name; cat; ts = now (); attrs })

let complete ?(cat = "eds") ?(attrs = []) name ~ts ~dur =
  match !sink_ref with
  | None -> ()
  | Some s -> s.emit (Complete { name; cat; ts; dur; attrs })

(* -- counters ------------------------------------------------------------- *)

(* A Chrome counter event, so a value graphs over time in Perfetto;
   always-on tallies live in {!Metrics}. *)
let counter name v =
  match !sink_ref with
  | Some s -> s.emit (Counter { name; ts = now (); value = v })
  | None -> ()

(* -- sink implementations ------------------------------------------------ *)

let memory_sink () =
  let events = ref [] in
  ( {
      emit = (fun e -> events := e :: !events);
      flush = ignore;
      close = ignore;
    },
    fun () -> List.rev !events )

(* Chrome trace-event format (the JSON array variant, one record per
   line, so the file doubles as JSON-Lines after stripping the array
   punctuation).  Loadable in Perfetto and chrome://tracing; the closing
   bracket is written by [close], but both viewers tolerate a truncated
   array, so a crashed run still loads. *)
let trace_event_json ?(pid = 1) ?(tid = 1) (e : event) : Json.t =
  let us t = Json.Float (t *. 1e6) in
  let base name cat ph ts attrs rest =
    let args = if attrs = [] then [] else [ ("args", Json.Obj attrs) ] in
    Json.Obj
      ([
         ("name", Json.Str name);
         ("cat", Json.Str (if cat = "" then "eds" else cat));
         ("ph", Json.Str ph);
         ("ts", us ts);
         ("pid", Json.Int pid);
         ("tid", Json.Int tid);
       ]
      @ rest @ args)
  in
  match e with
  | Begin { name; cat; ts; attrs } -> base name cat "B" ts attrs []
  | End { name; cat; ts; attrs } -> base name cat "E" ts attrs []
  | Complete { name; cat; ts; dur; attrs } ->
    base name cat "X" ts attrs [ ("dur", us dur) ]
  | Instant { name; cat; ts; attrs } ->
    base name cat "i" ts attrs [ ("s", Json.Str "t") ]
  | Counter { name; ts; value } ->
    base name "metric" "C" ts [] [ ("args", Json.Obj [ ("value", Json.Float value) ]) ]

let trace_sink ?(pid = 1) ?(tid = 1) oc =
  let first = ref true in
  let emit e =
    if !first then begin
      output_string oc "[\n";
      first := false
    end
    else output_string oc ",\n";
    output_string oc (Json.to_string (trace_event_json ~pid ~tid e))
  in
  let close () =
    if !first then output_string oc "[]\n"
    else output_string oc "\n]\n";
    Stdlib.flush oc
  in
  { emit; flush = (fun () -> Stdlib.flush oc); close }

(* -- the rule profiler --------------------------------------------------- *)

module Profile = struct
  type cell = {
    mutable attempts : int;  (** (rule, node) pairs handed to the matcher *)
    mutable fires : int;
    mutable constraint_vetoes : int;
        (** substitutions whose constraints evaluated false *)
    mutable method_vetoes : int;  (** substitutions vetoed by a method *)
    mutable budget_aborts : int;  (** attempts cut short by the block limit *)
    mutable time_s : float;  (** cumulative match + condition time *)
  }

  type t = {
    cells : (string * string, cell) Hashtbl.t;
    mutable order : (string * string) list;  (** insertion order, reversed *)
  }

  let create () = { cells = Hashtbl.create 64; order = [] }

  let cell t ~block ~rule =
    let key = (block, rule) in
    match Hashtbl.find_opt t.cells key with
    | Some c -> c
    | None ->
      let c =
        {
          attempts = 0;
          fires = 0;
          constraint_vetoes = 0;
          method_vetoes = 0;
          budget_aborts = 0;
          time_s = 0.;
        }
      in
      Hashtbl.add t.cells key c;
      t.order <- key :: t.order;
      c

  let cells t =
    List.rev_map (fun key -> (key, Hashtbl.find t.cells key)) t.order

  (* Rules that never fired.  [all_rules] (block, rule) pairs extend the
     verdict to rules that were never even attempted — the dead-rule
     detection the rule_analysis layer feeds on: a rule that is
     syntactically alive but never fires on the workload is a candidate
     for removal or reordering. *)
  let never_fired ?(all_rules = []) t =
    let attempted = cells t in
    let unfired_attempted =
      List.filter_map
        (fun (key, c) -> if c.fires = 0 then Some key else None)
        attempted
    in
    let never_attempted =
      List.filter (fun key -> not (Hashtbl.mem t.cells key)) all_rules
    in
    unfired_attempted @ never_attempted

  let pp ?(all_rules = []) ppf t =
    let entries =
      List.sort
        (fun (_, a) (_, b) -> compare b.time_s a.time_s)
        (cells t)
    in
    Fmt.pf ppf "%-16s %-26s %9s %6s %8s %7s %7s %9s@." "block" "rule" "attempts"
      "fires" "c-veto" "m-veto" "budget" "time(ms)";
    List.iter
      (fun ((block, rule), c) ->
        Fmt.pf ppf "%-16s %-26s %9d %6d %8d %7d %7d %9.3f@." block rule c.attempts
          c.fires c.constraint_vetoes c.method_vetoes c.budget_aborts
          (c.time_s *. 1000.))
      entries;
    match never_fired ~all_rules t with
    | [] -> Fmt.pf ppf "every attempted rule fired at least once@."
    | dead ->
      Fmt.pf ppf "never fired: %a@."
        (Fmt.list ~sep:(Fmt.any ", ") (fun ppf (b, r) -> Fmt.pf ppf "%s/%s" b r))
        dead

  let to_json ?(all_rules = []) t =
    let rules =
      List.map
        (fun ((block, rule), c) ->
          Json.Obj
            [
              ("block", Json.Str block);
              ("rule", Json.Str rule);
              ("attempts", Json.Int c.attempts);
              ("fires", Json.Int c.fires);
              ("constraint_vetoes", Json.Int c.constraint_vetoes);
              ("method_vetoes", Json.Int c.method_vetoes);
              ("budget_aborts", Json.Int c.budget_aborts);
              ("time_ms", Json.Float (c.time_s *. 1000.));
            ])
        (cells t)
    in
    Json.Obj
      [
        ("rules", Json.List rules);
        ( "never_fired",
          Json.List
            (List.map
               (fun (b, r) -> Json.Str (b ^ "/" ^ r))
               (never_fired ~all_rules t)) );
      ]
end
