(* Always-on metrics registry.

   Hot path: a pre-fetched handle + Atomic.fetch_and_add — no lock, no
   allocation, no clock read beyond what the caller already measured.
   Cold path (registration, exposition, reset) takes a single global
   mutex; recording never does.

   Histogram buckets are a fixed log₂ ladder — upper bounds 2^k seconds
   for k in [-20, 6] (≈1µs .. 64s) plus a +Inf overflow bucket — so
   snapshots from any two histograms, runs or processes merge bucket-wise
   and quantiles come from linear interpolation within one bucket. *)

let enabled_flag = Atomic.make true
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

(* -- histograms ---------------------------------------------------------- *)

module Histogram = struct
  let min_exp = -20
  let max_exp = 6
  let bounds = Array.init (max_exp - min_exp + 1) (fun i -> ldexp 1. (min_exp + i))
  let nbounds = Array.length bounds
  let nbuckets = nbounds + 1

  type t = { cells : int Atomic.t array; sum_ns : int Atomic.t }

  let make () =
    { cells = Array.init nbuckets (fun _ -> Atomic.make 0); sum_ns = Atomic.make 0 }

  (* linear scan over 27 floats: allocation-free, and latencies cluster
     in the middle of the ladder anyway *)
  let bucket_index v =
    let rec go i = if i >= nbounds || v <= Array.unsafe_get bounds i then i else go (i + 1) in
    go 0

  let observe t v =
    if Atomic.get enabled_flag then begin
      ignore (Atomic.fetch_and_add t.cells.(bucket_index v) 1);
      ignore (Atomic.fetch_and_add t.sum_ns (int_of_float (v *. 1e9)))
    end

  type snapshot = { counts : int array; sum : float }

  let snapshot t =
    {
      counts = Array.map Atomic.get t.cells;
      sum = float_of_int (Atomic.get t.sum_ns) *. 1e-9;
    }

  let count s = Array.fold_left ( + ) 0 s.counts

  let merge a b =
    { counts = Array.map2 ( + ) a.counts b.counts; sum = a.sum +. b.sum }

  let sub a b =
    {
      counts = Array.map2 (fun x y -> max 0 (x - y)) a.counts b.counts;
      sum = Float.max 0. (a.sum -. b.sum);
    }

  let quantile s q =
    let n = count s in
    if n = 0 then 0.
    else begin
      let q = Float.min 1. (Float.max 0. q) in
      let rank = q *. float_of_int n in
      let rec go i cum =
        if i >= nbuckets then bounds.(nbounds - 1)
        else
          let c = s.counts.(i) in
          let cum' = cum +. float_of_int c in
          if c > 0 && cum' >= rank then
            if i >= nbounds then bounds.(nbounds - 1)
            else
              let lower = if i = 0 then 0. else bounds.(i - 1) in
              let upper = bounds.(i) in
              let frac = (rank -. cum) /. float_of_int c in
              lower +. (Float.min 1. (Float.max 0. frac) *. (upper -. lower))
          else go (i + 1) cum'
      in
      go 0 0.
    end

  let reset t =
    Array.iter (fun c -> Atomic.set c 0) t.cells;
    Atomic.set t.sum_ns 0
end

(* -- counters and gauges ------------------------------------------------- *)

module Counter = struct
  type t = int Atomic.t

  let incr t = if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add t 1)
  let add t n = if n > 0 && Atomic.get enabled_flag then ignore (Atomic.fetch_and_add t n)
  let value t = Atomic.get t
end

module Gauge = struct
  type t = int Atomic.t

  (* state, not traffic: never gated, never reset *)
  let set t v = Atomic.set t v
  let add t n = ignore (Atomic.fetch_and_add t n)
  let value t = Atomic.get t
end

(* -- the registry -------------------------------------------------------- *)

type kind = K_counter | K_gauge | K_histogram

type cell_store =
  | C of Counter.t
  | G of Gauge.t
  | H of Histogram.t

type cell = {
  c_labels : (string * string) list;
  c_permanent : bool;
  c_store : cell_store;
}

type family = {
  f_name : string;
  f_help : string;
  f_kind : kind;
  mutable f_cells : cell list;  (** registration order, reversed *)
}

let registry_lock = Mutex.create ()
let families : family list ref = ref []  (* registration order, reversed *)

let locked f =
  Mutex.lock registry_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock registry_lock) f

let sanitize_name name =
  String.mapi
    (fun i c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '_' | ':' -> c
      | '0' .. '9' when i > 0 -> c
      | _ -> '_')
    name

let kind_label = function
  | K_counter -> "counter"
  | K_gauge -> "gauge"
  | K_histogram -> "histogram"

let register ~kind ~help ~labels ~permanent ~make name =
  let name = sanitize_name name in
  locked (fun () ->
      let fam =
        match List.find_opt (fun f -> f.f_name = name) !families with
        | Some f ->
          if f.f_kind <> kind then
            invalid_arg
              (Printf.sprintf "Metrics: %s already registered as a %s" name
                 (kind_label f.f_kind));
          f
        | None ->
          let f = { f_name = name; f_help = help; f_kind = kind; f_cells = [] } in
          families := f :: !families;
          f
      in
      match List.find_opt (fun c -> c.c_labels = labels) fam.f_cells with
      | Some c -> c.c_store
      | None ->
        let c = { c_labels = labels; c_permanent = permanent; c_store = make () } in
        fam.f_cells <- c :: fam.f_cells;
        c.c_store)

let counter ?(help = "") ?(labels = []) ?(permanent = false) name =
  match
    register ~kind:K_counter ~help ~labels ~permanent
      ~make:(fun () -> C (Atomic.make 0))
      name
  with
  | C c -> c
  | _ -> assert false

let gauge ?(help = "") ?(labels = []) name =
  match
    register ~kind:K_gauge ~help ~labels ~permanent:true
      ~make:(fun () -> G (Atomic.make 0))
      name
  with
  | G g -> g
  | _ -> assert false

let histogram ?(help = "") ?(labels = []) ?(permanent = false) name =
  match
    register ~kind:K_histogram ~help ~labels ~permanent
      ~make:(fun () -> H (Histogram.make ()))
      name
  with
  | H h -> h
  | _ -> assert false

(* -- collectors ---------------------------------------------------------- *)

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of Histogram.snapshot

type sample = {
  name : string;
  help : string;
  kind : kind;
  labels : (string * string) list;
  value : value;
}

let gauge_sample ~help name v =
  { name; help; kind = K_gauge; labels = []; value = Gauge_v v }

type collector_id = int

let next_collector = ref 0
let collectors : (collector_id * (unit -> sample list)) list ref = ref []

let register_collector f =
  locked (fun () ->
      let id = !next_collector in
      incr next_collector;
      collectors := (id, f) :: !collectors;
      id)

let unregister_collector id =
  locked (fun () -> collectors := List.filter (fun (i, _) -> i <> id) !collectors)

(* -- exposition ---------------------------------------------------------- *)

let registry_samples () =
  let fams =
    locked (fun () -> List.rev_map (fun f -> (f, List.rev f.f_cells)) !families)
  in
  List.concat_map
    (fun (f, cells) ->
      List.map
        (fun c ->
          let value =
            match c.c_store with
            | C a -> Counter_v (Atomic.get a)
            | G a -> Gauge_v (float_of_int (Atomic.get a))
            | H h -> Histogram_v (Histogram.snapshot h)
          in
          { name = f.f_name; help = f.f_help; kind = f.f_kind;
            labels = c.c_labels; value })
        cells)
    fams

let samples () =
  let collected =
    let cs = locked (fun () -> List.rev_map snd !collectors) in
    List.concat_map (fun f -> try f () with _ -> []) cs
  in
  registry_samples () @ collected

let find_sample ?(labels = []) name =
  List.find_opt (fun s -> s.name = name && s.labels = labels) (samples ())

let sum ?(labels = []) samples name =
  List.fold_left
    (fun acc s ->
      if s.name = name && List.for_all (fun l -> List.mem l s.labels) labels then
        acc
        +.
        match s.value with
        | Counter_v n -> float_of_int n
        | Gauge_v f -> f
        | Histogram_v h -> float_of_int (Histogram.count h)
      else acc)
    0. samples

(* shortest float representation that still round-trips: bucket bounds
   are exact powers of two and must parse back to the same float *)
let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let escape_label_value buf s =
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s

let add_labels buf = function
  | [] -> ()
  | labels ->
    Buffer.add_char buf '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf (sanitize_name k);
        Buffer.add_string buf "=\"";
        escape_label_value buf v;
        Buffer.add_char buf '"')
      labels;
    Buffer.add_char buf '}'

let escape_help s =
  let buf = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let render (samples : sample list) =
  let buf = Buffer.create 4096 in
  let line name labels v =
    Buffer.add_string buf name;
    add_labels buf labels;
    Buffer.add_char buf ' ';
    Buffer.add_string buf v;
    Buffer.add_char buf '\n'
  in
  (* group consecutive same-name samples into one family block; a
     family's samples are contiguous in registry order *)
  let seen_header = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if not (Hashtbl.mem seen_header s.name) then begin
        Hashtbl.add seen_header s.name ();
        let help = if s.help = "" then s.name else s.help in
        Buffer.add_string buf
          (Printf.sprintf "# HELP %s %s\n" s.name (escape_help help));
        Buffer.add_string buf
          (Printf.sprintf "# TYPE %s %s\n" s.name (kind_label s.kind))
      end;
      match s.value with
      | Counter_v n -> line s.name s.labels (string_of_int n)
      | Gauge_v f -> line s.name s.labels (float_repr f)
      | Histogram_v snap ->
        let cum = ref 0 in
        Array.iteri
          (fun i c ->
            cum := !cum + c;
            let le =
              if i < Array.length Histogram.bounds then
                float_repr Histogram.bounds.(i)
              else "+Inf"
            in
            line (s.name ^ "_bucket")
              (s.labels @ [ ("le", le) ])
              (string_of_int !cum))
          snap.Histogram.counts;
        line (s.name ^ "_sum") s.labels (float_repr snap.Histogram.sum);
        line (s.name ^ "_count") s.labels (string_of_int !cum))
    samples;
  Buffer.contents buf

let prometheus () =
  (* sort so each family's cells are contiguous even when collectors
     contribute to a family the registry also owns *)
  let all = samples () in
  let order = Hashtbl.create 16 in
  List.iteri
    (fun i s -> if not (Hashtbl.mem order s.name) then Hashtbl.add order s.name i)
    all;
  let all =
    List.stable_sort
      (fun a b -> compare (Hashtbl.find order a.name) (Hashtbl.find order b.name))
      all
  in
  render all

(* -- reset --------------------------------------------------------------- *)

let reset_values () =
  let cells = locked (fun () -> List.concat_map (fun f -> f.f_cells) !families) in
  List.iter
    (fun c ->
      if not c.c_permanent then
        match c.c_store with
        | C a -> Atomic.set a 0
        | G _ -> ()
        | H h -> Histogram.reset h)
    cells
