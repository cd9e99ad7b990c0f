(* Tests for the always-on metrics registry (Eds_obs.Metrics): the fixed
   log₂ histogram (bucket boundaries, merge/sub algebra, quantiles,
   lock-freedom under concurrent domains), registration semantics,
   STATS-RESET value semantics, and a Prometheus text-exposition lint
   reused by the server tests over the wire. *)

module Metrics = Eds_obs.Metrics

(* The registry's current total of a family (cells carrying [labels]
   summed).  Cells are process-wide and other cases share the process,
   so tests read differences of totals. *)
let total ?labels name = int_of_float (Metrics.sum ?labels (Metrics.samples ()) name)

(* -- Prometheus exposition lint ------------------------------------------- *)

(* A structural lint of the text format, returning every violation:
   HELP/TYPE present exactly once per family and before its samples,
   metric/label names in the legal charset, label values correctly
   quoted and escaped, every sample value parseable, and for histograms
   the full _bucket/_sum/_count complement with cumulative monotone
   buckets ending in +Inf == _count. *)

type family = {
  mutable f_help : int;
  mutable f_type : int;
  mutable f_kind : string option;
  mutable f_samples : int;
}

type hist_series = {
  mutable h_buckets : (float * float) list;  (* (le, cumulative) in file order *)
  mutable h_sum : float option;
  mutable h_count : float option;
}

let name_ok name =
  let ok_first c =
    (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' || c = ':'
  in
  let ok c = ok_first c || (c >= '0' && c <= '9') in
  name <> "" && ok_first name.[0] && String.for_all ok name

let label_name_ok name =
  let ok_first c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_' in
  let ok c = ok_first c || (c >= '0' && c <= '9') in
  name <> "" && ok_first name.[0] && String.for_all ok name

(* Parse a sample line: a name, an optional label block, then a value.
   Label values are quoted and may contain backslash escapes for
   backslash, quote and newline — nothing else may be backslashed. *)
let parse_sample line =
  let n = String.length line in
  match String.index_opt line '{' with
  | None -> (
      match String.rindex_opt line ' ' with
      | None -> Error "sample line has no value"
      | Some i -> (
          let name = String.sub line 0 i in
          match float_of_string_opt (String.sub line (i + 1) (n - i - 1)) with
          | Some v -> Ok (name, [], v)
          | None -> Error ("unparseable sample value in: " ^ line)))
  | Some brace ->
      let name = String.sub line 0 brace in
      let labels = ref [] in
      let j = ref (brace + 1) in
      let error = ref None in
      let fail msg = if !error = None then error := Some msg in
      let rec pairs () =
        if !j < n && line.[!j] = '}' then incr j
        else begin
          let k0 = !j in
          while !j < n && line.[!j] <> '=' do incr j done;
          if !j >= n then fail "label without '='"
          else begin
            let key = String.sub line k0 (!j - k0) in
            incr j;
            if !j >= n || line.[!j] <> '"' then fail "label value not quoted"
            else begin
              incr j;
              let b = Buffer.create 16 in
              let closed = ref false in
              while (not !closed) && !j < n && !error = None do
                match line.[!j] with
                | '\\' ->
                    if !j + 1 >= n then fail "dangling backslash"
                    else begin
                      (match line.[!j + 1] with
                      | '\\' -> Buffer.add_char b '\\'
                      | '"' -> Buffer.add_char b '"'
                      | 'n' -> Buffer.add_char b '\n'
                      | c -> fail (Printf.sprintf "illegal escape \\%c" c));
                      j := !j + 2
                    end
                | '"' ->
                    closed := true;
                    incr j
                | c ->
                    Buffer.add_char b c;
                    incr j
              done;
              if (not !closed) && !error = None then fail "unterminated label value";
              labels := (key, Buffer.contents b) :: !labels;
              if !error = None then
                if !j < n && line.[!j] = ',' then begin
                  incr j;
                  pairs ()
                end
                else if !j < n && line.[!j] = '}' then incr j
                else fail "expected ',' or '}' after label"
            end
          end
        end
      in
      pairs ();
      (match !error with
      | Some e -> Error (e ^ " in: " ^ line)
      | None ->
          let rest = String.trim (String.sub line !j (n - !j)) in
          (match float_of_string_opt rest with
          | Some v -> Ok (name, List.rev !labels, v)
          | None -> Error ("unparseable sample value in: " ^ line)))

let chop_suffix name suffix =
  if String.length name > String.length suffix
     && String.sub name (String.length name - String.length suffix)
          (String.length suffix)
        = suffix
  then Some (String.sub name 0 (String.length name - String.length suffix))
  else None

let lint_prometheus text =
  let errors = ref [] in
  let err fmt = Fmt.kstr (fun s -> errors := s :: !errors) fmt in
  let families : (string, family) Hashtbl.t = Hashtbl.create 64 in
  let fam name =
    match Hashtbl.find_opt families name with
    | Some f -> f
    | None ->
        let f = { f_help = 0; f_type = 0; f_kind = None; f_samples = 0 } in
        Hashtbl.add families name f;
        f
  in
  let hists : (string * string, hist_series) Hashtbl.t = Hashtbl.create 64 in
  let hist_series fname labels_key =
    match Hashtbl.find_opt hists (fname, labels_key) with
    | Some h -> h
    | None ->
        let h = { h_buckets = []; h_sum = None; h_count = None } in
        Hashtbl.add hists (fname, labels_key) h;
        h
  in
  let comment_payload prefix line =
    let rest = String.sub line (String.length prefix)
        (String.length line - String.length prefix)
    in
    match String.index_opt rest ' ' with
    | None -> (rest, "")
    | Some i -> (String.sub rest 0 i, String.sub rest (i + 1) (String.length rest - i - 1))
  in
  List.iter
    (fun line ->
      if line = "" then ()
      else if String.starts_with ~prefix:"# HELP " line then begin
        let name, _ = comment_payload "# HELP " line in
        let f = fam name in
        f.f_help <- f.f_help + 1;
        if f.f_help > 1 then err "duplicate HELP for %s" name;
        if f.f_samples > 0 then err "HELP for %s after its samples" name
      end
      else if String.starts_with ~prefix:"# TYPE " line then begin
        let name, kind = comment_payload "# TYPE " line in
        let f = fam name in
        f.f_type <- f.f_type + 1;
        f.f_kind <- Some kind;
        if f.f_type > 1 then err "duplicate TYPE for %s" name;
        if f.f_samples > 0 then err "TYPE for %s after its samples" name;
        if not (List.mem kind [ "counter"; "gauge"; "histogram" ]) then
          err "unknown TYPE %s for %s" kind name
      end
      else if String.length line > 0 && line.[0] = '#' then ()
      else
        match parse_sample line with
        | Error e -> err "%s" e
        | Ok (name, labels, value) ->
            if not (name_ok name) then err "illegal metric name %s" name;
            List.iter
              (fun (k, _) ->
                if not (label_name_ok k) then err "illegal label name %s in %s" k name)
              labels;
            (* resolve the family: histogram series use suffixed names *)
            let fname, suffix =
              let candidate suffixes =
                List.find_map
                  (fun s ->
                    match chop_suffix name s with
                    | Some base
                      when (match Hashtbl.find_opt families base with
                           | Some f -> f.f_kind = Some "histogram"
                           | None -> false) ->
                        Some (base, s)
                    | _ -> None)
                  suffixes
              in
              match candidate [ "_bucket"; "_sum"; "_count" ] with
              | Some (base, s) -> (base, s)
              | None -> (name, "")
            in
            let f = fam fname in
            f.f_samples <- f.f_samples + 1;
            if f.f_help = 0 then err "sample of %s without a preceding HELP" fname;
            if f.f_type = 0 then err "sample of %s without a preceding TYPE" fname;
            (match f.f_kind with
            | Some "histogram" ->
                let labels_no_le = List.filter (fun (k, _) -> k <> "le") labels in
                let key =
                  String.concat ","
                    (List.map (fun (k, v) -> k ^ "=" ^ v) labels_no_le)
                in
                let h = hist_series fname key in
                (match suffix with
                | "_bucket" -> (
                    match List.assoc_opt "le" labels with
                    | None -> err "%s_bucket without an le label" fname
                    | Some le -> (
                        match float_of_string_opt le with
                        | Some le_v -> h.h_buckets <- h.h_buckets @ [ (le_v, value) ]
                        | None -> err "unparseable le %S on %s" le fname))
                | "_sum" -> h.h_sum <- Some value
                | "_count" -> h.h_count <- Some value
                | _ -> err "bare sample %s of histogram family %s" name fname)
            | _ ->
                if List.mem_assoc "le" labels then
                  err "le label on non-histogram %s" name))
    (String.split_on_char '\n' text);
  Hashtbl.iter
    (fun name f ->
      if f.f_samples > 0 && f.f_help = 0 then err "family %s has no HELP" name;
      if f.f_samples > 0 && f.f_type = 0 then err "family %s has no TYPE" name)
    families;
  Hashtbl.iter
    (fun (fname, key) h ->
      let where = if key = "" then fname else fname ^ "{" ^ key ^ "}" in
      (match h.h_buckets with
      | [] -> err "histogram %s has no buckets" where
      | buckets ->
          let les = List.map fst buckets in
          if not (List.exists (fun le -> le = infinity) les) then
            err "histogram %s lacks a +Inf bucket" where;
          let sorted = List.sort compare les in
          if sorted <> les then err "histogram %s buckets not in ascending le order" where;
          let rec monotone prev = function
            | [] -> true
            | (_, v) :: rest -> v >= prev && monotone v rest
          in
          if not (monotone 0. buckets) then
            err "histogram %s cumulative buckets not monotone" where;
          (match (List.rev buckets, h.h_count) with
          | (le, last) :: _, Some count when le = infinity && last <> count ->
              err "histogram %s +Inf bucket %g <> count %g" where last count
          | _ -> ()));
      if h.h_sum = None then err "histogram %s lacks _sum" where;
      if h.h_count = None then err "histogram %s lacks _count" where)
    hists;
  List.rev !errors

let check_lint label text =
  match lint_prometheus text with
  | [] -> ()
  | errs ->
      Alcotest.failf "%s: %d lint error(s):\n%s" label (List.length errs)
        (String.concat "\n" errs)

(* -- histogram core -------------------------------------------------------- *)

let test_bucket_boundaries () =
  let bounds = Metrics.Histogram.bounds in
  let n = Array.length bounds in
  Alcotest.(check bool) "bounds ascending" true
    (Array.for_all (fun i -> bounds.(i) < bounds.(i + 1)) (Array.init (n - 1) Fun.id));
  (* le semantics: a value exactly on a bound is inclusive *)
  Array.iteri
    (fun i b ->
      Alcotest.(check int)
        (Fmt.str "bound %g lands in its own bucket" b)
        i
        (Metrics.Histogram.bucket_index b))
    bounds;
  Alcotest.(check int) "below the first bound" 0
    (Metrics.Histogram.bucket_index (bounds.(0) /. 2.));
  Alcotest.(check int) "just over a bound spills to the next bucket" 6
    (Metrics.Histogram.bucket_index (bounds.(5) *. 1.0001));
  Alcotest.(check int) "over the last bound is overflow" n
    (Metrics.Histogram.bucket_index (bounds.(n - 1) *. 2.));
  Alcotest.(check int) "infinity is overflow" n
    (Metrics.Histogram.bucket_index infinity)

let test_merge_equals_combined () =
  let a = Metrics.histogram "test_merge_a_seconds" in
  let b = Metrics.histogram "test_merge_b_seconds" in
  let c = Metrics.histogram "test_merge_c_seconds" in
  let stream_a = [ 0.0001; 0.003; 0.003; 0.5; 3.; 200. ] in
  let stream_b = [ 0.002; 0.9; 0.9; 0.9; 1e-9 ] in
  List.iter (Metrics.Histogram.observe a) stream_a;
  List.iter (Metrics.Histogram.observe b) stream_b;
  List.iter (Metrics.Histogram.observe c) (stream_a @ stream_b);
  let merged =
    Metrics.Histogram.merge (Metrics.Histogram.snapshot a)
      (Metrics.Histogram.snapshot b)
  in
  let combined = Metrics.Histogram.snapshot c in
  Alcotest.(check (array int)) "merged counts equal combined recording"
    combined.Metrics.Histogram.counts merged.Metrics.Histogram.counts;
  Alcotest.(check (float 1e-9)) "merged sum equals combined sum"
    combined.Metrics.Histogram.sum merged.Metrics.Histogram.sum;
  (* sub is merge's inverse: (a+b) - b = a *)
  let back = Metrics.Histogram.sub merged (Metrics.Histogram.snapshot b) in
  Alcotest.(check (array int)) "sub undoes merge"
    (Metrics.Histogram.snapshot a).Metrics.Histogram.counts
    back.Metrics.Histogram.counts

let test_quantile_monotone () =
  let h = Metrics.histogram "test_quantile_seconds" in
  List.iter
    (Metrics.Histogram.observe h)
    [ 0.0001; 0.0002; 0.001; 0.004; 0.004; 0.01; 0.05; 0.3; 1.2; 7.; 90. ];
  let s = Metrics.Histogram.snapshot h in
  let qs =
    List.map
      (fun p -> Metrics.Histogram.quantile s p)
      [ 0.; 0.1; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99; 1. ]
  in
  let rec check_monotone = function
    | a :: (b :: _ as rest) ->
        Alcotest.(check bool) (Fmt.str "quantile monotone (%g <= %g)" a b) true
          (a <= b);
        check_monotone rest
    | _ -> ()
  in
  check_monotone qs;
  (* an empty snapshot quantiles to zero *)
  let empty = Metrics.histogram "test_quantile_empty_seconds" in
  Alcotest.(check (float 0.)) "empty quantile" 0.
    (Metrics.Histogram.quantile (Metrics.Histogram.snapshot empty) 0.99);
  (* a single-bucket histogram localises within that bucket *)
  let one = Metrics.histogram "test_quantile_one_seconds" in
  Metrics.Histogram.observe one 0.003;
  let q = Metrics.Histogram.quantile (Metrics.Histogram.snapshot one) 0.5 in
  let i = Metrics.Histogram.bucket_index 0.003 in
  let lower = if i = 0 then 0. else Metrics.Histogram.bounds.(i - 1) in
  Alcotest.(check bool) "median inside the recorded bucket" true
    (q >= lower && q <= Metrics.Histogram.bounds.(i))

let test_concurrent_recording () =
  let h = Metrics.histogram "test_concurrent_seconds" in
  let per_domain = 25_000 in
  let domains = 4 in
  let worker () =
    for i = 1 to per_domain do
      Metrics.Histogram.observe h (0.0001 *. float_of_int ((i mod 13) + 1))
    done
  in
  let spawned = List.init domains (fun _ -> Domain.spawn worker) in
  List.iter Domain.join spawned;
  let s = Metrics.Histogram.snapshot h in
  Alcotest.(check int) "no observation lost across domains"
    (domains * per_domain) (Metrics.Histogram.count s);
  let expected_one =
    let sum = ref 0 in
    for i = 1 to per_domain do
      sum := !sum + int_of_float (0.0001 *. float_of_int ((i mod 13) + 1) *. 1e9)
    done;
    float_of_int !sum /. 1e9
  in
  Alcotest.(check (float 1e-6)) "sum intact across domains"
    (expected_one *. float_of_int domains)
    s.Metrics.Histogram.sum

(* -- registration and reset ------------------------------------------------ *)

let test_registration_idempotent () =
  let c1 = Metrics.counter "test_idem_total" in
  let c2 = Metrics.counter "test_idem_total" in
  Metrics.Counter.incr c1;
  Metrics.Counter.incr c2;
  Alcotest.(check int) "same cell through both handles" 2 (Metrics.Counter.value c1);
  (* same name with different labels is a distinct series *)
  let l1 = Metrics.counter ~labels:[ ("k", "a") ] "test_idem_labelled_total" in
  let l2 = Metrics.counter ~labels:[ ("k", "b") ] "test_idem_labelled_total" in
  Metrics.Counter.incr l1;
  Alcotest.(check int) "labels separate series" 0 (Metrics.Counter.value l2);
  (* re-registering under a different kind is a bug, loudly *)
  (match Metrics.gauge "test_idem_total" with
  | _ -> Alcotest.fail "kind mismatch should raise"
  | exception Invalid_argument _ -> ());
  match Metrics.find_sample "test_idem_total" with
  | Some { Metrics.value = Metrics.Counter_v 2; _ } -> ()
  | Some _ -> Alcotest.fail "find_sample returned the wrong value"
  | None -> Alcotest.fail "find_sample missed a registered counter"

let test_reset_values () =
  let plain = Metrics.counter "test_reset_plain_total" in
  let perm = Metrics.counter ~permanent:true "test_reset_perm_total" in
  let g = Metrics.gauge "test_reset_gauge" in
  let h = Metrics.histogram "test_reset_seconds" in
  Metrics.Counter.add plain 5;
  Metrics.Counter.add perm 7;
  Metrics.Gauge.set g 3;
  Metrics.Histogram.observe h 0.01;
  Metrics.reset_values ();
  Alcotest.(check int) "plain counter zeroed" 0 (Metrics.Counter.value plain);
  Alcotest.(check int) "permanent counter survives" 7 (Metrics.Counter.value perm);
  Alcotest.(check int) "gauge survives" 3 (Metrics.Gauge.value g);
  Alcotest.(check int) "histogram zeroed" 0
    (Metrics.Histogram.count (Metrics.Histogram.snapshot h));
  (* cells keep working after a reset *)
  Metrics.Counter.incr plain;
  Alcotest.(check int) "counter records after reset" 1 (Metrics.Counter.value plain)

let test_disabled_recording () =
  let c = Metrics.counter "test_disable_total" in
  let h = Metrics.histogram "test_disable_seconds" in
  let g = Metrics.gauge "test_disable_gauge" in
  Fun.protect
    ~finally:(fun () -> Metrics.set_enabled true)
    (fun () ->
      Metrics.set_enabled false;
      Metrics.Counter.incr c;
      Metrics.Histogram.observe h 0.5;
      Metrics.Gauge.set g 9;
      Alcotest.(check int) "counter gated off" 0 (Metrics.Counter.value c);
      Alcotest.(check int) "histogram gated off" 0
        (Metrics.Histogram.count (Metrics.Histogram.snapshot h));
      (* gauges track current state, never gated *)
      Alcotest.(check int) "gauge still records" 9 (Metrics.Gauge.value g));
  Metrics.Counter.incr c;
  Alcotest.(check int) "counter records once re-enabled" 1 (Metrics.Counter.value c)

(* -- exposition ------------------------------------------------------------ *)

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_prometheus_lint () =
  (* exercise the painful corners: escaped label values, a labelled
     histogram, and the full registry accumulated by every other test
     and module-initialisation in this process *)
  let c =
    Metrics.counter ~help:"escape torture"
      ~labels:[ ("q", "a\"b\\c\nd") ]
      "test_escape_total"
  in
  Metrics.Counter.incr c;
  let h =
    Metrics.histogram ~help:"labelled histogram"
      ~labels:[ ("verb", "select") ]
      "test_lint_duration_seconds"
  in
  Metrics.Histogram.observe h 0.004;
  Metrics.Histogram.observe h 3.;
  let text = Metrics.prometheus () in
  check_lint "whole registry" text;
  Alcotest.(check bool) "escaped label value rendered" true
    (contains ~sub:{|q="a\"b\\c\nd"|} text);
  Alcotest.(check bool) "+Inf bucket present" true
    (contains ~sub:{|test_lint_duration_seconds_bucket{verb="select",le="+Inf"}|} text);
  Alcotest.(check bool) "sum present" true
    (contains ~sub:{|test_lint_duration_seconds_sum{verb="select"}|} text);
  Alcotest.(check bool) "count present" true
    (contains ~sub:{|test_lint_duration_seconds_count{verb="select"}|} text);
  (* the lint itself must catch violations *)
  Alcotest.(check bool) "lint flags missing TYPE" true
    (lint_prometheus "orphan_total 3\n" <> []);
  Alcotest.(check bool) "lint flags non-monotone buckets" true
    (lint_prometheus
       "# HELP bad_seconds x\n\
        # TYPE bad_seconds histogram\n\
        bad_seconds_bucket{le=\"1\"} 5\n\
        bad_seconds_bucket{le=\"+Inf\"} 3\n\
        bad_seconds_sum 1\n\
        bad_seconds_count 3\n"
     <> [])

let test_collector () =
  let calls = ref 0 in
  let id =
    Metrics.register_collector (fun () ->
        incr calls;
        [
          {
            Metrics.name = "test_collector_gauge";
            help = "collector output";
            kind = Metrics.K_gauge;
            labels = [];
            value = Metrics.Gauge_v 42.;
          };
        ])
  in
  let text = Metrics.prometheus () in
  Alcotest.(check bool) "collector sample rendered" true
    (contains ~sub:"test_collector_gauge 42" text);
  check_lint "registry with collector" text;
  Metrics.unregister_collector id;
  let text' = Metrics.prometheus () in
  Alcotest.(check bool) "unregistered collector gone" false
    (contains ~sub:"test_collector_gauge" text');
  Alcotest.(check bool) "collector ran" true (!calls > 0)

let suite =
  [
    Alcotest.test_case "histogram bucket boundaries" `Quick test_bucket_boundaries;
    Alcotest.test_case "merge equals combined recording" `Quick
      test_merge_equals_combined;
    Alcotest.test_case "quantile monotone in p" `Quick test_quantile_monotone;
    Alcotest.test_case "concurrent recording loses nothing" `Quick
      test_concurrent_recording;
    Alcotest.test_case "registration idempotent" `Quick test_registration_idempotent;
    Alcotest.test_case "reset spares permanent cells and gauges" `Quick
      test_reset_values;
    Alcotest.test_case "disabled gate" `Quick test_disabled_recording;
    Alcotest.test_case "prometheus exposition lint" `Quick test_prometheus_lint;
    Alcotest.test_case "collectors" `Quick test_collector;
  ]
