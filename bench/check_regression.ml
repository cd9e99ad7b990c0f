(* Bench-counter regression gate (CI).

   Usage: check_regression.exe COMMITTED.json FRESH.json

   Compares the [counters] object of a freshly generated benchmark
   snapshot against the committed BENCH_rewriter.json.  The counters are
   deterministic (seeded workloads), so the gate is strict:

   - every {e work} counter — a key naming combinations, probes, builds,
     condition checks, match attempts, rewrites or iterations — may only
     decrease or hold; an increase is a performance regression and fails
     the build;
   - boolean counters (equivalence assertions) must not go true→false;
   - a key present in the committed file but absent from the fresh run
     fails (a silently dropped measurement is not an improvement).

   New keys in the fresh run are fine: they are measurements added by the
   change under test and become binding once committed. *)

module Json = Eds_obs.Obs.Json

let work_markers =
  [
    "combinations";
    "probes";
    "builds";
    "conditions";
    "condition_checks";
    "checks";
    "attempts";
    "rewrites";
    "iterations";
    (* server-side integrity counters (E4): committed at zero, so any
       increase — a dropped connection, a malformed frame, a refused or
       failed request — fails the gate *)
    "dropped";
    "protocol_errors";
    "busy_refusals";
    "error_responses";
    (* plan-cache misses may only shrink: each one is a full
       parse → translate → rewrite the cache failed to amortize *)
    "misses";
    (* E5: snapshot reads are lock-free — [read_lock_acquisitions] is
       the exclusive-section entries beyond one per write and one per
       plan-cache miss, committed at zero, so a cached SELECT entering
       the section fails the gate; response mismatches against the
       oracle replay likewise *)
    "read_lock";
    "mismatch";
    (* E7: allocation (kilowords per run) of the columnar/boxed hot
       loops — allocation is deterministic for a seeded workload, so a
       growth means a chunked loop started boxing per tuple again *)
    "alloc";
  ]

let is_work_key key =
  let has sub =
    let n = String.length sub and k = String.length key in
    let rec at i = i + n <= k && (String.sub key i n = sub || at (i + 1)) in
    at 0
  in
  List.exists has work_markers

let die fmt = Fmt.kstr (fun s -> prerr_endline s; exit 1) fmt

let load path =
  let text = In_channel.with_open_text path In_channel.input_all in
  match Json.parse text with
  | Ok j -> j
  | Error msg -> die "%s: invalid JSON: %s" path msg

let counters path j =
  match Json.member "counters" j with
  | Some (Json.Obj kvs) -> kvs
  | Some _ | None -> die "%s: no counters object" path

let () =
  let committed_path, fresh_path =
    match Sys.argv with
    | [| _; a; b |] -> (a, b)
    | _ -> die "usage: check_regression COMMITTED.json FRESH.json"
  in
  let committed = counters committed_path (load committed_path) in
  let fresh = counters fresh_path (load fresh_path) in
  let failures = ref 0 in
  let checked = ref 0 in
  let fail fmt = Fmt.kstr (fun s -> incr failures; prerr_endline ("FAIL " ^ s)) fmt in
  List.iter
    (fun (key, old_v) ->
      match (old_v, List.assoc_opt key fresh) with
      | _, None -> fail "%s: present in %s but missing from the fresh run" key committed_path
      | Json.Int old_n, Some (Json.Int new_n) ->
        if is_work_key key then begin
          incr checked;
          if new_n > old_n then
            fail "%s: work counter regressed %d -> %d" key old_n new_n
        end
      | Json.Bool old_b, Some (Json.Bool new_b) ->
        incr checked;
        if old_b && not new_b then fail "%s: assertion went true -> false" key
      | _, Some new_v ->
        if old_v <> new_v && is_work_key key then
          fail "%s: type changed (%s -> %s)" key (Json.to_string old_v)
            (Json.to_string new_v))
    committed;
  if !failures > 0 then begin
    Fmt.epr "%d bench regression(s) against %s@." !failures committed_path;
    exit 1
  end;
  Fmt.pr "bench regression gate: %d counters checked against %s, none regressed@."
    !checked committed_path
