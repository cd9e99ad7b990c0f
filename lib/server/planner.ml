module Session = Eds.Session
module Lera = Session.Lera
module Template = Eds_esql.Template
module Database = Eds_engine.Database
module Eval = Eds_engine.Eval
module Metrics = Eds_obs.Metrics

(* same cell as the session's execute-phase histogram: cached-plan
   executions skip Session.exec entirely but must still show up in
   eds_phase_duration_seconds{phase="execute"} *)
let m_execute =
  Metrics.histogram ~help:"Query pipeline phase latency in seconds"
    ~labels:[ ("phase", "execute") ]
    "eds_phase_duration_seconds"

type report = {
  origin : [ `Hit | `Miss ];
  parse_s : float;
  translate_s : float;
  rewrite_s : float;
  plan_s : float;
  exec_s : float;
  work : Eval.stats;
}

(* What a cache key maps to.  Exact-text keys hold [Exact]; template
   keys hold one of the other three. *)
type entry =
  | Exact of Lera.rel  (* the plan of one statement text *)
  | Generic of Lera.rel  (* a template's plan; parameters bound per request *)
  | Custom_only
      (* the template's generic plan differed from a custom plan: its
         requests plan per text *)
  | Pinned of int list
      (* these slots' translation depends on their value (enumeration
         coercion): the template is keyed again with them as literals *)

type t = {
  session : Session.t;
  cache : entry Plan_cache.t;
  gen_lock : Mutex.t;
      (* serializes the stale-entry sweep on a generation bump *)
  mutable swept_gen : int;  (* generation the cache was last swept for *)
}

let create ?(capacity = 256) session =
  {
    session;
    cache = Plan_cache.create ~capacity;
    gen_lock = Mutex.create ();
    swept_gen = Session.generation session;
  }

let session t = t.session

let normalize text =
  let buf = Buffer.create (String.length text) in
  let pending_space = ref false in
  String.iter
    (fun c ->
      match c with
      | ' ' | '\t' | '\n' | '\r' -> if Buffer.length buf > 0 then pending_space := true
      | c ->
          if !pending_space then Buffer.add_char buf ' ';
          pending_space := false;
          Buffer.add_char buf c)
    text;
  let s = Buffer.contents buf in
  let n = String.length s in
  if n > 0 && s.[n - 1] = ';' then String.trim (String.sub s 0 (n - 1)) else s

(* the SELECT keyword must end the token: "SELECTIVITY ..." is not one *)
let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c = '_'

let is_select line =
  let line = String.trim line in
  String.length line >= 6
  && String.uppercase_ascii (String.sub line 0 6) = "SELECT"
  && (String.length line = 6 || not (is_ident_char line.[6]))

let gen_prefix gen = Printf.sprintf "g%d|" gen

let exact_key gen text = gen_prefix gen ^ normalize text

(* no statement text starts with "template|", so the key spaces are
   disjoint *)
let template_key gen tmpl = gen_prefix gen ^ "template|" ^ Template.key tmpl

(* the entry governing a template, through a [Pinned] indirection *)
let resolve get gen tmpl =
  match get (template_key gen tmpl) with
  | Some (Pinned slots) -> get (template_key gen (Template.pin slots tmpl))
  | entry -> entry

(* A generation bump orphans every entry keyed under the old one; sweep
   them out eagerly so a full cache spends its capacity on live plans
   only, instead of letting dead keys age out of the LRU tail. *)
let sweep_stale t gen =
  Mutex.lock t.gen_lock;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.gen_lock)
    (fun () ->
      if t.swept_gen <> gen then begin
        let live = gen_prefix gen in
        ignore
          (Plan_cache.sweep t.cache (fun key ->
               not (String.starts_with ~prefix:live key)));
        t.swept_gen <- gen
      end)

(* Store what planning the template taught: [Generic] only when binding
   this request's literals into the generic plan reproduces the custom
   plan exactly, so the first binding evaluates as it always did; every
   later binding is sound because no rule read a parameter.  Returns
   whether the generic plan is shared. *)
let store_template t gen tmpl values (generic : Session.plan option) custom =
  let add key entry = Plan_cache.add t.cache key entry in
  let mark key shared =
    add key (match shared with Some rel -> Generic rel | None -> Custom_only);
    Plan_cache.note_template (if Option.is_some shared then `Generic else `Custom)
  in
  match generic with
  | None ->
      mark (template_key gen tmpl) None;
      false
  | Some p ->
      (* a slot translated to a literal, not a parameter, was pinned *)
      let present = Lera.params p.Session.translated in
      let pinned =
        List.filter
          (fun i -> not (List.mem i present))
          (List.init (Array.length values) succ)
      in
      let key =
        if pinned = [] then template_key gen tmpl
        else begin
          add (template_key gen tmpl) (Pinned pinned);
          template_key gen (Template.pin pinned tmpl)
        end
      in
      let rel = p.Session.rewritten in
      let shared = Lera.equal (Lera.bind values rel) custom in
      mark key (if shared then Some rel else None);
      shared

(* A text is remembered under its exact key whenever it plans per text
   and when its template serves it again, so repeated texts keep taking
   the exact path.  The request that first plans a shared template is
   not: its template entry serves it. *)
let remember t exact rel =
  Plan_cache.add t.cache exact (Exact rel);
  rel

(* The miss section, run inside [exclusive]: the server's mutex keeps the
   generation and catalog still, and double-checks catch a racing thread
   that planned this text or template while we waited. *)
let plan_miss t ~text ~sel ~parse_s ~tmpl ~values phases =
  let gen = Session.generation t.session in
  let exact = exact_key gen text in
  let custom () =
    let p = Session.plan_ast ~parse_s t.session sel in
    phases := (parse_s, p.Session.translate_s, p.Session.rewrite_s);
    p.Session.rewritten
  in
  match Plan_cache.peek t.cache exact with
  | Some (Exact rel) -> rel
  | _ -> (
      match resolve (Plan_cache.peek t.cache) gen tmpl with
      | Some (Generic rel) -> remember t exact (Lera.bind values rel)
      | Some Custom_only -> remember t exact (custom ())
      | _ when Array.length values = 0 ->
          (* literal-free: the exact key is all a template would add *)
          remember t exact (custom ())
      | _ ->
          (* the generic plan first, so the session's last rewrite stats
             are the custom plan's; a template can fail to translate
             where its literal query does not (GROUP BY matching) *)
          let generic =
            try Some (Session.plan_ast t.session tmpl)
            with Session.Session_error _ -> None
          in
          let rel = custom () in
          if store_template t gen tmpl values generic rel then rel
          else remember t exact rel)

let plan_timed ?(exclusive = fun f -> f ()) t text =
  let gen = Session.generation t.session in
  if gen <> t.swept_gen then sweep_stale t gen;
  match Plan_cache.lookup t.cache (exact_key gen text) with
  | Some (Exact rel) ->
      Plan_cache.count `Hit;
      (rel, `Hit, (0., 0., 0.))
  | _ -> (
      let sel, parse_s =
        try Session.parse_select text
        with e ->
          Plan_cache.count `Miss;
          raise e
      in
      let tmpl, values = Template.erase sel in
      match resolve (Plan_cache.lookup t.cache) gen tmpl with
      | Some (Generic rel) ->
          Plan_cache.count `Template_hit;
          (remember t (exact_key gen text) (Lera.bind values rel), `Hit, (parse_s, 0., 0.))
      | _ ->
          Plan_cache.count `Miss;
          let phases = ref (parse_s, 0., 0.) in
          let rel =
            exclusive (fun () -> plan_miss t ~text ~sel ~parse_s ~tmpl ~values phases)
          in
          (rel, `Miss, !phases))

let plan ?exclusive t text =
  let rel, origin, _ = plan_timed ?exclusive t text in
  (rel, origin)

let execute_timed ?exclusive t text =
  let t0 = Unix.gettimeofday () in
  let rel, origin, (parse_s, translate_s, rewrite_s) = plan_timed ?exclusive t text in
  let plan_s = Unix.gettimeofday () -. t0 in
  let stats = Eval.fresh_stats () in
  (* evaluate against an immutable snapshot: no read lock, concurrent
     writers publish new states without disturbing this query *)
  let db = Session.snapshot_db t.session in
  let t1 = Unix.gettimeofday () in
  let result = Session.run_plan ~stats ~db t.session rel in
  let exec_s = Unix.gettimeofday () -. t1 in
  Metrics.Histogram.observe m_execute exec_s;
  Session.count_statement ();
  (result, { origin; parse_s; translate_s; rewrite_s; plan_s; exec_s; work = stats })

let execute ?exclusive t text =
  let rel, r = execute_timed ?exclusive t text in
  (rel, r.origin)

let cache_stats t = Plan_cache.stats t.cache
