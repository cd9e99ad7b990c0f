(* Classic LRU: a hash table over an intrusive doubly-linked list in
   recency order.  [mru]/[lru] are the ends; every hit splices the node
   to the front, every insertion beyond capacity drops the tail. *)

module Metrics = Eds_obs.Metrics

(* process-wide registry counters, aggregated across cache instances:
   the only store of the cache's tallies *)
let m_hits = Metrics.counter ~help:"Plan-cache lookups served from cache" "eds_plan_cache_hits_total"
let m_misses = Metrics.counter ~help:"Plan-cache lookups that missed" "eds_plan_cache_misses_total"

let m_evictions =
  Metrics.counter ~help:"Plans evicted by LRU capacity pressure"
    "eds_plan_cache_evictions_total"

let m_insertions =
  Metrics.counter ~help:"Plans inserted into the cache" "eds_plan_cache_insertions_total"

let m_swept =
  Metrics.counter ~help:"Stale-generation plans removed eagerly"
    "eds_plan_cache_swept_total"

let m_template_hits =
  Metrics.counter ~help:"Plan-cache hits served by binding a template's generic plan"
    "eds_plan_cache_template_hits_total"

let m_templates kind =
  Metrics.counter ~help:"Query templates planned, by whether their generic plan is shared"
    ~labels:[ ("kind", kind) ]
    "eds_plan_cache_templates"

let m_templates_generic = m_templates "generic"
let m_templates_custom = m_templates "custom"

type 'a node = {
  key : string;
  mutable value : 'a;
  mutable prev : 'a node option;  (* towards MRU *)
  mutable next : 'a node option;  (* towards LRU *)
}

type 'a t = {
  capacity : int;
  tbl : (string, 'a node) Hashtbl.t;
  mutable mru : 'a node option;
  mutable lru : 'a node option;
  lock : Mutex.t;
}

type stats = { size : int; capacity : int }

let create ~capacity =
  if capacity <= 0 then invalid_arg "Plan_cache.create: capacity must be positive";
  {
    capacity;
    tbl = Hashtbl.create (min capacity 64);
    mru = None;
    lru = None;
    lock = Mutex.create ();
  }

let locked t f =
  Mutex.lock t.lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.lock) f

let unlink t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.mru <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.lru <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.mru;
  n.prev <- None;
  (match t.mru with Some m -> m.prev <- Some n | None -> t.lru <- Some n);
  t.mru <- Some n

let count outcome =
  match outcome with
  | `Hit | `Template_hit ->
      Metrics.Counter.incr m_hits;
      if outcome = `Template_hit then Metrics.Counter.incr m_template_hits
  | `Miss -> Metrics.Counter.incr m_misses

let lookup_locked t key =
  match Hashtbl.find_opt t.tbl key with
  | Some n ->
      unlink t n;
      push_front t n;
      Some n.value
  | None -> None

let find t key =
  locked t (fun () ->
      let found = lookup_locked t key in
      count (if Option.is_some found then `Hit else `Miss);
      found)

let lookup t key = locked t (fun () -> lookup_locked t key)

let note_template = function
  | `Generic -> Metrics.Counter.incr m_templates_generic
  | `Custom -> Metrics.Counter.incr m_templates_custom

let add t key value =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some n ->
          n.value <- value;
          unlink t n;
          push_front t n
      | None ->
          let n = { key; value; prev = None; next = None } in
          Hashtbl.replace t.tbl key n;
          push_front t n;
          Metrics.Counter.incr m_insertions;
          if Hashtbl.length t.tbl > t.capacity then
            match t.lru with
            | Some tail ->
                unlink t tail;
                Hashtbl.remove t.tbl tail.key;
                Metrics.Counter.incr m_evictions
            | None -> ())

let peek t key =
  locked t (fun () ->
      match Hashtbl.find_opt t.tbl key with
      | Some n -> Some n.value
      | None -> None)

(* Eagerly drop entries whose key a new generation has orphaned: left to
   age out of the LRU tail they would squeeze live plans out of a full
   cache (capacity charged for entries that can never hit again). *)
let sweep t stale =
  locked t (fun () ->
      let doomed =
        Hashtbl.fold (fun key n acc -> if stale key then n :: acc else acc) t.tbl []
      in
      List.iter
        (fun n ->
          unlink t n;
          Hashtbl.remove t.tbl n.key;
          Metrics.Counter.incr m_swept)
        doomed;
      List.length doomed)

let clear t =
  locked t (fun () ->
      Hashtbl.reset t.tbl;
      t.mru <- None;
      t.lru <- None)

let stats t = locked t (fun () -> { size = Hashtbl.length t.tbl; capacity = t.capacity })
