module Metrics = Eds_obs.Metrics

let m_read =
  Metrics.counter ~help:"Reader-writer lock acquisitions"
    ~labels:[ ("mode", "read") ]
    "eds_rwlock_acquisitions_total"

let m_write =
  Metrics.counter ~help:"Reader-writer lock acquisitions"
    ~labels:[ ("mode", "write") ]
    "eds_rwlock_acquisitions_total"

type t = {
  lock : Mutex.t;
  can_read : Condition.t;
  can_write : Condition.t;
  mutable active_readers : int;
  mutable writer : bool;
  mutable waiting_writers : int;
}

let create () =
  {
    lock = Mutex.create ();
    can_read = Condition.create ();
    can_write = Condition.create ();
    active_readers = 0;
    writer = false;
    waiting_writers = 0;
  }

let read_lock t =
  Mutex.lock t.lock;
  (* queue behind waiting writers: writer preference *)
  while t.writer || t.waiting_writers > 0 do
    Condition.wait t.can_read t.lock
  done;
  t.active_readers <- t.active_readers + 1;
  Metrics.Counter.incr m_read;
  Mutex.unlock t.lock

let read_unlock t =
  Mutex.lock t.lock;
  t.active_readers <- t.active_readers - 1;
  if t.active_readers = 0 then Condition.signal t.can_write;
  Mutex.unlock t.lock

let write_lock t =
  Mutex.lock t.lock;
  t.waiting_writers <- t.waiting_writers + 1;
  while t.writer || t.active_readers > 0 do
    Condition.wait t.can_write t.lock
  done;
  t.waiting_writers <- t.waiting_writers - 1;
  t.writer <- true;
  Metrics.Counter.incr m_write;
  Mutex.unlock t.lock

let write_unlock t =
  Mutex.lock t.lock;
  t.writer <- false;
  (* wake a possible next writer first, and all queued readers: whoever
     wins re-checks its predicate under the mutex *)
  Condition.signal t.can_write;
  Condition.broadcast t.can_read;
  Mutex.unlock t.lock

let with_read t f =
  read_lock t;
  Fun.protect ~finally:(fun () -> read_unlock t) f

let with_write t f =
  write_lock t;
  Fun.protect ~finally:(fun () -> write_unlock t) f

let readers t =
  Mutex.lock t.lock;
  let n = t.active_readers in
  Mutex.unlock t.lock;
  n
