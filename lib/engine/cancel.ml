(* Per-thread cooperative deadlines.  The probe must stay cheap enough
   for the evaluator's innermost loops, with or without a deadline:

   - Reads are lock-free.  The installed deadlines are an immutable list
     published through one [Atomic.t]; [tick] loads it, returns at once
     when it is empty, and otherwise scans it for the calling thread's
     entry.  Only [with_timeout], its finalizer and [clear] take [lock],
     to replace the list (a few times per served request, never per tick).
   - Clock reads are amortized.  Each entry carries a countdown [left]
     that only its owning thread ever reads or writes (so the scheme is
     domain-safe too): [tick] decrements it and, when it reaches zero,
     re-arms it to [stride - 1] and reads the clock.  A fresh entry
     starts at zero, so the first tick after install always checks; an
     expired deadline fires at most [stride] ticks late.

   A deadline that somehow survives its frame (the stale-deadline bug a
   connection thread would otherwise inherit on its next query) can be
   dropped explicitly with [clear]. *)

exception Timeout of float

let m_timeouts =
  Eds_obs.Metrics.counter
    ~help:"Queries cancelled by a cooperative deadline"
    "eds_cancel_timeouts_total"

(* ticks per clock read once a deadline is installed *)
let stride = 256

type entry = {
  id : int;  (* owning thread *)
  deadline : float;  (* absolute, [Unix.gettimeofday] time *)
  budget : float;  (* what [Timeout] reports: the binding deadline's *)
  mutable left : int;  (* ticks until the next clock read; owner-only *)
}

(* at most one entry per thread; replaced only under [lock] *)
let installed : entry list Atomic.t = Atomic.make []
let lock = Mutex.create ()

let active () = Atomic.get installed <> []

let self_id () = Thread.id (Thread.self ())

let find id = List.find_opt (fun e -> e.id = id) (Atomic.get installed)

(* install [entry] (or nothing) as thread [id]'s deadline; caller holds
   [lock] *)
let publish id entry =
  let others = List.filter (fun e -> e.id <> id) (Atomic.get installed) in
  Atomic.set installed
    (match entry with Some e -> e :: others | None -> others)

let clear () = Mutex.protect lock (fun () -> publish (self_id ()) None)

let with_timeout budget f =
  let id = self_id () in
  let deadline = Unix.gettimeofday () +. budget in
  let previous =
    Mutex.protect lock (fun () ->
        let previous = find id in
        (* nesting never extends an enclosing deadline, and [Timeout]
           reports the budget of whichever deadline binds *)
        let entry =
          match previous with
          | Some p when p.deadline <= deadline -> { p with left = 0 }
          | Some _ | None -> { id; deadline; budget; left = 0 }
        in
        publish id (Some entry);
        previous)
  in
  (* one finalizer restores the enclosing entry, countdown included (or
     clears), on every exit path, normal or exceptional *)
  Fun.protect
    ~finally:(fun () -> Mutex.protect lock (fun () -> publish id previous))
    f

let check_clock e =
  e.left <- stride - 1;
  if Unix.gettimeofday () >= e.deadline then begin
    Eds_obs.Metrics.Counter.incr m_timeouts;
    raise (Timeout e.budget)
  end

let rec probe id = function
  | [] -> ()
  | e :: rest ->
    if e.id <> id then probe id rest
    else if e.left > 0 then e.left <- e.left - 1
    else check_clock e

let tick () =
  match Atomic.get installed with
  | [] -> ()
  | entries -> probe (self_id ()) entries
