(* Per-request cooperative deadlines.  The probe must stay cheap enough
   for the evaluator's innermost loops: clock reads are amortized by a
   countdown [left] that [tick] decrements and, when it reaches zero,
   re-arms to [stride - 1] before reading the clock.  A fresh deadline
   starts at zero, so the first tick always checks; an expired deadline
   fires at most [stride] ticks late. *)

exception Timeout of float

let m_timeouts =
  Eds_obs.Metrics.counter
    ~help:"Queries cancelled by a cooperative deadline"
    "eds_cancel_timeouts_total"

(* ticks per clock read *)
let stride = 256

type t = {
  deadline : float;  (* absolute, [Unix.gettimeofday] time *)
  budget : float;  (* what [Timeout] reports *)
  mutable left : int;  (* ticks until the next clock read *)
}

let start budget =
  { deadline = Unix.gettimeofday () +. budget; budget; left = 0 }

let check_clock t =
  t.left <- stride - 1;
  if Unix.gettimeofday () >= t.deadline then begin
    Eds_obs.Metrics.Counter.incr m_timeouts;
    raise (Timeout t.budget)
  end

let tick t = if t.left > 0 then t.left <- t.left - 1 else check_clock t
