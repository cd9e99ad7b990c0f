(** Rewrite rules, blocks and rule programs (paper §4).

    A rule reads: "if the left term appears in the query under the given
    set of constraints, it is rewritten as the given right term after the
    application of the given set of methods" (§4.1).  Control is
    expressed with meta-rules (§4.2): [block({rules}, value)] bounds the
    number of rule-condition checks, and [seq({blocks}, value)] runs
    blocks in order, the whole sequence up to [value] times. *)

module Term = Eds_term.Term

type t = {
  name : string;
  lhs : Term.t;
  constraints : Term.t list;  (** all must hold for the rule to apply *)
  rhs : Term.t;
  methods : (string * Term.t list) list;
      (** external functions run after matching; they bind the rhs's
          output variables and may veto the application by failing *)
}

type block = {
  block_name : string;
  rules : t list;
  limit : int option;  (** [None] = apply up to saturation (infinite limit) *)
}

type program = {
  blocks : block list;
  rounds : int;  (** the seq meta-rule's value *)
}

val pp : Format.formatter -> t -> unit
(** Concrete rule syntax: [name: lhs / c1, c2 --> rhs / m1, m2]. *)

val pp_block : Format.formatter -> block -> unit
val pp_program : Format.formatter -> program -> unit

val block : ?limit:int -> string -> t list -> block
val program : ?rounds:int -> block list -> program

(** {1 Compiled blocks}

    The engine never scans a block's full rule list at every node: a
    block is compiled once into a dispatch table keyed on the lhs head
    constructor, and {!candidates} returns the (usually much shorter)
    list of rules whose lhs could possibly match a given subject term. *)

type compiled

val compile : block -> compiled

val source : compiled -> block
val rule_count : compiled -> int

val candidates : compiled -> Term.t -> t list
(** Rules of the block whose lhs is head-compatible with the subject
    (per {!Eds_term.Matcher.head_compatible}), in the block's original
    rule order.  Sound over-approximation: every rule with at least one
    match is included; rules that cannot match are (mostly) excluded.
    The returned list is precomputed — no allocation per call. *)

val output_variables : t -> string list
(** Variables of the rhs and of method argument lists that are bound
    neither by the lhs nor by an earlier method — i.e. the method output
    parameters ("methods modify input parameters of the right term, and
    return them as output parameters", §4.1). *)
