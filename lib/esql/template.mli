(** Literal-abstracted query templates (ReSequel's templatization).

    Two SELECTs that differ only in their scalar literals share one
    template.  {!erase} replaces each such literal by a numbered
    {!Ast.Param} slot; {!key} serializes the result with every slot's
    type but none of its value, so the plan cache can hold one generic
    plan per template and bind each request's literals into it.

    Erased literals are the INT, NUMERIC and CHAR constants outside
    set and list literals.  Booleans, NULL, object identifiers and
    collection literals stay in the template, and so in its key. *)

module Value = Eds_value.Value

val erase : Ast.select -> Ast.select * Value.t array
(** Number the erasable literals [1..n] in a fixed traversal order and
    return the template with the literals by slot ([values.(i-1)] is
    slot [i]).  Erasing a SELECT whose literals differ only in value
    yields the same template. *)

val pin : int list -> Ast.select -> Ast.select
(** Turn the listed slots back into the literals they hold.  Used for a
    slot whose translation depends on its value: the literal then stays
    in the template and in its key. *)

val key : Ast.select -> string
(** A lossless serialization of a template: equal keys mean equal
    templates, slot types included, and no parameter value enters it.
    Pinned slots and every literal that was not erased keep their exact
    value. *)
