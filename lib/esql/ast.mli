(** Abstract syntax of ESQL, the extended SQL of the EDS server
    (paper §2): SQL with ADT values, complex objects and deductive views.

    The grammar covers what the paper exercises: type and table creation
    (Figure 2), select-project-join queries with ADT calls (Figure 3),
    nested views with [MakeSet]/[GROUP BY] and quantifiers (Figure 4),
    and recursive union views (Figure 5). *)

module Value = Eds_value.Value

type type_expr =
  | T_name of string  (** CHAR, NUMERIC, INT, BOOLEAN or a declared type *)
  | T_enum of string list  (** ENUMERATION OF ('a', 'b', …) *)
  | T_tuple of (string * type_expr) list
  | T_set of type_expr
  | T_bag of type_expr
  | T_list of type_expr
  | T_array of type_expr

type expr =
  | Lit of Value.t
  | Ident of string  (** unqualified column *)
  | Dot of string * string  (** [FILM.Numf] *)
  | Call of string * expr list  (** ADT function or attribute-as-function *)
  | Binop of string * expr * expr  (** comparisons, arithmetic, AND, OR *)
  | Not of expr
  | Quant of quantifier * expr  (** [ALL (Salary(Actors) > 10000)] *)
  | Set_lit of expr list  (** [{'a', 'b'}] or IN-lists *)
  | List_lit of expr list
  | In of expr * expr
  | Param of int * Value.t
      (** [Param (i, v)]: slot [i] of a query template, erased from the
          literal [v] ({!Template.erase}).  Translation turns it into a
          {!Eds_lera.Lera.Param}; the value is read only where the
          translation depends on it (enumeration coercion), which pins
          the slot back into a literal.  The parser never produces it. *)

and quantifier = All | Exist

type select = {
  distinct : bool;
  proj : (expr * string option) list;  (** item, optional AS alias *)
  from : (string * string option) list;  (** relation or view, optional alias *)
  where : expr option;
  group_by : expr list;
  having : expr option;
      (** group predicate — an expression over the grouped columns and
          [MakeSet], like aggregate projections *)
  union : select option;  (** SELECT … UNION SELECT … *)
}

type stmt =
  | Create_type of {
      name : string;
      is_object : bool;
      supertype : string option;
      definition : type_expr;
      functions : string list;  (** declared FUNCTION names (bodies are ADTs) *)
    }
  | Create_table of { name : string; columns : (string * type_expr) list }
  | Create_view of {
      name : string;
      columns : string list;
      body : select;
      materialized : bool;
          (** CREATE MATERIALIZED VIEW: the extent is stored and
              incrementally maintained instead of expanded per query *)
    }
  | Insert of { table : string; values : expr list }
  | Delete of { table : string; where : expr option }
  | Update of { table : string; assignments : (string * expr) list; where : expr option }
  | Select_stmt of select
  | Explain of { analyze : bool; query : select }
      (** [EXPLAIN SELECT …] shows the rewritten plan; [EXPLAIN ANALYZE
          SELECT …] executes it and reports per-operator actual rows,
          work counters and elapsed time. *)
  | Refresh of string
      (** [REFRESH <view>]: force a full recompute of a materialized
          view's stored extent. *)

val pp_expr : Format.formatter -> expr -> unit
val pp_select : Format.formatter -> select -> unit
val pp_stmt : Format.formatter -> stmt -> unit
