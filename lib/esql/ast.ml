module Value = Eds_value.Value

type type_expr =
  | T_name of string
  | T_enum of string list
  | T_tuple of (string * type_expr) list
  | T_set of type_expr
  | T_bag of type_expr
  | T_list of type_expr
  | T_array of type_expr

type expr =
  | Lit of Value.t
  | Ident of string
  | Dot of string * string
  | Call of string * expr list
  | Binop of string * expr * expr
  | Not of expr
  | Quant of quantifier * expr
  | Set_lit of expr list
  | List_lit of expr list
  | In of expr * expr
  | Param of int * Value.t

and quantifier = All | Exist

type select = {
  distinct : bool;
  proj : (expr * string option) list;
  from : (string * string option) list;
  where : expr option;
  group_by : expr list;
  having : expr option;
  union : select option;
}

type stmt =
  | Create_type of {
      name : string;
      is_object : bool;
      supertype : string option;
      definition : type_expr;
      functions : string list;
    }
  | Create_table of { name : string; columns : (string * type_expr) list }
  | Create_view of {
      name : string;
      columns : string list;
      body : select;
      materialized : bool;
    }
  | Insert of { table : string; values : expr list }
  | Delete of { table : string; where : expr option }
  | Update of { table : string; assignments : (string * expr) list; where : expr option }
  | Select_stmt of select
  | Explain of { analyze : bool; query : select }
  | Refresh of string

let comma = Fmt.any ", "

let rec pp_expr ppf = function
  | Lit v -> Value.pp ppf v
  | Ident n -> Fmt.string ppf n
  | Dot (r, a) -> Fmt.pf ppf "%s.%s" r a
  | Call (f, args) -> Fmt.pf ppf "%s(%a)" f (Fmt.list ~sep:comma pp_expr) args
  | Binop (op, a, b) -> Fmt.pf ppf "(%a %s %a)" pp_expr a op pp_expr b
  | Not e -> Fmt.pf ppf "NOT (%a)" pp_expr e
  | Quant (All, e) -> Fmt.pf ppf "ALL (%a)" pp_expr e
  | Quant (Exist, e) -> Fmt.pf ppf "EXIST (%a)" pp_expr e
  | Set_lit es -> Fmt.pf ppf "{%a}" (Fmt.list ~sep:comma pp_expr) es
  | List_lit es -> Fmt.pf ppf "[%a]" (Fmt.list ~sep:comma pp_expr) es
  | In (e, s) -> Fmt.pf ppf "(%a IN %a)" pp_expr e pp_expr s
  | Param (i, _) -> Fmt.pf ppf "$%d" i

let pp_proj_item ppf (e, alias) =
  match alias with
  | None -> pp_expr ppf e
  | Some a -> Fmt.pf ppf "%a AS %s" pp_expr e a

let pp_from_item ppf (n, alias) =
  match alias with
  | None -> Fmt.string ppf n
  | Some a -> Fmt.pf ppf "%s %s" n a

let rec pp_select ppf s =
  Fmt.pf ppf "SELECT %s%a FROM %a"
    (if s.distinct then "DISTINCT " else "")
    (Fmt.list ~sep:comma pp_proj_item)
    s.proj
    (Fmt.list ~sep:comma pp_from_item)
    s.from;
  (match s.where with
  | Some w -> Fmt.pf ppf " WHERE %a" pp_expr w
  | None -> ());
  (match s.group_by with
  | [] -> ()
  | gs -> Fmt.pf ppf " GROUP BY %a" (Fmt.list ~sep:comma pp_expr) gs);
  (match s.having with
  | Some h -> Fmt.pf ppf " HAVING %a" pp_expr h
  | None -> ());
  match s.union with
  | Some rest -> Fmt.pf ppf " UNION %a" pp_select rest
  | None -> ()

let rec pp_type_expr ppf = function
  | T_name n -> Fmt.string ppf n
  | T_enum labels ->
    Fmt.pf ppf "ENUMERATION OF (%a)"
      (Fmt.list ~sep:comma (fun ppf l -> Fmt.pf ppf "'%s'" l))
      labels
  | T_tuple fields ->
    let field ppf (n, t) = Fmt.pf ppf "%s: %a" n pp_type_expr t in
    Fmt.pf ppf "TUPLE (%a)" (Fmt.list ~sep:comma field) fields
  | T_set t -> Fmt.pf ppf "SET OF %a" pp_type_expr t
  | T_bag t -> Fmt.pf ppf "BAG OF %a" pp_type_expr t
  | T_list t -> Fmt.pf ppf "LIST OF %a" pp_type_expr t
  | T_array t -> Fmt.pf ppf "ARRAY OF %a" pp_type_expr t

let pp_stmt ppf = function
  | Create_type { name; is_object; supertype; definition; functions = _ } ->
    Fmt.pf ppf "TYPE %s%s %s%a" name
      (match supertype with Some s -> " SUBTYPE OF " ^ s | None -> "")
      (if is_object then "OBJECT " else "")
      pp_type_expr definition
  | Create_table { name; columns } ->
    let column ppf (n, t) = Fmt.pf ppf "%s: %a" n pp_type_expr t in
    Fmt.pf ppf "TABLE %s (%a)" name (Fmt.list ~sep:comma column) columns
  | Create_view { name; columns; body; materialized } ->
    Fmt.pf ppf "CREATE %sVIEW %s (%a) AS %a"
      (if materialized then "MATERIALIZED " else "")
      name
      (Fmt.list ~sep:comma Fmt.string)
      columns pp_select body
  | Insert { table; values } ->
    Fmt.pf ppf "INSERT INTO %s VALUES (%a)" table (Fmt.list ~sep:comma pp_expr) values
  | Delete { table; where } ->
    Fmt.pf ppf "DELETE FROM %s" table;
    (match where with Some w -> Fmt.pf ppf " WHERE %a" pp_expr w | None -> ())
  | Update { table; assignments; where } ->
    let assign ppf (n, e) = Fmt.pf ppf "%s = %a" n pp_expr e in
    Fmt.pf ppf "UPDATE %s SET %a" table (Fmt.list ~sep:comma assign) assignments;
    (match where with Some w -> Fmt.pf ppf " WHERE %a" pp_expr w | None -> ())
  | Select_stmt s -> pp_select ppf s
  | Explain { analyze; query } ->
    Fmt.pf ppf "EXPLAIN %s%a" (if analyze then "ANALYZE " else "") pp_select query
  | Refresh name -> Fmt.pf ppf "REFRESH %s" name
