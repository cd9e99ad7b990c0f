module Value = Eds_value.Value
module Vtype = Eds_value.Vtype
module Adt = Eds_value.Adt
module Schema = Eds_lera.Schema
module Smap = Map.Make (String)
module Imap = Map.Make (Int)

(* The whole database is one immutable state record behind a single
   mutable field.  Every mutation builds a fresh record (the persistent
   maps share all unchanged substructure) and publishes it with one
   field write, so [snapshot] is O(1): capture the current record and
   never look at the live cell again.  Readers holding a snapshot are
   completely isolated from concurrent writers — the basis of the query
   server's lock-free SELECTs. *)
type state = {
  type_env : Vtype.env;
  adt_registry : Adt.registry;
  relations : Relation.t Smap.t;
  objects : Value.t Imap.t;
  next_oid : int;
  generation : int;  (* bumped by every publish *)
}

type t = { mutable state : state }

let create ?types ?adts () =
  {
    state =
      {
        type_env = Option.value types ~default:Vtype.empty_env;
        adt_registry = (match adts with Some r -> r | None -> Adt.builtins ());
        relations = Smap.empty;
        objects = Imap.empty;
        next_oid = 1;
        generation = 0;
      };
  }

let publish db state = db.state <- { state with generation = state.generation + 1 }
let snapshot db = { state = db.state }
let data_generation db = db.state.generation

let types db = db.state.type_env
let adts db = db.state.adt_registry
let set_types db env = publish db { db.state with type_env = env }
let set_adts db reg = publish db { db.state with adt_registry = reg }

let add_relation db name rel =
  publish db { db.state with relations = Smap.add name rel db.state.relations }

(* Install several relations under one publish: a DML statement and every
   materialized extent it maintains become visible atomically, and the
   data generation moves once per statement, not once per relation. *)
let replace_many db updates =
  publish db
    {
      db.state with
      relations =
        List.fold_left
          (fun m (name, rel) -> Smap.add name rel m)
          db.state.relations updates;
    }

let relation db name =
  match Smap.find_opt name db.state.relations with
  | Some r -> r
  | None -> raise Not_found

let relation_opt db name = Smap.find_opt name db.state.relations

let relation_names db = List.map fst (Smap.bindings db.state.relations)

let insert db name tup =
  let rel = relation db name in
  add_relation db name (Relation.make rel.Relation.schema (tup :: rel.Relation.tuples))

let schema_env db =
  let s = db.state in
  {
    Schema.types = s.type_env;
    Schema.relations =
      Smap.fold (fun name r acc -> (name, r.Relation.schema) :: acc) s.relations [];
    Schema.adts = s.adt_registry;
  }

let restore_object db oid v =
  let s = db.state in
  publish db
    {
      s with
      objects = Imap.add oid v s.objects;
      next_oid = (if oid >= s.next_oid then oid + 1 else s.next_oid);
    }

let objects db = Imap.bindings db.state.objects

let new_object db v =
  let s = db.state in
  let oid = s.next_oid in
  publish db { s with objects = Imap.add oid v s.objects; next_oid = oid + 1 };
  Value.Oid oid

let deref db v =
  match v with
  | Value.Oid oid -> (
    match Imap.find_opt oid db.state.objects with
    | Some bound -> bound
    | None -> raise Not_found)
  | Value.Null | Value.Bool _ | Value.Int _ | Value.Real _ | Value.Str _
  | Value.Enum _ | Value.Tuple _ | Value.Set _ | Value.Bag _ | Value.List _
  | Value.Array _ ->
    v

let update_object db oid v =
  match oid with
  | Value.Oid i ->
    if not (Imap.mem i db.state.objects) then raise Not_found;
    publish db { db.state with objects = Imap.add i v db.state.objects }
  | Value.Null | Value.Bool _ | Value.Int _ | Value.Real _ | Value.Str _
  | Value.Enum _ | Value.Tuple _ | Value.Set _ | Value.Bag _ | Value.List _
  | Value.Array _ ->
    invalid_arg "Database.update_object: not an OID"
