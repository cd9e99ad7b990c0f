(** An in-memory EDS database instance: base relations, the object store
    binding OIDs to values (paper §2.1: "an object has a unique identifier
    with a value bound to it"), the type environment and the ADT function
    registry. *)

module Value = Eds_value.Value
module Vtype = Eds_value.Vtype
module Adt = Eds_value.Adt
module Schema = Eds_lera.Schema

type t

val create : ?types:Vtype.env -> ?adts:Adt.registry -> unit -> t
(** A fresh database with the built-in ADT library. *)

val snapshot : t -> t
(** An O(1) immutable snapshot: the returned database reflects the state
    at the call and never changes again, no matter what is subsequently
    done to the live one (internally all state lives in persistent maps
    behind a single mutable cell, so a snapshot is one record copy).
    Queries evaluated against a snapshot need no locking whatsoever. *)

val data_generation : t -> int
(** Monotone data epoch: bumped by every mutation (relation replace,
    insert, object allocation/update, type/ADT sync).  A snapshot keeps
    the generation it was taken at. *)

val types : t -> Vtype.env
val adts : t -> Adt.registry
val set_types : t -> Vtype.env -> unit
val set_adts : t -> Adt.registry -> unit

(** {1 Relations} *)

val add_relation : t -> string -> Relation.t -> unit
(** Create or replace a base relation. *)

val replace_many : t -> (string * Relation.t) list -> unit
(** Create or replace several relations under a {e single} publish, so
    readers see all of them change atomically and the data generation is
    bumped once.  Used by DML to install a base-relation change together
    with every maintained materialized-view extent. *)

val relation : t -> string -> Relation.t
(** Raises [Not_found]. *)

val relation_opt : t -> string -> Relation.t option
val relation_names : t -> string list

val insert : t -> string -> Relation.tuple -> unit
(** Insert one tuple; no-op if already present (set semantics). *)

val schema_env : t -> Schema.env
(** Environment for {!Eds_lera.Schema.of_rel} over this database. *)

(** {1 Objects} *)

val new_object : t -> Value.t -> Value.t
(** Allocate a fresh OID bound to the given value; returns [Value.Oid]. *)

val deref : t -> Value.t -> Value.t
(** Value bound to an OID (the VALUE built-in of §3.3); non-OID values
    are returned unchanged, so VALUE is idempotent on plain values.
    Raises [Not_found] on a dangling OID. *)

val update_object : t -> Value.t -> Value.t -> unit
(** [update_object db oid v] rebinds an existing object. *)

val restore_object : t -> int -> Value.t -> unit
(** Bind a specific OID (dump/restore); keeps the allocator ahead of it. *)

val objects : t -> (int * Value.t) list
(** All objects, sorted by OID. *)
