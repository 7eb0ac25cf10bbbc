(** Relational algebra: abstract syntax, schema inference (static typing),
    and pretty-printing.

    This is the classical named algebra of Codd — selection, projection,
    renaming, product, union, difference — plus the derived operators
    (natural join, intersection, division) that the PODS-era literature
    treats as primitive.  Codd's theorem (implemented in the [calculus]
    library) translates safe relational calculus into exactly this
    algebra. *)

type comparison = Eq | Ne | Lt | Le | Gt | Ge

type operand = Attr of Schema.attribute | Const of Value.t

type predicate =
  | True
  | False
  | Cmp of comparison * operand * operand
  | And of predicate * predicate
  | Or of predicate * predicate
  | Not of predicate

type t =
  | Rel of string  (** base relation, looked up in the catalog *)
  | Singleton of (Schema.attribute * Value.t) list
      (** constant one-tuple relation ⟨c1, …, ck⟩, a primitive of the
          Alice-book algebras; [Singleton \[\]] is the zero-ary relation
          containing the empty tuple (i.e. "true") *)
  | Select of predicate * t
  | Project of Schema.attribute list * t
  | Rename of (Schema.attribute * Schema.attribute) list * t
  | Product of t * t
  | Join of t * t  (** natural join *)
  | Union of t * t
  | Inter of t * t
  | Diff of t * t
  | Divide of t * t

exception Type_error of string

type catalog = string -> Schema.t
(** Schema environment; raise {!Type_error} (or any exception) on unknown
    names. *)

val schema_of : catalog -> t -> Schema.t
(** Static schema inference; raises {!Type_error} when an operator is
    applied to incompatible operands (e.g. union of different schemas,
    predicate mentioning an absent attribute, comparison across types). *)

val well_typed : catalog -> t -> bool

val attributes_of_predicate : predicate -> Schema.attribute list
(** Attributes mentioned by a predicate, without duplicates. *)

val eval_predicate : Schema.t -> predicate -> Tuple.t -> bool
(** Evaluates a predicate against a tuple laid out by the given schema.
    Assumes the predicate type-checked against that schema.  Staged: the
    partial application [eval_predicate schema p] resolves attribute
    positions once and returns the per-tuple test, so apply it once per
    operator, not once per tuple. *)

val conjuncts : predicate -> predicate list
(** Flattens nested [And]s. *)

val conjoin : predicate list -> predicate
(** Right fold of [And]; [True] on the empty list. *)

val size : t -> int
(** Number of operator nodes (for generators and optimizer statistics). *)

val comparison_to_string : comparison -> string
val operand_to_string : operand -> string
val predicate_to_string : predicate -> string
val to_string : t -> string
val pp : Format.formatter -> t -> unit

val catalog_of_database : Database.t -> catalog
