(** Heap storage over the pager: page chains of variable-length records,
    accessed through the buffer pool.

    Hosts the three on-disk structures above the raw pages: the
    transactional item store (the KV plane the WAL protects), per-table
    tuple chains, and the table catalog. *)

val kind_items : int
(** Page kind tag of item-store pages, visible in [db status]. *)

val kind_table : int
(** Page kind tag of table tuple-chain pages. *)

val kind_catalog : int
(** Page kind tag of catalog pages. *)

val iter_page :
  Buffer_pool.t -> int -> (Relational.Tuple.t -> unit) -> int
(** [iter_page pool id f] decodes each live record of table-chain page
    [id] in place, while the page is pinned (no record is copied out
    first), and calls [f] on the tuples in slot order; returns the next
    page id (0 at the end of the chain).  The unit a pull-based scan
    cursor consumes: at most one page of the chain is held at a time. *)

val iter_tuples :
  Buffer_pool.t -> first:int -> (Relational.Tuple.t -> unit) -> unit
(** {!iter_page} down the whole chain rooted at [first], in chain and
    slot order. *)

val chain_pages : Buffer_pool.t -> first:int -> int
(** Number of pages in the chain rooted at [first] (0 when [first] is 0)
    — the I/O footprint a sequential scan pays, feeding the planner's
    cost model. *)

(** The item store: a string-keyed map to int values (absent reads 0),
    with an in-memory directory built at open and in-place updates whose
    page-LSN discipline implements the ARIES redo test. *)
module Items : sig
  type t

  val load : Buffer_pool.t -> t
  (** Scan the item chain (root in the pager header) and build the
      directory. *)

  val get : t -> string -> int

  val set : t -> lsn:int -> string -> int -> bool
  (** Apply a logged write: [false] when the item's page LSN already
      covers [lsn] (redo skip), [true] after applying and raising the
      page LSN. *)

  val all : t -> (string * int) list
  (** Sorted; items whose current value is 0 are omitted (reading an
      absent item yields 0, matching {!Transactions.Recovery.read}). *)

  val count : t -> int

  val page_lsns : t -> (int * int) list
  (** (page id, page LSN) down the item chain, in chain order — the
      engine compares these against the surviving log's end to spot
      stolen pages whose log records were lost. *)
end

val save_relation : Buffer_pool.t -> Relational.Relation.t -> int
(** Write the relation's tuples into a fresh chain; returns its first
    page id. *)

val load_relation :
  Buffer_pool.t -> schema:Relational.Schema.t -> first:int -> Relational.Relation.t

type table = { name : string; schema : Relational.Schema.t; first : int }
(** One catalog entry: table name, schema, and its chain's first page. *)

val catalog : Buffer_pool.t -> table list
(** All catalog entries, in catalog-chain order. *)

val add_table : Buffer_pool.t -> table -> unit
(** Append an entry to the catalog chain (no uniqueness check — see
    {!replace_table}). *)

val replace_table : Buffer_pool.t -> table -> unit
(** [replace_table] rewrites the catalog chain; the replaced table's data
    pages are leaked (no free list yet — see DESIGN.md). *)
