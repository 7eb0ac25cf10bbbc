(** A bounded page cache with pin/unpin, dirty tracking, LRU eviction,
    and hit/miss/eviction/flush counters.

    Evicting a dirty page writes it back even if the transaction that
    dirtied it is still running — the {e steal} policy — but only after
    the WAL barrier has made the log durable up to that page's LSN
    (the write-ahead rule).  Commit does not force pages ({e no-force});
    durability comes from the WAL alone.

    {b Pin-scoped pages.}  Frames are recycled: a miss in a full pool
    reads the new page into the evicted frame's buffer.  A {!Page.t}
    returned by {!fetch} (or passed to {!with_page}'s function) is
    therefore valid only while it is pinned; after the matching
    {!unpin} the same bytes may already hold another page.  Copy out
    whatever must outlive the pin. *)

(** Legacy in-process counters (predates [lib/obs]); kept because tests
    and the storage bench read them without wiring a registry. *)
type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable flushes : int;
}

type t
(** A pool: a bounded frame table over a {!Pager.t}. *)

exception Pool_exhausted
(** Every frame is pinned and a new page was requested. *)

val create : ?capacity:int -> ?metrics:Obs.Registry.t -> Pager.t -> t
(** [capacity] frames (default 64).  [metrics] receives the [pool.*]
    instruments (hit/miss/eviction/flush counters and the
    [pool.resident] gauge), mirroring the legacy {!stats} record;
    defaults to {!Obs.Registry.noop}. *)

val fetch : t -> int -> Page.t
(** Pin and return the page, reading (and possibly evicting) on miss.
    The page is valid until the pin is dropped (see above). *)

val unpin : t -> int -> unit
(** Drop one pin; the frame becomes evictable at zero pins. *)

val with_page : t -> int -> (Page.t -> 'a) -> 'a
(** Fetch, apply, unpin (exception-safe).  The function must not let
    the page escape: its result must not be or share the page's
    bytes. *)

val mark_dirty : t -> int -> unit
(** The caller mutated the page; it must currently be resident. *)

val adopt : t -> int -> Page.t -> unit
(** Insert a freshly allocated page into the pool without re-reading it. *)

val flush_page : t -> int -> unit
(** Write back one dirty frame (after the WAL barrier); no-op if clean
    or absent. *)

val flush_all : t -> unit
(** Write back dirty frames (in page-id order, for determinism). *)

val dirty : t -> bool
(** Does any frame hold changes not yet written back? *)

val drop_clean : t -> unit
(** Forget clean unpinned frames — used by tests to simulate a cold
    cache without closing the file. *)

val set_wal_barrier : t -> (int -> unit) -> unit
(** [f lsn] is called before any dirty page with page-LSN [lsn] is
    written back; the engine points it at WAL flush. *)

val stats : t -> stats
(** The live legacy counters (mutated in place). *)

val capacity : t -> int
(** Frame budget this pool was created with. *)

val resident : t -> int
(** Frames currently cached (= the [pool.resident] gauge). *)

val pager : t -> Pager.t
(** The underlying pager. *)
