(* The buffer pool: a bounded cache of pages with pin counts, dirty
   tracking, and LRU eviction.  Evicting a dirty page flushes it — the
   "steal" in steal/no-force — but only after the WAL hook has made the
   log durable up to that page's LSN (write-ahead rule).  A miss in a
   full pool reads the new page into the victim's buffer, so a page
   handed out by [fetch] is the caller's only while it stays pinned. *)

type stats = {
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable flushes : int;
}

type frame = {
  page : Page.t;
  mutable dirty : bool;
  mutable pins : int;
  mutable stamp : int;
}

type metrics = {
  m_hits : Obs.Registry.Counter.t;
  m_misses : Obs.Registry.Counter.t;
  m_evictions : Obs.Registry.Counter.t;
  m_flushes : Obs.Registry.Counter.t;
  m_resident : Obs.Registry.Gauge.t;
}

let make_metrics registry =
  let counter = Obs.Registry.counter registry in
  {
    m_hits = counter ~unit:"fetches" ~help:"fetches served from the pool" "pool.hits";
    m_misses =
      counter ~unit:"fetches" ~help:"fetches that read from disk" "pool.misses";
    m_evictions = counter ~unit:"pages" ~help:"frames evicted (LRU)" "pool.evictions";
    m_flushes =
      counter ~unit:"pages" ~help:"dirty frames written back" "pool.flushes";
    m_resident =
      Obs.Registry.gauge registry ~unit:"pages" ~help:"frames currently cached"
        "pool.resident";
  }

type t = {
  pager : Pager.t;
  capacity : int;
  frames : (int, frame) Hashtbl.t;
  stats : stats;
  metrics : metrics;
  mutable clock : int;
  mutable wal_barrier : int -> unit;
}

exception Pool_exhausted

let create ?(capacity = 64) ?(metrics = Obs.Registry.noop) pager =
  if capacity < 1 then invalid_arg "Buffer_pool.create: capacity < 1";
  {
    pager;
    capacity;
    frames = Hashtbl.create (2 * capacity);
    stats = { hits = 0; misses = 0; evictions = 0; flushes = 0 };
    metrics = make_metrics metrics;
    clock = 0;
    wal_barrier = (fun _ -> ());
  }

let pager t = t.pager
let stats t = t.stats
let capacity t = t.capacity
let set_wal_barrier t f = t.wal_barrier <- f

let touch t frame =
  t.clock <- t.clock + 1;
  frame.stamp <- t.clock

let flush_frame t id frame =
  if frame.dirty then begin
    t.wal_barrier (Page.lsn frame.page);
    Pager.write_page t.pager id frame.page;
    frame.dirty <- false;
    t.stats.flushes <- t.stats.flushes + 1;
    Obs.Registry.Counter.incr t.metrics.m_flushes
  end

(* Evict the least recently used unpinned frame (stamps are unique, so
   the victim is too) and hand back its buffer for the caller to reuse. *)
let evict_one t =
  let victim = ref (-1) and oldest = ref max_int in
  Hashtbl.iter
    (fun id frame ->
      if frame.pins = 0 && frame.stamp < !oldest then begin
        victim := id;
        oldest := frame.stamp
      end)
    t.frames;
  if !victim < 0 then raise Pool_exhausted;
  let id = !victim in
  let frame = Hashtbl.find t.frames id in
  flush_frame t id frame;
  Hashtbl.remove t.frames id;
  t.stats.evictions <- t.stats.evictions + 1;
  Obs.Registry.Counter.incr t.metrics.m_evictions;
  Obs.Registry.Gauge.set t.metrics.m_resident (Hashtbl.length t.frames);
  frame.page

let fetch t id =
  match Hashtbl.find_opt t.frames id with
  | Some frame ->
      t.stats.hits <- t.stats.hits + 1;
      Obs.Registry.Counter.incr t.metrics.m_hits;
      frame.pins <- frame.pins + 1;
      touch t frame;
      frame.page
  | None ->
      t.stats.misses <- t.stats.misses + 1;
      Obs.Registry.Counter.incr t.metrics.m_misses;
      (* a full pool reads into the victim's bytes: no page allocated *)
      let page =
        if Hashtbl.length t.frames >= t.capacity then evict_one t
        else Bytes.create Page.size
      in
      Pager.read_page_into t.pager id page;
      let frame = { page; dirty = false; pins = 1; stamp = 0 } in
      touch t frame;
      Hashtbl.replace t.frames id frame;
      Obs.Registry.Gauge.set t.metrics.m_resident (Hashtbl.length t.frames);
      page

let frame_exn t id what =
  match Hashtbl.find_opt t.frames id with
  | Some f -> f
  | None -> invalid_arg (Printf.sprintf "Buffer_pool.%s: page %d not resident" what id)

let unpin t id =
  let f = frame_exn t id "unpin" in
  if f.pins <= 0 then invalid_arg "Buffer_pool.unpin: not pinned";
  f.pins <- f.pins - 1

let mark_dirty t id = (frame_exn t id "mark_dirty").dirty <- true

let with_page t id f =
  let page = fetch t id in
  Fun.protect ~finally:(fun () -> unpin t id) (fun () -> f page)

let adopt t id page =
  if Hashtbl.length t.frames >= t.capacity then ignore (evict_one t : Page.t);
  let frame = { page; dirty = false; pins = 0; stamp = 0 } in
  touch t frame;
  Hashtbl.replace t.frames id frame;
  Obs.Registry.Gauge.set t.metrics.m_resident (Hashtbl.length t.frames)

let flush_page t id =
  match Hashtbl.find_opt t.frames id with
  | Some frame -> flush_frame t id frame
  | None -> ()

let flush_all t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.frames []
  |> List.sort Int.compare
  |> List.iter (fun id -> flush_page t id)

let drop_clean t =
  let victims =
    Hashtbl.fold
      (fun id f acc -> if (not f.dirty) && f.pins = 0 then id :: acc else acc)
      t.frames []
  in
  List.iter (Hashtbl.remove t.frames) victims;
  Obs.Registry.Gauge.set t.metrics.m_resident (Hashtbl.length t.frames)

let dirty t = Hashtbl.fold (fun _ f acc -> acc || f.dirty) t.frames false

let resident t = Hashtbl.length t.frames
