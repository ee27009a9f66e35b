(* The one byte-bounded LRU map: the pipeline cache, the daemon's binary
   store and its whole-response memo are all instances.

   Every access stamps the entry with a fresh tick from a per-map
   counter, so ticks are unique and the victim — the entry with the
   lowest tick — is a deterministic function of the access history,
   never of hash order. An ordered map from tick to key finds it in
   O(log n). A hit only restamps its entry: re-filing it in the ordered
   map on every access costs several times the table lookup itself, so
   entries are re-filed lazily, when eviction reaches them.

   An entry costs its key and value bytes plus [entry_overhead], so
   [max_bytes] bounds the heap the map holds, not only its payloads. An
   entry larger than the whole map is refused ([add] returns [false])
   rather than evicting everything for nothing. All operations are
   mutex-protected; instances are shared across threads and domains. *)

module Ticks = Map.Make (Int)

(* The heap an entry holds beyond its key and value bytes, in words: the
   table bucket (header, key, data, next: 4), the entry record (header,
   value, used, filed: 4), the tick-map node (header, l, v, d, r, h: 6),
   the header and end padding of the key and of the value strings (2
   each: 4) and the entry's share of the bucket array (1). *)
let entry_overhead = 19 * (Sys.word_size / 8)

let cost ~key value = String.length key + String.length value + entry_overhead

type stats = {
  st_hits : int;
  st_misses : int;
  st_stores : int;
  st_evictions : int;
  st_rejected : int;
  st_bytes : int;
  st_entries : int;
}

(* [used] is the tick of the last access; [filed] is the tick the entry
   is indexed under in [order], never later than [used]. *)
type entry = { value : string; mutable used : int; mutable filed : int }

type t = {
  max_bytes : int;
  tbl : (string, entry) Hashtbl.t;
  mutable order : string Ticks.t; (* filed tick -> key *)
  lock : Mutex.t;
  mutable total : int;
  mutable tick : int;
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable evictions : int;
  mutable rejected : int;
}

let create ?(max_bytes = 1 lsl 30) () =
  {
    max_bytes = max 1 max_bytes;
    tbl = Hashtbl.create 64;
    order = Ticks.empty;
    lock = Mutex.create ();
    total = 0;
    tick = 0;
    hits = 0;
    misses = 0;
    stores = 0;
    evictions = 0;
    rejected = 0;
  }

let copy t =
  Mutex.protect t.lock @@ fun () ->
  let tbl = Hashtbl.copy t.tbl in
  (* Fresh entry records: their ticks are mutable. *)
  Hashtbl.filter_map_inplace (fun _ e -> Some { e with used = e.used }) tbl;
  { (create ~max_bytes:t.max_bytes ()) with
    tbl;
    order = t.order;
    total = t.total;
    tick = t.tick;
  }

(* The helpers below assume [t.lock] is held. *)

let next_tick t =
  t.tick <- t.tick + 1;
  t.tick

let unlink t key =
  match Hashtbl.find_opt t.tbl key with
  | Some e ->
      Hashtbl.remove t.tbl key;
      t.order <- Ticks.remove e.filed t.order;
      t.total <- t.total - cost ~key e.value
  | None -> ()

(* Every entry's last use is at or after its filed tick, so the lowest
   filed entry is the least recently used one if it has not been used
   since it was filed; otherwise it is re-filed under its last use and
   the search goes on. *)
let rec evict_until_fits t need =
  if t.total + need > t.max_bytes then
    match Ticks.min_binding_opt t.order with
    | Some (filed, key) ->
        let e = Hashtbl.find t.tbl key in
        if e.used = filed then begin
          unlink t key;
          t.evictions <- t.evictions + 1
        end
        else begin
          t.order <- Ticks.add e.used key (Ticks.remove filed t.order);
          e.filed <- e.used
        end;
        evict_until_fits t need
    | None -> ()

let add t ~key value =
  Mutex.protect t.lock @@ fun () ->
  let n = cost ~key value in
  if n > t.max_bytes then begin
    t.rejected <- t.rejected + 1;
    false
  end
  else begin
    (* Content-addressed callers re-add the same bytes; keyed callers
       may genuinely replace. Either way the footprint stays exact. *)
    unlink t key;
    evict_until_fits t n;
    let tick = next_tick t in
    Hashtbl.replace t.tbl key { value; used = tick; filed = tick };
    t.order <- Ticks.add tick key t.order;
    t.total <- t.total + n;
    t.stores <- t.stores + 1;
    true
  end

let find t key =
  Mutex.protect t.lock @@ fun () ->
  match Hashtbl.find_opt t.tbl key with
  | Some e ->
      e.used <- next_tick t;
      t.hits <- t.hits + 1;
      Some e.value
  | None ->
      t.misses <- t.misses + 1;
      None

let remove t key = Mutex.protect t.lock @@ fun () -> unlink t key

let stats t =
  Mutex.protect t.lock @@ fun () ->
  {
    st_hits = t.hits;
    st_misses = t.misses;
    st_stores = t.stores;
    st_evictions = t.evictions;
    st_rejected = t.rejected;
    st_bytes = t.total;
    st_entries = Hashtbl.length t.tbl;
  }

let max_bytes t = t.max_bytes
