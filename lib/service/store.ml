(* Bounded in-memory byte store with deterministic LRU eviction — the
   daemon's binary store and its whole-response memo are both instances.

   Eviction reuses [Icfg_core.Cache]'s discipline: every access stamps
   the entry with a monotonically increasing tick, and when an insert
   would push the store past [max_bytes] the victim is the entry with
   the smallest tick, ties broken by key — so the victim order is a
   deterministic function of the access history, never of hash order.

   A value larger than the whole store is refused ([add] returns
   [false]) rather than evicting everything for nothing: the caller
   turns that into a typed wire refusal. All operations are
   mutex-protected; the store is shared by every connection thread. *)

type stats = {
  st_hits : int;
  st_misses : int;
  st_stores : int;
  st_evictions : int;
  st_rejected : int;  (* values over the whole-store capacity *)
  st_bytes : int;  (* current footprint (values only) *)
  st_entries : int;
}

type t = {
  max_bytes : int;
  tbl : (string, string * int ref) Hashtbl.t; (* key -> (value, last tick) *)
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
    lock = Mutex.create ();
    total = 0;
    tick = 0;
    hits = 0;
    misses = 0;
    stores = 0;
    evictions = 0;
    rejected = 0;
  }

let digest s =
  Icfg_core.Trace.add "cost.bytes_hashed" (String.length s);
  Digest.to_hex (Digest.string s)

let bump t r =
  t.tick <- t.tick + 1;
  r := t.tick

(* Smallest tick wins; ties (possible only for entries never touched
   since a bulk seed) break by key, like Cache's disk victims. *)
let victim t =
  Hashtbl.fold
    (fun k (_, tick) best ->
      match best with
      | Some (bk, bt) when bt < !tick || (bt = !tick && bk <= k) -> best
      | _ -> Some (k, !tick))
    t.tbl None

let evict_until_fits t need =
  let rec go () =
    if t.total + need > t.max_bytes then
      match victim t with
      | None -> ()
      | Some (k, _) ->
          (match Hashtbl.find_opt t.tbl k with
          | Some (v, _) ->
              t.total <- t.total - String.length v;
              Hashtbl.remove t.tbl k;
              t.evictions <- t.evictions + 1
          | None -> ());
          go ()
  in
  go ()

let add t ~key value =
  Mutex.protect t.lock @@ fun () ->
  let n = String.length value in
  if n > t.max_bytes then begin
    t.rejected <- t.rejected + 1;
    false
  end
  else begin
    (match Hashtbl.find_opt t.tbl key with
    | Some (old, tick) ->
        (* Content-addressed callers re-add the same bytes; keyed callers
           may genuinely replace. Either way the footprint stays exact. *)
        t.total <- t.total - String.length old;
        Hashtbl.remove t.tbl key;
        ignore tick
    | None -> ());
    evict_until_fits t n;
    t.total <- t.total + n;
    let tick = ref 0 in
    Hashtbl.replace t.tbl key (value, tick);
    bump t tick;
    t.stores <- t.stores + 1;
    true
  end

let find t key =
  Mutex.protect t.lock @@ fun () ->
  match Hashtbl.find_opt t.tbl key with
  | Some (v, tick) ->
      bump t tick;
      t.hits <- t.hits + 1;
      Some v
  | None ->
      t.misses <- t.misses + 1;
      None

let mem t key =
  Mutex.protect t.lock @@ fun () -> Hashtbl.mem t.tbl key

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
