(** The one byte-bounded LRU map of strings: {!Cache}, the daemon's
    content-addressed binary store and its whole-response memo are all
    instances of this structure.

    Every access stamps its entry with a fresh, unique tick; eviction
    removes the lowest-tick entry (found through an ordered tick index
    in amortized O(log n); a hit costs one table lookup), so the victim
    order is a deterministic function of the access history. An entry
    costs {!cost}: its key and value bytes plus {!entry_overhead}. An
    entry larger than the whole capacity is refused ([add] returns
    [false]) rather than evicting everything for nothing. Thread-safe. *)

type t

type stats = {
  st_hits : int;  (** [find] found the key *)
  st_misses : int;  (** [find] did not *)
  st_stores : int;  (** successful [add]s *)
  st_evictions : int;  (** entries dropped to fit an [add] *)
  st_rejected : int;  (** [add]s refused: entry over the whole capacity *)
  st_bytes : int;  (** current footprint: the sum of the entries' {!cost} *)
  st_entries : int;
}

val entry_overhead : int
(** Heap bytes an entry holds beyond its key and value: table bucket,
    entry record, tick-index node, string headers and padding, and its
    share of the bucket array (19 words). *)

val cost : key:string -> string -> int
(** [String.length key + String.length value + entry_overhead]: what an
    entry counts against the capacity. *)

val create : ?max_bytes:int -> unit -> t
(** Default capacity 1 GiB. *)

val copy : t -> t
(** Same capacity, entries and access order; zeroed counters. The copy
    shares no mutable state with the original. *)

val add : t -> key:string -> string -> bool
(** Insert (or replace) [key] as the most recently used entry, evicting
    least-recently-used entries until the entry fits. [false] iff the
    entry's {!cost} alone exceeds the capacity — nothing is evicted in
    that case. *)

val find : t -> string -> string option
(** Lookup; a hit makes the entry the most recently used. *)

val remove : t -> string -> unit
(** Drop [key] if present (not counted as an eviction). *)

val stats : t -> stats
val max_bytes : t -> int
