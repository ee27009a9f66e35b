(** The daemon's content-addressed binary store and its whole-response
    memo: both are instances of the one bounded LRU, {!Icfg_core.Lru}
    (default capacity 1 GiB, deterministic victims, a value over the
    whole capacity refused — the server turns that into a typed
    [Rejected] frame). *)

include module type of struct
  include Icfg_core.Lru
end

val digest : string -> string
(** Content digest used as the wire-visible binary handle (32 hex
    chars). Adds the bytes hashed to the ambient trace's
    [cost.bytes_hashed]. *)
