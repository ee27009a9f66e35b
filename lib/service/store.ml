(* The daemon's content-addressed binary store and its whole-response
   memo: both are [Icfg_core.Lru] instances; this module adds the
   content digest that names a binary on the wire. *)

include Icfg_core.Lru

let digest s =
  Icfg_core.Trace.add "cost.bytes_hashed" (String.length s);
  Digest.to_hex (Digest.string s)
