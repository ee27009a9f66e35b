(** Content-addressed memoization of per-function pipeline artifacts.

    Every pure per-item stage of the pipeline — per-function CFG /
    jump-table analysis, finalization + liveness, function-pointer scans,
    relocation, trampoline placement planning, and [Asm.encode_chunks]
    chunk encoding — is a deterministic function of plain data. A cache
    entry is keyed by a digest of {e everything} that function reads
    (function bytes, whole-binary context, failure model, rewrite options,
    stage tag), so a stale entry can never match: any input change
    changes the key and the entry is simply never found again. There is
    no mutation-based invalidation to get wrong.

    The store is one {!Lru.t} bounded by [create ~max_bytes] (default
    1 GiB) and shared safely across the daemon's executor domains: past
    the bound, least-recently-used entries are evicted (counted in
    [c_evict_lru] / the daemon's [cache.evict_lru]), so a long-lived
    daemon's cache stays inside its memory bound. The cache keeps no
    hit/miss counters of its own: {!memo_map} counts on the ambient
    {!Trace}.

    Observation safety: {!memo_map} computes keys, performs lookups and
    stores results in input order, so hit/miss counts are a function of
    the inputs and the cache contents alone. Hit payloads are unmarshalled
    freshly per lookup, so mutable structures inside cached values (CFG
    succ/pred tables, liveness tables) are never aliased between runs. *)

type t

val create : ?max_bytes:int -> unit -> t
(** Cache holding at most [max_bytes] (default 1 GiB), counted as
    {!Lru.cost}: payload, key and per-entry overhead. *)

val clone : t -> t
(** Snapshot: a new cache sharing nothing with [t] but pre-populated with
    its current entries (same bound, same access order). Lets benchmarks
    replay a warm cache without re-warming. *)

type stats = {
  c_evict_lru : int;  (** entries dropped by the size bound *)
  c_bytes : int;  (** footprint ({!Lru.cost} summed), slots included *)
  c_entries : int;  (** entries, slots included *)
}

val stats : t -> stats

(** {1 Key construction}

    Stages build raw keys from these and pass them to {!memo_map}, which
    digests [kjoin [magic; stage; raw_key]] into the final key — so equal
    raw keys in different stages never collide. *)

val dval : 'a -> string
(** Canonical bytes of a structural value ([Marshal] with [No_sharing],
    so structurally equal values digest equally regardless of sharing
    history). Only for plain data — no closures, no custom blocks, no
    cycles. *)

val kjoin : string list -> string
(** Length-prefixed concatenation: injective, so adjacent key parts can
    never alias each other. *)

val memo_map :
  ?cache:t ->
  stage:string ->
  key:('a -> string) ->
  ('a -> 'b) ->
  'a list ->
  'b list
(** [memo_map ?cache ~stage ~key f xs] is observably [List.map f xs] —
    and exactly that when [cache] is [None] ([key] is never called). With
    a cache: keys are computed and looked up in input order, misses are
    computed and stored, and results are reassembled in input order. [f]
    must be a pure function of what [key] digests, and ['b] must be
    marshal-safe plain data. Counters ([cache.hit],
    [cache.hit:<stage>], [cache.miss], [cache.miss:<stage>],
    [cache.bytes_reused]) are recorded on the ambient {!Trace} when one
    is installed; they are the only hit/miss count there is. *)

(** {1 Slots}

    A slot is a small side value addressed by what it is {e for} rather
    than by its contents — e.g. "the previous layout of this binary
    under these options" — so a warm run can load last run's result and
    overwrite it with this run's. Slots live in the same store (so
    {!clone} carries them into warm replays, and the bound may evict
    them); they do not count as hits or misses. *)

val find_slot : t -> string -> 'a option
(** [find_slot c raw] is the value last stored under [raw], if any.
    Like [Marshal.from_string], the ['a] is trusted: read a slot with
    the type it was stored at. *)

val store_slot : t -> string -> 'a -> unit
(** [store_slot c raw v] (over)writes the slot named by [raw]. *)
