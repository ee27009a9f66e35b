(** Content-addressed memoization of per-function pipeline artifacts.

    Every pure per-item stage of the pipeline — per-function CFG /
    jump-table analysis, finalization + liveness, function-pointer scans,
    relocation, trampoline placement planning, and [Asm.encode_chunks]
    chunk encoding — is a deterministic function of plain data. A cache
    entry is keyed by a digest of {e everything} that function reads
    (function bytes, whole-binary context, failure model, rewrite options,
    stage tag, {!schema_version}), so a stale entry can never match: any
    input change changes the key and the entry is simply never found again.
    There is no mutation-based invalidation to get wrong.

    Two tiers share one {!t}:

    - an in-process store (a mutex-protected hash table) shared safely
      across the daemon's executor domains, and
    - an opt-in on-disk store ([create ~dir]) with a versioned entry
      format. Corrupt, truncated or version-skewed entries degrade to a
      miss — never an error, never wrong bytes — and are evicted
      (counted in [c_evict_corrupt] / the [cache.evict_corrupt] trace
      counter). The disk tier can be size-bounded
      ([create ~max_disk_bytes]): once the total size of on-disk entries
      exceeds the bound, least-recently-used entries lose their disk file
      (counted in [c_evict_lru] / [cache.evict_lru]) while keeping their
      in-memory copy.

    Observation safety: {!memo_map} computes keys, performs lookups and
    stores results in input order, so hit/miss counts are a function of
    the inputs and the cache contents alone. Hit payloads are unmarshalled
    freshly per lookup, so mutable structures inside cached values (CFG
    succ/pred tables, liveness tables) are never aliased between runs. *)

val schema_version : int
(** Bumped whenever the marshalled shape of any cached value changes;
    part of every key, so old stores degrade to universal misses. *)

type t

val create : ?dir:string -> ?max_disk_bytes:int -> unit -> t
(** In-memory cache; with [dir], also backed by an on-disk store rooted
    there (created, including parents, if missing). With
    [max_disk_bytes], the on-disk tier is LRU-bounded: entries already
    present in [dir] are accounted as coldest, and every store that
    pushes the total over the bound evicts least-recently-used disk
    files (deterministically: minimal access tick, ties by key) until it
    fits again. Eviction removes only the disk file — the in-memory copy
    is kept. *)

val clone : t -> t
(** Snapshot: a new cache sharing nothing with [t] but pre-populated with
    its current in-memory entries, with zeroed statistics and {e no}
    on-disk tier. Lets benchmarks replay a warm cache without re-warming. *)

type stats = {
  c_hits : int;
  c_misses : int;
  c_stores : int;
  c_bytes_reused : int;  (** marshalled payload bytes served from cache *)
  c_evict_corrupt : int;  (** on-disk entries dropped as corrupt/stale *)
  c_evict_lru : int;  (** on-disk entries dropped by the size bound *)
}

val stats : t -> stats

val hit_rate : stats -> float
(** [c_hits / (c_hits + c_misses)] in [0, 1]; [0.] when no lookups have
    happened. Deterministic, like the underlying counters. *)

val dir : t -> string option

(** {1 Key construction}

    Stages build raw keys from these and pass them to {!memo_map}, which
    digests [kjoin [magic; schema_version; stage; raw_key]] into the final
    key — so equal raw keys in different stages never collide. *)

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
    [cache.bytes_reused], [cache.evict_corrupt]) are recorded on the
    ambient {!Trace} when one is installed. *)

val entry_files : t -> string list
(** Absolute paths of the on-disk entries currently present (sorted);
    [[]] without a disk tier. Slot files (see {!find_slot}) are not
    included. For fault-injection tests. *)

(** {1 Slots}

    A slot is a small side value addressed by what it is {e for} rather
    than by its contents — e.g. "the previous layout of this binary
    under these options" — so a warm run can load last run's result and
    overwrite it with this run's. Slots live in the shared in-memory
    table (so {!clone} carries them into warm replays) and in [.slot]
    files next to the entry tier; they do not participate in hit/miss
    statistics, {!entry_files} or the LRU bound. A slot that fails to
    unmarshal (foreign writer, cross-version store) reads as absent and
    is evicted, counted in [c_evict_corrupt]. *)

val find_slot : t -> string -> 'a option
(** [find_slot c raw] is the value last stored under [raw], if any.
    Like [Marshal.from_string], the ['a] is trusted: read a slot with
    the type it was stored at. *)

val store_slot : t -> string -> 'a -> unit
(** [store_slot c raw v] (over)writes the slot named by [raw]. *)
