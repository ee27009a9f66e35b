(** Live telemetry registry: named counters, gauges and fixed-bucket
    log₂ latency histograms, with a pure, mergeable {!snapshot}.

    Where {!Trace} answers "what did {e this} request do" (a span tree
    and counter bag that dies with the request), [Metrics] answers "what
    has the {e process} been doing" — monotone totals and latency
    distributions aggregated across every request a daemon ever served,
    without keeping any per-request data alive. The [icfg serve] server
    folds each completed request's trace into one registry; [icfg stats]
    and [icfg top] read it over the wire.

    Determinism: histogram bucket boundaries are {e fixed powers of two}
    (bucket [i] holds values [v] with [2^i <= v < 2^(i+1)]; bucket [0]
    also takes [v <= 1]), not quantiles or machine-tuned ranges — two
    snapshots taken on different machines bucket any given value
    identically, so merged fleet histograms and committed baselines are
    comparable. Observation {e counts} (per histogram, per outcome) are
    deterministic functions of the served request stream; only the ns
    values inside the buckets vary by machine.

    Thread-safety: every recording operation takes the registry's mutex,
    so executor domains and connection threads may record
    concurrently; totals are independent of the interleaving (each
    operation is a commutative [+=]). *)

type t

val create : unit -> t

val now_ns : unit -> int64
(** Monotonic clock (same source as {!Trace}), for callers timing
    request latencies and queue waits. *)

(** {1 Recording} *)

val add : t -> string -> int -> unit
(** Add [n] to the named counter (created at 0). Counters are monotone
    totals — nothing ever subtracts. *)

val incr : t -> string -> unit

val set_gauge : t -> string -> int -> unit
(** Set the named gauge to a point-in-time level (queue depth,
    in-flight requests). *)

val add_gauge : t -> string -> int -> unit
(** Adjust the named gauge by a (possibly negative) delta. *)

val observe : t -> string -> int -> unit
(** Record one observation into the named histogram (negative values
    clamp to 0). The ns suffix convention: histogram names measuring
    wall time end in no unit; JSON/prom expositions label sums as ns. *)

(** {1 Histogram buckets (deterministic, log₂)} *)

val n_buckets : int
(** 62: buckets 0..61 tile the non-negative 63-bit OCaml ints exactly
    (the top bucket holds [2^61 .. max_int]). *)

val bucket_index : int -> int
(** [bucket_index v] = [floor (log2 v)] clamped to
    [\[0, n_buckets - 1\]]; [v <= 1] lands in bucket 0. Pure — the
    machine-independent bucketing contract. *)

val bucket_lo : int -> int
(** Inclusive lower bound of bucket [i]: [0] for bucket 0, else [2^i]. *)

val bucket_hi : int -> int
(** Inclusive upper bound of bucket [i]: [2^(i+1) - 1], or [max_int]
    for the last bucket. *)

(** {1 Snapshots} *)

type histo = {
  h_count : int;  (** observations *)
  h_sum : int;  (** sum of observed values *)
  h_buckets : (int * int) list;
      (** sparse [(bucket index, count)], index-sorted; counts sum to
          [h_count] *)
}

type snapshot = {
  s_counters : (string * int) list;  (** name-sorted *)
  s_gauges : (string * int) list;  (** name-sorted *)
  s_histos : (string * histo) list;  (** name-sorted *)
}
(** A pure copy of the registry at one instant. Safe to ship across the
    wire, diff, or merge. *)

val empty : snapshot

val snapshot : t -> snapshot

val merge : snapshot -> snapshot -> snapshot
(** Pointwise union-sum: counters and histogram counts/sums/buckets add;
    gauges {e also add} (merging shard snapshots sums their queue
    depths — a fleet-level gauge is the sum of per-shard levels).
    Associative and commutative with {!empty} as identity (pinned by
    the metrics test battery), so fleet aggregation order is free. *)

val histo_mean : histo -> float
(** [h_sum / h_count]; [0.] on an empty histogram. *)

val find_counter : snapshot -> string -> int option
val find_gauge : snapshot -> string -> int option
val find_histo : snapshot -> string -> histo option

(** {1 Expositions} *)

val to_json : snapshot -> string
(** Schema [icfg-metrics/1]:
    [{"schema", "counters": {name: total}, "gauges": {name: level},
    "histograms": {name: {"count", "sum", "buckets": {"<i>": n}}}}].
    All maps name-sorted; bucket keys are decimal bucket indices. *)

val to_prom : snapshot -> string
(** Prometheus-style text exposition. A name's prefix up to the first
    [':'] becomes the metric name ([icfg_] + sanitized); any remainder
    rides in a [tag="..."] label. Histograms emit cumulative
    [_bucket{le="..."}] lines (the [le] value is {!bucket_hi}), then
    [_sum] and [_count]. *)
