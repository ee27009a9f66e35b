(** The [icfg serve] wire protocol: length-prefixed frames on a Unix
    socket, each framing one tagged, versioned payload (magic ["isrv2"]).

    Layout (see DESIGN §13/§15 for the byte-level grammar):
    [frame := len:u32le payload], [payload := "isrv2" tag:u8 body], with
    every variable-length body field itself length-prefixed. Frames are
    capped at {!max_frame}; binaries travel as {!Icfg_obj.Binfile}
    container bytes — in full, by registered digest, or as a sparse
    byte-delta against a registered base.

    Decoding is total: [request_of_payload]/[response_of_payload] return
    [Error] on malformed input instead of raising, so a garbage frame
    costs one error response, never the connection loop. *)

val magic : string
val max_frame : int

type payload =
  | Full of string  (** whole {!Icfg_obj.Binfile} container bytes *)
  | Ref of string
      (** digest of a binary already registered with the daemon; costs
          32 wire bytes instead of the binary *)
  | Patch of { base : string; total_len : int; ranges : (int * string) list }
      (** sparse byte-delta against registered base [base]: reconstruct
          by truncating/zero-extending the base to [total_len], then
          blitting each [(offset, bytes)] range. The edit→re-rewrite
          loop ships only its edits. *)

type request =
  | Ping  (** liveness probe; answered inline by the accept side *)
  | Rewrite of { approach : string; reserved : int; payload : payload }
      (** rewrite the payload binary with the named
          {!Icfg_baselines.Baseline.approaches} roster entry. [reserved]
          is the slot that once carried a per-request parallelism; the
          client sends 0 and the daemon ignores it *)
  | Classify of { approach : string; reserved : int; payload : payload }
      (** run the full corpus-matrix cell (original run + rewrite + VM
          verification) in the daemon and return the classification *)
  | Stats of { flight : bool }
      (** telemetry scrape; answered inline by the connection thread
          (like {!Ping}), so a saturated daemon still answers and a
          scrape never perturbs the request queue it is observing. With
          [flight] the response also carries the flight-recorder dump. *)
  | Register of { bin : string }
      (** upload {!Icfg_obj.Binfile} bytes into the daemon's bounded
          content-addressed store once; later requests reference them by
          digest ([Ref]) or patch against them ([Patch]) *)

type response =
  | Pong
  | Rewritten of {
      bin : string;
      digest : string;
      counters : (string * int) list;
    }
      (** rewritten {!Icfg_obj.Binfile} bytes + the request's isolated
          trace counter totals. [digest] names the {e result}, which the
          daemon has registered — chain the next [Patch] against it. *)
  | Refused of {
      reason : string;
      digest : string;
      counters : (string * int) list;
    }
      (** the approach refused the binary (raw refusal message);
          [digest] names the resolved input, now registered *)
  | Classified of {
      cls : Icfg_harness.Matrix.cls;
      ns : float;
      digest : string;
      counters : (string * int) list;
    }  (** [digest] names the resolved input, now registered *)
  | Error of { message : string; counters : (string * int) list }
      (** typed crash containment: the driver raised; the daemon lives.
          Carries the request's isolated counter snapshot up to the point
          of the crash, same as the success paths — the counters nearest
          the fault are exactly the ones worth having. Also the answer to
          an unreconstructible [Patch] (bad offsets, overlap). *)
  | Overloaded
      (** typed backpressure: the request queue was at its bound when the
          request arrived; nothing was enqueued *)
  | StatsSnapshot of {
      snap : Icfg_core.Metrics.snapshot;
      flight : string option;
    }
      (** structured registry snapshot (clients render JSON / Prometheus
          text locally, tests compare totals structurally); [flight] is
          the [icfg-flight/1] JSON dump when requested *)
  | Registered of { digest : string }  (** the store now holds the bytes *)
  | NeedFull of { digest : string }
      (** a [Ref]/[Patch] named a digest the store does not hold (never
          seen, or evicted) — re-send with a [Full] payload *)
  | Rejected of { reason : string }
      (** typed refusal of an upload the daemon will not hold: a frame
          over its configured limit, or a binary larger than the whole
          store. The connection stays open. *)

val request_to_payload : request -> string
val response_to_payload : response -> string
val request_of_payload : string -> (request, string) result
val response_of_payload : string -> (response, string) result

(** {1 Sparse byte deltas} *)

val apply_patch :
  base:string ->
  total_len:int ->
  (int * string) list ->
  (string, string) result
(** Reconstruct a binary from [base] (truncated or zero-extended to
    [total_len]) plus sorted-or-not byte ranges. Total: negative or
    out-of-bounds offsets, overlapping ranges, or an absurd [total_len]
    return [Error reason]. An empty range list is a valid (pure
    truncate/extend or identity) patch. *)

val diff_ranges : base:string -> string -> (int * string) list
(** [diff_ranges ~base target] computes sparse ranges such that
    [apply_patch ~base ~total_len:(String.length target) (diff_ranges
    ~base target) = Ok target]. Nearby differing runs coalesce, so a
    one-function edit stays a handful of ranges. *)

(** {1 Framing over a file descriptor}

    Blocking, whole-frame reads/writes — connection handling runs on
    per-connection sys-threads, request execution on dedicated domains. *)

exception Malformed of string

exception Oversized of int
(** A well-framed payload exceeded the caller's [?max] budget; the
    payload has been drained off the wire, so the connection is still
    frame-aligned and usable. Carries the offending length. *)

val write_frame : Unix.file_descr -> string -> unit
(** Write one [len:u32le + payload] frame. [Invalid_argument] beyond
    {!max_frame}. *)

val read_frame : ?max:int -> Unix.file_descr -> string option
(** Read one frame. [None] on a clean EOF at a frame boundary (normal
    client hang-up); raises {!Malformed} on mid-frame EOF or an
    out-of-bounds length, {!Oversized} on a frame over [max] (default
    and hard ceiling {!max_frame}) — the oversized payload is consumed,
    so the caller can refuse in-band and keep the connection. *)
