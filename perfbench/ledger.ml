(* The traced run: where a request's time and bytes go, layer by layer.

   Daemon workloads. One pass is served by the live daemon between two
   [Client.stats] scrapes. The daemon traces its own pipeline: every
   request's stage spans land in its [stage.<path>] histograms and its
   trace counters in [trace.<name>], so the pipeline's figures (parse and
   rewrite stages, VM runs, trampolines, layout, cache and memo hits) are
   read from the difference of the two scrapes. What the daemon does not
   trace — request and response framing, payload resolution (digest,
   patch) and the container codec — is replayed in-process, in the
   daemon's order and with the live pass's own answers, with a
   benchmark-side span around each call. Classify-stream also serves a
   pass with two concurrent clients on a fresh daemon, for the
   scheduler's queue waits.

   The one-shot workload has no daemon: [Runner.drive] and
   [Binfile.to_string] are replayed under a per-request [Trace], which
   collects the pipeline's stage rows, with spans around each call.

   Each replay runs twice, without spans and with them; the difference
   is the tracing overhead. The ledger's unattributed share compares the
   time the layers cover with the workload's own request time. *)

open Util
module Protocol = Icfg_service.Protocol
module Client = Icfg_service.Client
module Server = Icfg_service.Server
module Store = Icfg_service.Store
module Trace = Icfg_core.Trace
module Metrics = Icfg_core.Metrics
module Matrix = Icfg_harness.Matrix
module Runner = Icfg_harness.Runner
module Binfile = Icfg_obj.Binfile
module Baseline = Icfg_baselines.Baseline
module Rewriter = Icfg_core.Rewriter

type acc = {
  traced : bool;
  spans : (string, float) Hashtbl.t;  (** benchmark span totals, ms *)
  rows : (string, float) Hashtbl.t;  (** one-shot: pipeline stage rows, ms *)
  counters : (string, int) Hashtbl.t;  (** one-shot: pipeline counters *)
  mutable covered : float;  (** ms the layer spans and rows cover *)
  mutable lats : float list;  (** one-shot: the workload's own clock *)
  mutable n : int;
  mutable failed : int;
  mutable req_bytes : int;
  mutable resp_bytes : int;
  mutable hashed : int;
  mutable binfile_bytes : int;
  mutable executed : Inputs.item list;
      (** daemon: the requests the pipeline ran for, i.e. that the
          response memo did not answer *)
  store : Store.t;
  memo : Store.t;
}

let create ~traced =
  {
    traced;
    spans = Hashtbl.create 16;
    rows = Hashtbl.create 64;
    counters = Hashtbl.create 64;
    covered = 0.;
    lats = [];
    n = 0;
    failed = 0;
    req_bytes = 0;
    resp_bytes = 0;
    hashed = 0;
    binfile_bytes = 0;
    executed = [];
    store = Store.create ();
    memo = Store.create ();
  }

let bump tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0. (Hashtbl.find_opt tbl k))

let bumpi tbl k v =
  Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))

let span ?(cover = true) a name f =
  if not a.traced then f ()
  else begin
    let r, ms = timed f in
    bump a.spans name ms;
    if cover then a.covered <- a.covered +. ms;
    r
  end

(* The pipeline's own top-level spans: inside the benchmark's
   "pipeline" span, these count as covered time. *)
let top_level path = not (String.contains path '/')

let fold_trace ?(cover = true) a tr =
  if a.traced then begin
    List.iter
      (fun (r : Trace.row) ->
        let ms = float_of_int r.Trace.r_ns /. 1e6 in
        bump a.rows r.Trace.r_path ms;
        if cover && top_level r.Trace.r_path then a.covered <- a.covered +. ms)
      (Trace.rows tr);
    List.iter (fun (k, v) -> bumpi a.counters k v) (Trace.counters tr)
  end

(* The replay's store holds only the registered bases: it needs no more
   to resolve references and patches. *)
let digest a bin =
  let d = span a "store.digest" (fun () -> Store.digest bin) in
  a.hashed <- a.hashed + String.length bin;
  d

(* [Server.resolve_payload]'s calls. *)
let resolve a = function
  | Protocol.Full bin -> (bin, digest a bin)
  | Protocol.Ref d -> (
      match Store.find a.store d with
      | Some bin -> (bin, d)
      | None -> failwith "replay: unregistered base")
  | Protocol.Patch { base; total_len; ranges } -> (
      let base =
        match Store.find a.store base with
        | Some b -> b
        | None -> failwith "replay: unregistered base"
      in
      match
        span a "protocol.apply_patch" (fun () ->
            Protocol.apply_patch ~base ~total_len ranges)
      with
      | Error m -> failwith m
      | Ok bin -> (bin, digest a bin))

(* One daemon request's untraced calls, in the daemon's order: request
   framing, payload resolution, then — unless the response memo answers —
   the executor's container decode and, for a rewrite, the output's
   container encode and digest, then response framing. [answer] is what
   the live daemon sent back. *)
let serve a (it : Inputs.item) answer =
  let p = span a "protocol.encode" (fun () -> Protocol.request_to_payload it.Inputs.it_req) in
  a.req_bytes <- a.req_bytes + 4 + String.length p;
  let kind, approach, payload =
    match span a "protocol.decode" (fun () -> Protocol.request_of_payload p) with
    | Ok (Protocol.Classify { approach; payload; _ }) -> ("C", approach, payload)
    | Ok (Protocol.Rewrite { approach; payload; _ }) -> ("R", approach, payload)
    | _ -> failwith "replay: not a work request"
  in
  let bin, d = resolve a payload in
  let key = String.concat ":" [ kind; approach; d ] in
  (match answer with
  | Error _ -> a.failed <- a.failed + 1
  | Ok resp ->
      let out =
        match Store.find a.memo key with
        | Some out -> out
        | None ->
            ignore (span a "binfile.decode" (fun () -> Binfile.of_string bin));
            a.binfile_bytes <- a.binfile_bytes + String.length bin;
            (match resp with
            | Protocol.Rewritten { bin = out; _ } ->
                let rw = Binfile.of_string out in
                let out = span a "binfile.encode" (fun () -> Binfile.to_string rw) in
                a.binfile_bytes <- a.binfile_bytes + String.length out;
                ignore (digest a out)
            | _ -> ());
            a.executed <- it :: a.executed;
            let out = span a "protocol.encode" (fun () -> Protocol.response_to_payload resp) in
            ignore (Store.add a.memo ~key out);
            out
      in
      a.resp_bytes <- a.resp_bytes + 4 + String.length out;
      let resp = span a "protocol.decode" (fun () -> Protocol.response_of_payload out) in
      if not (Workloads.check it resp) then a.failed <- a.failed + 1);
  a.n <- a.n + 1

let rewrite_one a (inp : Inputs.t) (it : Inputs.item) =
  let b = inp.Inputs.binaries.(it.Inputs.it_bin) in
  (* Only the traced replay installs a trace: the one-shot user runs
     without one. *)
  let under tr f = if a.traced then Trace.with_current tr f else f () in
  let tr = Trace.create () in
  let t0 = now_ns () in
  let ok =
    match
      under tr (fun () ->
          let outcome =
            span ~cover:false a "pipeline" (fun () ->
                Runner.drive ~approach:it.Inputs.it_approach b.Inputs.b_bin)
          in
          (match outcome with
          | Some (Baseline.Rewritten rw) ->
              let out =
                span a "binfile.encode" (fun () ->
                    Binfile.to_string rw.Rewriter.rw_binary)
              in
              a.binfile_bytes <- a.binfile_bytes + String.length out
          | _ -> ());
          outcome)
    with
    | Some outcome ->
        a.lats <- ms_since t0 :: a.lats;
        fold_trace a tr;
        let vtr = Trace.create () in
        let cls =
          under vtr (fun () -> Matrix.classify ~orig:b.Inputs.b_orig outcome)
        in
        fold_trace ~cover:false a vtr;
        it.Inputs.it_expect = Inputs.Cls (Matrix.cls_to_string cls)
    | None | (exception _) -> false
  in
  if not ok then a.failed <- a.failed + 1;
  a.n <- a.n + 1

(* One replay of the whole pass; returns the accumulator, its wall time
   and the GC words it allocated. *)
let replay kind (inp : Inputs.t) answers ~traced =
  let a = create ~traced in
  List.iter
    (fun b -> ignore (Store.add a.store ~key:(Store.digest b) b))
    inp.Inputs.bases;
  Gc.full_major ();
  let gc0 = Gc.quick_stat () in
  let t0 = now_ns () in
  Array.iteri
    (fun i it ->
      match kind with
      | Workloads.Oneshot -> rewrite_one a inp it
      | Workloads.Classify_stream | Workloads.Edit_loop -> serve a it answers.(i))
    inp.Inputs.items;
  let wall = ms_since t0 in
  (a, wall, (gc0, Gc.quick_stat ()))

(* cache.net: the parse and rewrite time of the requests the daemon ran
   through its pipeline, this time without a cache. Off the books. *)
let uncached_ms (inp : Inputs.t) executed =
  List.fold_left
    (fun total (it : Inputs.item) ->
      let tr = Trace.create () in
      (try
         Trace.with_current tr (fun () ->
             ignore
               (Runner.drive ~approach:it.Inputs.it_approach
                  inp.Inputs.binaries.(it.Inputs.it_bin).Inputs.b_bin))
       with _ -> ());
      List.fold_left
        (fun t (r : Trace.row) ->
          if r.Trace.r_path = "parse" || r.Trace.r_path = "rewrite" then
            t +. (float_of_int r.Trace.r_ns /. 1e6)
          else t)
        total (Trace.rows tr))
    0. executed

(* Quantile of a log2-bucket histogram, linear within the bucket. *)
let histo_quantile p (h : Metrics.histo) =
  let target = p *. float_of_int h.Metrics.h_count in
  let rec go cum = function
    | [] -> 0.
    | (i, c) :: rest ->
        let cum' = cum +. float_of_int c in
        if cum' >= target && c > 0 then
          let lo = float_of_int (Metrics.bucket_lo i)
          and hi = float_of_int (Metrics.bucket_hi i) in
          lo +. ((target -. cum) /. float_of_int c *. (hi -. lo))
        else go cum' rest
  in
  if h.Metrics.h_count = 0 then 0. else go 0. h.Metrics.h_buckets

let histo_delta before after name =
  let get s =
    Option.value ~default:{ Metrics.h_count = 0; h_sum = 0; h_buckets = [] }
      (Metrics.find_histo s name)
  in
  let b = get before and a = get after in
  {
    Metrics.h_count = a.Metrics.h_count - b.Metrics.h_count;
    h_sum = a.Metrics.h_sum - b.Metrics.h_sum;
    h_buckets =
      List.filter_map
        (fun (i, c) ->
          let c0 = Option.value ~default:0 (List.assoc_opt i b.Metrics.h_buckets) in
          if c - c0 > 0 then Some (i, c - c0) else None)
        a.Metrics.h_buckets;
  }

(* What a pass did, as the daemon's telemetry saw it: the difference of
   the scrapes taken before and after it. *)
type scrape = { before : Metrics.snapshot; after : Metrics.snapshot }

let counter_delta s k =
  let get snap = Option.value ~default:0 (Metrics.find_counter snap k) in
  get s.after - get s.before

(* Stage rows, path -> ms over the pass. *)
let stage_rows s =
  List.filter_map
    (fun (k, _) ->
      match String.starts_with ~prefix:"stage." k with
      | false -> None
      | true ->
          let path = String.sub k 6 (String.length k - 6) in
          Some (path, float_of_int (histo_delta s.before s.after k).Metrics.h_sum /. 1e6))
    s.after.Metrics.s_histos

let scraped srv f =
  let before = Wire.stats srv in
  let r = f () in
  (r, { before; after = Wire.stats srv })

(* The live pass, one client: the workload's own request times, its
   answers, and the daemon's account of it. The daemon is stopped
   before the second GC reading, so its executor domains' allocations
   are counted too. *)
let live_pass srv inp =
  let gc0 = Gc.quick_stat () in
  let p, s = scraped srv (fun () -> Workloads.daemon_pass srv inp) in
  Server.stop srv;
  (p, s, (gc0, Gc.quick_stat ()))

(* The same requests from concurrent clients on a fresh daemon: the
   scheduler's queue waits under contention. One client more than the
   daemon's two executors keeps a request queued while both are busy. *)
let contention_clients = 3

let concurrent_pass (inp : Inputs.t) =
  let srv = Wire.start () in
  Wire.register srv inp.Inputs.bases;
  let n = Array.length inp.Inputs.items in
  let next = Atomic.make 0 and failed = Atomic.make 0 in
  let client () =
    Client.with_connection (Server.sock_path srv) @@ fun c ->
    let rec go () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let it = inp.Inputs.items.(i) in
        (match Workloads.request c inp it with
        | resp -> if not (Workloads.check it resp) then Atomic.incr failed
        | exception _ -> Atomic.incr failed);
        go ()
      end
    in
    go ()
  in
  let (), s =
    scraped srv (fun () ->
        List.iter Thread.join (List.init contention_clients (fun _ -> Thread.create client ())))
  in
  Server.stop srv;
  (n, Atomic.get failed, histo_delta s.before s.after "sched.queue_wait")

let replays = 4

let run kind ((inp : Inputs.t), srv) verdicts =
  let live = Option.map (fun srv -> live_pass srv inp) srv in
  let answers = match live with Some (p, _, _) -> p.Workloads.answers | None -> [||] in
  (* Plain and spanned replays run in ABBA order: on the host the
     benchmark was tuned on every other replay ran up to 1.8 times
     slower, whichever kind it was, so each kind is first in half of the
     pairs and its wall time is the total over all pairs. The figures
     come from the last pair. *)
  let rec pairs k walls attempted failed =
    let run traced = replay kind inp answers ~traced in
    let ((plain, pw, _) as p), ((a, tw, _) as t) =
      if k mod 2 = 0 then
        let p = run false in
        (p, run true)
      else
        let t = run true in
        (run false, t)
    in
    let walls = (pw, tw) :: walls
    and attempted = attempted + plain.n + a.n
    and failed = failed + plain.failed + a.failed in
    if k <= 1 then (p, t, walls, attempted, failed)
    else pairs (k - 1) walls attempted failed
  in
  let (plain, _, plain_gc), (a, _, _), walls, replayed_n, replayed_failed =
    pairs replays [] 0 0
  in
  let plain_wall = sum (List.map fst walls)
  and traced_wall = sum (List.map snd walls) in
  let n = float_of_int (max 1 a.n) in
  (* The pipeline's stage rows and counters: the daemon's, or the
     one-shot replay's own. *)
  let rows, counter =
    match live with
    | Some (_, s, _) ->
        (stage_rows s, fun k -> float_of_int (counter_delta s ("trace." ^ k)))
    | None ->
        ( List.of_seq (Hashtbl.to_seq a.rows),
          fun k -> float_of_int (Option.value ~default:0 (Hashtbl.find_opt a.counters k)) )
  in
  let rows_where pred =
    List.fold_left (fun acc (k, v) -> if pred k then acc +. v else acc) 0. rows
  in
  let row k = rows_where (String.equal k) /. n in
  (* Direct children of the rewrite span named [stage...] (e.g.
     "rewrite/layout:instr" and "rewrite/layout:jtnew"). *)
  let rewrite_stage stage =
    let prefix = "rewrite/" in
    rows_where (fun k ->
        String.starts_with ~prefix:(prefix ^ stage) k
        && not (String.contains_from k (String.length prefix) '/'))
    /. n
  in
  let spanned k = Option.value ~default:0. (Hashtbl.find_opt a.spans k) /. n in
  let ratio_pct hit miss = if hit + miss = 0 then 0. else pct hit (hit + miss) in
  let daemon k = match live with Some (_, s, _) -> counter_delta s k | None -> 0 in
  let queue_wait, contention =
    match (kind, live) with
    | Workloads.Classify_stream, _ ->
        let cn, cfailed, wait = concurrent_pass inp in
        (wait, (cn, cfailed))
    | _, Some (_, s, _) -> (histo_delta s.before s.after "sched.queue_wait", (0, 0))
    | _, None -> ({ Metrics.h_count = 0; h_sum = 0; h_buckets = [] }, (0, 0))
  in
  let cache_net =
    match live with
    | None -> 0.
    | Some _ ->
        let cached = rows_where (fun k -> k = "parse" || k = "rewrite") in
        (cached -. uncached_ms inp a.executed)
        /. float_of_int (max 1 (List.length a.executed))
  in
  (* Time on the workload's own clock, and the part of it the layers
     cover: the replay's spans plus the pipeline's top-level rows. *)
  let own_ms, covered_ms =
    match live with
    | Some (p, _, _) ->
        ( sum (List.filter Float.is_finite (Array.to_list p.Workloads.lat)),
          a.covered +. rows_where top_level )
    | None -> (sum plain.lats, a.covered)
  in
  let gc0, gc1 = match live with Some (_, _, gc) -> gc | None -> plain_gc in
  let verdicts mode =
    List.filter (fun v -> v.Inputs.v_approach = mode) verdicts
  in
  let matrix =
    List.concat_map
      (fun mode ->
        let vs = verdicts mode in
        let ok = List.length (List.filter (fun v -> v.Inputs.v_cls = "verified") vs) in
        let tag = String.map (fun c -> if c = '/' then '-' else c) mode in
        [
          metric ("matrix.verified." ^ tag) "count" (float_of_int ok);
          metric ("matrix.not_verified." ^ tag) "count"
            (float_of_int (List.length vs - ok));
        ])
      Inputs.ours
  in
  let metrics =
    [
      metric "protocol.encode_ms" "ms" (spanned "protocol.encode");
      metric "protocol.decode_ms" "ms" (spanned "protocol.decode");
      metric "protocol.request_bytes" "B" (float_of_int a.req_bytes /. n);
      metric "protocol.response_bytes" "B" (float_of_int a.resp_bytes /. n);
      metric "protocol.apply_patch_ms" "ms" (spanned "protocol.apply_patch");
      metric "store.digest_ms" "ms" (spanned "store.digest");
      metric "store.bytes_hashed" "B" (float_of_int a.hashed /. n);
      metric "store.hit_pct" "%" (ratio_pct (daemon "store.hits") (daemon "store.misses"));
      metric "binfile.decode_ms" "ms" (spanned "binfile.decode");
      metric "binfile.encode_ms" "ms" (spanned "binfile.encode");
      metric "binfile.bytes" "B" (float_of_int a.binfile_bytes /. n);
      metric "sched.queue_wait_p50_ms" "ms" (histo_quantile 0.5 queue_wait /. 1e6);
      metric "sched.queue_wait_p95_ms" "ms" (histo_quantile 0.95 queue_wait /. 1e6);
      metric "response_cache.hit_pct" "%"
        (ratio_pct (daemon "response_cache.hit") (daemon "response_cache.miss"));
      metric "cache.hit_pct" "%" (ratio_pct (daemon "cache.hits") (daemon "cache.misses"));
      metric "cache.bytes_reused" "B" (float_of_int (daemon "cache.bytes_reused") /. n);
      metric "cache.net_ms" "ms" cache_net;
      metric "parse_ms" "ms" (row "parse");
    ]
    @ List.map
        (fun s -> metric ("stage.parse." ^ s ^ "_ms") "ms" (row ("parse/" ^ s)))
        [ "pass1"; "known-data"; "func-ptr"; "finalize"; "func-ptr-2" ]
    @ [ metric "rewrite_ms" "ms" (row "rewrite") ]
    @ List.map
        (fun s -> metric ("stage." ^ s ^ "_ms") "ms" (rewrite_stage s))
        [ "relocate"; "layout"; "place"; "encode"; "emit" ]
    @ [
        metric "rewriter.trampolines" "count" (counter "rewrite/trampolines");
        metric "rewriter.trap_trampolines" "count" (counter "rewrite/trampolines:trap");
        metric "rewriter.cfl_blocks" "count" (counter "rewrite/cfl-blocks");
        metric "layout.pinned" "count" (counter "layout.pinned");
        metric "layout.moved" "count" (counter "layout.moved");
        metric "vm.original_ms" "ms" (row "run:original");
        metric "vm.rewritten_ms" "ms" (row "run:rewritten");
        metric "vm.steps" "count" (counter "vm/original/steps" +. counter "vm/rewritten/steps");
        metric "vm.traps" "count" (counter "vm/rewritten/traps");
        metric "vm.icache_misses" "count" (counter "vm/rewritten/icache-misses");
      ]
    @ matrix
    @ [
        metric "gc.minor_words_per_request" "words"
          ((gc1.Gc.minor_words -. gc0.Gc.minor_words) /. n);
        metric "gc.major_words_per_request" "words"
          ((gc1.Gc.major_words -. gc0.Gc.major_words) /. n);
        metric "trace.overhead_pct" "%" (100. *. (traced_wall -. plain_wall) /. plain_wall);
        metric "ledger.unattributed_pct" "%" (100. *. (own_ms -. covered_ms) /. own_ms);
      ]
  in
  let live_n, live_failed =
    match live with
    | Some (p, _, _) -> (Array.length p.Workloads.lat, Workloads.failed p)
    | None -> (0, 0)
  in
  ( live_n + fst contention + replayed_n,
    live_failed + snd contention + replayed_failed,
    metrics )
