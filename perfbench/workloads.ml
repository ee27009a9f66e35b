(* The timed runs. Every workload is closed-loop with one client: it
   sends its next request only after the previous answer arrived, as
   every client of the daemon does. A run repeats complete passes over
   the workload's request list until it has measured the run's seconds,
   so every pass has the same mix of requests and per-pass figures such
   as wire bytes are a function of the seed alone. *)

open Util
module Protocol = Icfg_service.Protocol
module Client = Icfg_service.Client
module Server = Icfg_service.Server
module Matrix = Icfg_harness.Matrix
module Runner = Icfg_harness.Runner
module Binfile = Icfg_obj.Binfile
module Baseline = Icfg_baselines.Baseline
module Rewriter = Icfg_core.Rewriter

type kind = Classify_stream | Edit_loop | Oneshot

let kinds =
  [
    ("classify-stream", Classify_stream);
    ("edit-loop", Edit_loop);
    ("oneshot-rewrite", Oneshot);
  ]

let inputs kind ~seed =
  match kind with
  | Classify_stream -> Inputs.classify_stream ~seed
  | Edit_loop -> Inputs.edit_loop ~seed
  | Oneshot -> Inputs.oneshot ~seed

let uses_daemon = function Classify_stream | Edit_loop -> true | Oneshot -> false

type pass = {
  lat : float array;
      (** per item, ms from send to full answer; [infinity] if the answer
          was wrong or missing *)
  answers : (Protocol.response, string) result array;
      (** per item, the daemon's answer; empty for one-shot passes and
          once a timed run has counted it *)
  bytes : int;  (** wire (or, one-shot, file) bytes of the pass *)
  window_ms : float;  (** time on the clock *)
}

let failed p = Array.fold_left (fun n x -> if x = infinity then n + 1 else n) 0 p.lat

let check (it : Inputs.item) resp =
  match (it.Inputs.it_expect, resp) with
  | Inputs.Cls c, Ok (Protocol.Classified { cls; _ }) ->
      String.equal (Matrix.cls_to_string cls) c
  | Inputs.Bin b, Ok (Protocol.Rewritten { bin; _ }) -> String.equal bin b
  | Inputs.Refusal r, Ok (Protocol.Refused { reason; _ }) -> String.equal reason r
  | _ -> false

(* One request through the daemon's own client. A NeedFull (the base
   left the daemon's store) is healed by the client, which re-sends the
   binary in full. *)
let request c (inp : Inputs.t) (it : Inputs.item) =
  let fallback = inp.Inputs.binaries.(it.Inputs.it_bin).Inputs.b_str in
  match it.Inputs.it_req with
  | Protocol.Classify { approach; payload; _ } ->
      Client.classify_payload c ~approach ~fallback payload
  | Protocol.Rewrite { approach; payload; _ } ->
      Client.rewrite_payload c ~approach ~fallback payload
  | _ -> invalid_arg "not a work request"

(* Request and response frame bytes of one exchange, counted off the
   clock. A healed NeedFull's second round trip is not seen here. *)
let frame_bytes (it : Inputs.item) answer =
  Lazy.force it.Inputs.it_req_bytes
  + match answer with
    | Ok resp -> 4 + String.length (Protocol.response_to_payload resp)
    | Error _ -> 0

let daemon_pass srv (inp : Inputs.t) =
  Client.with_connection (Server.sock_path srv) @@ fun c ->
  let clock = ref 0. in
  let answers = Array.make (Array.length inp.Inputs.items) (Error "not sent") in
  let lat =
    Array.mapi
      (fun i it ->
        match timed (fun () -> request c inp it) with
        | resp, ms ->
            clock := !clock +. ms;
            answers.(i) <- resp;
            if check it resp then ms else infinity
        | exception _ -> infinity)
      inp.Inputs.items
  in
  let bytes = ref 0 in
  Array.iteri (fun i it -> bytes := !bytes + frame_bytes it answers.(i)) inp.Inputs.items;
  { lat; answers; bytes = !bytes; window_ms = !clock }

(* The icfg-rewrite user: drive the rewrite and emit the container. The
   VM check of the emitted image runs off the clock. *)
let oneshot_pass (inp : Inputs.t) =
  let bytes = ref 0 and clock = ref 0. in
  let lat =
    Array.map
      (fun (it : Inputs.item) ->
        let b = inp.Inputs.binaries.(it.Inputs.it_bin) in
        match
          timed (fun () ->
              match Runner.drive ~approach:it.Inputs.it_approach b.Inputs.b_bin with
              | Some (Baseline.Rewritten rw as outcome) ->
                  (outcome, Binfile.to_string rw.Rewriter.rw_binary)
              | Some outcome -> (outcome, "")
              | None -> failwith "unknown approach")
        with
        | (outcome, out), ms ->
            clock := !clock +. ms;
            bytes := !bytes + String.length b.Inputs.b_str + String.length out;
            let cls =
              Matrix.cls_to_string (Matrix.classify ~orig:b.Inputs.b_orig outcome)
            in
            if it.Inputs.it_expect = Inputs.Cls cls then ms else infinity
        | exception _ -> infinity)
      inp.Inputs.items
  in
  { lat; answers = [||]; bytes = !bytes; window_ms = !clock }

(* Set the workload up [reps] times, keeping the last set-up; set-up time
   is the median. A daemon workload's set-up ends with a started daemon
   holding the registered bases. *)
let setup ?max_frame ~reps kind ~seed =
  ignore (Lazy.force Wire.templates);
  let once () =
    Gc.full_major ();
    let t0 = now_ns () in
    let inp = inputs kind ~seed in
    let srv =
      if uses_daemon kind then begin
        let srv = Wire.start ?max_frame () in
        Wire.register srv inp.Inputs.bases;
        Some srv
      end
      else None
    in
    ((inp, srv), ms_since t0 /. 1e3)
  in
  let rec go k times =
    let r, s = once () in
    if k <= 1 then (r, median (s :: times))
    else begin
      Option.iter Server.stop (snd r);
      go (k - 1) (s :: times)
    end
  in
  go reps []

(* Complete passes until [seconds] are on the clock. Each daemon pass
   after the first gets a fresh daemon (empty cache, store and memo) with
   the bases registered off the clock, so every pass is the same
   workload. The answers are dropped once checked and counted. *)
let run ~seconds (inp, srv) =
  let pass = function
    | Some srv ->
        Fun.protect
          ~finally:(fun () -> Server.stop srv)
          (fun () -> { (daemon_pass srv inp) with answers = [||] })
    | None -> oneshot_pass inp
  in
  let fresh () =
    Option.map
      (fun _ ->
        let s = Wire.start () in
        Wire.register s inp.Inputs.bases;
        s)
      srv
  in
  let rec go acc clock srv =
    let p = pass srv in
    let clock = clock +. p.window_ms in
    if clock >= seconds *. 1e3 then List.rev (p :: acc) else go (p :: acc) clock (fresh ())
  in
  go [] 0. srv

let quality verdicts =
  let verified = List.filter (fun v -> v.Inputs.v_cls = "verified") verdicts in
  let growth f vs = 100. *. (geomean (List.filter_map f vs) -. 1.) in
  ( pct (List.length verified) (List.length verdicts),
    growth (fun v -> v.Inputs.v_cycles) verified,
    growth (fun v -> v.Inputs.v_size) verdicts )

let end_to_end verdicts passes ~setup_s =
  let lats = List.concat_map (fun p -> Array.to_list p.lat) passes in
  let attempted = List.length lats in
  let failed = List.length (List.filter (fun x -> x = infinity) lats) in
  let window_s = sum (List.map (fun p -> p.window_ms) passes) /. 1e3 in
  let first = List.hd passes in
  let verified_pct, run_overhead_pct, size_increase_pct = quality verdicts in
  let metrics =
    [
      metric "throughput_rps" "req/s" (float_of_int attempted /. window_s);
      metric "latency_p50_ms" "ms" (percentile 0.50 lats);
      metric "latency_p95_ms" "ms" (percentile 0.95 lats);
      metric "correct_pct" "%" (100. -. pct failed attempted);
      metric "verified_pct" "%" verified_pct;
      metric "run_overhead_pct" "%" run_overhead_pct;
      metric "size_increase_pct" "%" size_increase_pct;
      metric "wire_bytes_per_request" "B"
        (float_of_int first.bytes /. float_of_int (Array.length first.lat));
      metric "peak_rss_mb" "MB" (peak_rss_mb ());
      metric "setup_s" "s" setup_s;
    ]
  in
  (attempted, failed, metrics)
