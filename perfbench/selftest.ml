(* Self-tests of the benchmark: the failure count is live, and the
   deterministic metrics are a function of the seed alone. *)

open Util
module Server = Icfg_service.Server
module Client = Icfg_service.Client
module Protocol = Icfg_service.Protocol
module Corpus = Icfg_workloads.Corpus

(* The seed the workload sizes were calibrated on, and one held out. *)
let calibration_seed = 7
let held_out_seed = 11

let report name ok detail =
  Printf.printf "%s %s: %s\n%!" (if ok then "PASS" else "FAIL") name detail;
  ok

(* A daemon whose frame limit is below the starved uploads must answer
   exactly those requests with a typed refusal, count them failed, and
   keep serving. *)
let max_frame () =
  let max_frame = 8 * 1024 * 1024 in
  let (inp, srv), _ =
    Workloads.setup ~max_frame ~reps:1 Workloads.Classify_stream
      ~seed:calibration_seed
  in
  let srv = Option.get srv in
  let p = Workloads.daemon_pass srv inp in
  let alive =
    Client.with_connection (Server.sock_path srv) Client.ping = Ok Protocol.Pong
  in
  Server.stop srv;
  let starved (it : Inputs.item) =
    inp.Inputs.binaries.(it.Inputs.it_bin).Inputs.b_starved
  in
  let _, failed, metrics = Workloads.end_to_end [] [ p ] ~setup_s:0. in
  let failed_pct =
    100. -. (List.find (fun m -> m.m_name = "correct_pct") metrics).m_value
  in
  let n = Array.length inp.Inputs.items in
  let n_starved = List.length (List.filter starved (Array.to_list inp.Inputs.items)) in
  let exact =
    Array.for_all2
      (fun (it : Inputs.item) l -> starved it = (l = infinity))
      inp.Inputs.items p.Workloads.lat
  in
  report "max-frame"
    (alive && exact && n_starved > 0 && failed = n_starved
    && Float.abs (failed_pct -. pct n_starved n) < 1e-9)
    (Printf.sprintf
       "failed_pct %.2f%% (%d of %d), starved share %.2f%% (%d), failures \
        exactly the starved requests: %b, daemon still serving: %b"
       failed_pct failed n (pct n_starved n) n_starved exact alive)

let deterministic =
  [ "verified_pct"; "run_overhead_pct"; "size_increase_pct"; "wire_bytes_per_request" ]

let one_pass kind ~seed =
  let env, _ = Workloads.setup ~reps:1 kind ~seed in
  let passes = Workloads.run ~seconds:0. env in
  let _, failed, metrics =
    Workloads.end_to_end (Inputs.verdicts (fst env)) passes ~setup_s:0.
  in
  (failed, List.filter (fun m -> List.mem m.m_name deterministic) metrics)

let repeat (name, kind) =
  let f1, m1 = one_pass kind ~seed:calibration_seed in
  let f2, m2 = one_pass kind ~seed:calibration_seed in
  let same = List.for_all2 (fun a b -> a.m_value = b.m_value) m1 m2 in
  report ("repeat " ^ name)
    (same && f1 = 0 && f2 = 0)
    (String.concat ", "
       (List.map2
          (fun a b -> Printf.sprintf "%s %.17g / %.17g" a.m_name a.m_value b.m_value)
          m1 m2))

let distinct_seeds () =
  let digests seed =
    List.map
      (fun (_, bin) -> Corpus.digest bin)
      (Inputs.sample ~seed ~shapes:Inputs.all_shapes)
  in
  let a = digests calibration_seed and b = digests held_out_seed in
  let shared = List.length (List.filter (fun d -> List.mem d b) a) in
  report "distinct seeds" (shared = 0)
    (Printf.sprintf "seeds %d and %d share %d of %d binaries" calibration_seed
       held_out_seed shared (List.length a))

let run () =
  let max_frame = max_frame () in
  let distinct = distinct_seeds () in
  let repeats = List.map repeat Workloads.kinds in
  List.for_all Fun.id (max_frame :: distinct :: repeats)
