(* Unit battery for the telemetry registry (lib/core/metrics.mli).

   Contracts under test:
   (a) bucket determinism — log₂ bucket boundaries are pure functions of
       the integers (pinned values + round-trip property), so snapshots
       taken on different machines bucket identically;
   (b) recording — counters/gauges/histograms accumulate as specified,
       negative observations clamp to 0, snapshots are sorted and
       self-consistent (bucket counts sum to h_count);
   (c) merge algebra — associative, commutative, [empty] identity, and
       pointwise union-sum (the fleet-aggregation contract);
   (d) concurrent recording — a registry fed from several domains at
       once (as the daemon's executors feed it) snapshots identically to
       a serially fed one, provided the recorded values are
       schedule-independent;
   (e) expositions — icfg-metrics/1 JSON and the Prometheus text render
       what the snapshot holds (cumulative buckets, name/tag split). *)

open Icfg_core
module M = Metrics

let contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

(* ---------------- (a) bucket determinism ---------------- *)

let bucket_pinned () =
  List.iter
    (fun (v, want) ->
      Alcotest.(check int) (Printf.sprintf "bucket_index %d" v) want
        (M.bucket_index v))
    [
      (0, 0);
      (1, 0);
      (2, 1);
      (3, 1);
      (4, 2);
      (7, 2);
      (8, 3);
      (1023, 9);
      (1024, 10);
      (1_000_000_000, 29);
      (max_int, M.n_buckets - 1);
      (-5, 0);
    ];
  (* Boundary self-consistency: every bucket contains its own bounds,
     and the bounds tile the non-negative ints without gaps. *)
  for i = 0 to M.n_buckets - 1 do
    Alcotest.(check int)
      (Printf.sprintf "lo of bucket %d round-trips" i)
      i
      (M.bucket_index (M.bucket_lo i));
    Alcotest.(check int)
      (Printf.sprintf "hi of bucket %d round-trips" i)
      i
      (M.bucket_index (M.bucket_hi i));
    if i < M.n_buckets - 1 then
      Alcotest.(check int)
        (Printf.sprintf "bucket %d tiles into %d" i (i + 1))
        (M.bucket_lo (i + 1))
        (M.bucket_hi i + 1)
  done

let bucket_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"metrics: v lands inside its bucket"
    QCheck2.Gen.(map abs big_nat)
    (fun v ->
      let i = M.bucket_index v in
      i >= 0 && i < M.n_buckets && M.bucket_lo i <= v && v <= M.bucket_hi i)

(* ---------------- (b) recording ---------------- *)

let recording () =
  let t = M.create () in
  M.add t "c.a" 3;
  M.incr t "c.a";
  M.add t "c.b" 0;
  M.set_gauge t "g.depth" 5;
  M.add_gauge t "g.depth" (-2);
  M.observe t "h.lat" 1;
  M.observe t "h.lat" 1000;
  M.observe t "h.lat" 1500;
  M.observe t "h.lat" (-7);
  (* clamps to 0: bucket 0 *)
  let s = M.snapshot t in
  Alcotest.(check (option int)) "counter accumulates" (Some 4)
    (M.find_counter s "c.a");
  Alcotest.(check (option int)) "zero-add creates the counter" (Some 0)
    (M.find_counter s "c.b");
  Alcotest.(check (option int)) "gauge set+delta" (Some 3)
    (M.find_gauge s "g.depth");
  (match M.find_histo s "h.lat" with
  | None -> Alcotest.fail "histogram missing"
  | Some h ->
      Alcotest.(check int) "observation count" 4 h.M.h_count;
      Alcotest.(check int) "sum (clamped)" 2501 h.M.h_sum;
      Alcotest.(check int) "bucket counts sum to count" h.M.h_count
        (List.fold_left (fun a (_, n) -> a + n) 0 h.M.h_buckets);
      (* 1 and the clamped -7 share bucket 0; 1000 → 9 (512..1023),
         1500 → 10 (1024..2047). *)
      Alcotest.(check bool) "expected sparse buckets" true
        (h.M.h_buckets = [ (0, 2); (9, 1); (10, 1) ]);
      Alcotest.(check (float 0.001)) "mean" 625.25 (M.histo_mean h));
  (* Snapshot lists are name-sorted (the merge normal form). *)
  let sorted l = List.sort compare l = l in
  Alcotest.(check bool) "counters sorted" true (sorted s.M.s_counters);
  Alcotest.(check bool) "gauges sorted" true (sorted s.M.s_gauges);
  Alcotest.(check bool) "histos sorted" true
    (sorted (List.map fst s.M.s_histos))

(* ---------------- (c) merge algebra ---------------- *)

let snap_of ops =
  let t = M.create () in
  List.iter
    (fun (kind, name, v) ->
      match kind with
      | `C -> M.add t name v
      | `G -> M.add_gauge t name v
      | `H -> M.observe t name v)
    ops;
  M.snapshot t

let merge_algebra () =
  let a =
    snap_of
      [ (`C, "x", 1); (`C, "y", 2); (`G, "q", 3); (`H, "h", 10); (`H, "h", 2000) ]
  in
  let b = snap_of [ (`C, "y", 5); (`C, "z", 7); (`H, "h", 10); (`H, "k", 1) ] in
  let c = snap_of [ (`G, "q", -1); (`H, "k", 4096) ] in
  let eq = Alcotest.(check bool) in
  eq "left identity" true (M.merge M.empty a = a);
  eq "right identity" true (M.merge a M.empty = a);
  eq "commutative" true (M.merge a b = M.merge b a);
  eq "associative" true
    (M.merge (M.merge a b) c = M.merge a (M.merge b c));
  let ab = M.merge a b in
  Alcotest.(check (option int)) "counters union-sum" (Some 7)
    (M.find_counter ab "y");
  Alcotest.(check (option int)) "disjoint keys kept" (Some 1)
    (M.find_counter ab "x");
  (match M.find_histo ab "h" with
  | Some h ->
      Alcotest.(check int) "histogram counts add" 3 h.M.h_count;
      Alcotest.(check int) "histogram sums add" 2020 h.M.h_sum;
      Alcotest.(check int) "bucket counts add" h.M.h_count
        (List.fold_left (fun acc (_, n) -> acc + n) 0 h.M.h_buckets)
  | None -> Alcotest.fail "merged histogram missing");
  (* Merging a snapshot with itself doubles every total. *)
  let aa = M.merge a a in
  List.iter2
    (fun (k, v) (k', v') ->
      Alcotest.(check string) "same key" k k';
      Alcotest.(check int) (k ^ " doubled") (2 * v) v')
    a.M.s_counters aa.M.s_counters

(* ---------------- (d) concurrent recording ---------------- *)

let concurrent_recording () =
  (* Record the same schedule-independent values serially and from four
     domains at once: snapshots must be exactly equal. Only commutative
     ops (add/add_gauge/observe) are used; set_gauge is last-writer-wins
     and carries no cross-schedule guarantee. *)
  let record t i =
    M.incr t "items";
    M.add t "payload" i;
    M.add_gauge t "level" (if i mod 2 = 0 then 1 else -1);
    M.observe t "work" (i * i)
  in
  let s1 =
    let t = M.create () in
    for i = 0 to 99 do
      record t i
    done;
    M.snapshot t
  in
  let s4 =
    let t = M.create () in
    List.init 4 (fun k ->
        Domain.spawn (fun () ->
            for i = 25 * k to (25 * k) + 24 do
              record t i
            done))
    |> List.iter Domain.join;
    M.snapshot t
  in
  Alcotest.(check bool) "serial snapshot == 4-domain snapshot" true (s1 = s4);
  Alcotest.(check (option int)) "items" (Some 100) (M.find_counter s1 "items");
  Alcotest.(check (option int)) "payload" (Some 4950)
    (M.find_counter s1 "payload");
  match M.find_histo s1 "work" with
  | Some h -> Alcotest.(check int) "observations" 100 h.M.h_count
  | None -> Alcotest.fail "work histogram missing"

(* ---------------- (e) expositions ---------------- *)

let expositions () =
  let s =
    snap_of
      [
        (`C, "serve.requests", 12);
        (`G, "sched.queue_depth", 2);
        (`H, "request.latency:ours/jt:rewritten", 900);
        (`H, "request.latency:ours/jt:rewritten", 5000);
      ]
  in
  let j = M.to_json s in
  List.iter
    (fun sub ->
      Alcotest.(check bool) ("json has " ^ sub) true (contains j sub))
    [
      "\"schema\": \"icfg-metrics/1\"";
      "\"serve.requests\": 12";
      "\"sched.queue_depth\": 2";
      "\"count\": 2";
      "\"sum\": 5900";
    ];
  let p = M.to_prom s in
  List.iter
    (fun sub ->
      Alcotest.(check bool) ("prom has " ^ sub) true (contains p sub))
    [
      "# TYPE icfg_serve_requests counter";
      "icfg_serve_requests 12";
      "# TYPE icfg_sched_queue_depth gauge";
      "# TYPE icfg_request_latency histogram";
      (* name splits at the first ':'; the remainder is one opaque tag *)
      "tag=\"ours/jt:rewritten\"";
      (* cumulative buckets: 900 → bucket 9 (le 1023), then both ≤ +Inf *)
      "le=\"1023\"} 1";
      "le=\"+Inf\"} 2";
      "icfg_request_latency_sum{tag=\"ours/jt:rewritten\"} 5900";
      "icfg_request_latency_count{tag=\"ours/jt:rewritten\"} 2";
    ]

let suite =
  [
    ( "metrics",
      [
        Alcotest.test_case "log2 buckets: pinned boundaries" `Quick
          bucket_pinned;
        QCheck_alcotest.to_alcotest bucket_roundtrip;
        Alcotest.test_case "recording and snapshots" `Quick recording;
        Alcotest.test_case "merge is a commutative monoid" `Quick
          merge_algebra;
        Alcotest.test_case "concurrent recording from domains" `Quick
          concurrent_recording;
        Alcotest.test_case "JSON and Prometheus expositions" `Quick
          expositions;
      ] );
  ]
