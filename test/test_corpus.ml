(* Corpus + matrix battery (ISSUE 6).

   Contracts under test:

   1. [Corpus.generate] is a pure function of (seed, count): identical
      calls agree, shorter counts are prefixes of longer ones, the first
      seven entries cover every adversarial shape, and distinct seeds
      produce distinct corpora.

   2. Corpus binaries are deterministic artifacts: building an entry
      yields byte-identical binaries no matter in which order the entries
      are built, and a twin entry builds byte-identical to its source
      (the corpus-level cache-hit fodder).

   3. [Matrix.run] classification is deterministic: the same seed gives
      identical rows and identical shared-cache statistics on every run
      — only wall times may differ — and the per-row counts
      tile ([verified + diverged + refused + crashed = cells], refusal
      histograms sum to [refused]). *)

module Corpus = Icfg_workloads.Corpus
module Matrix = Icfg_harness.Matrix

(* ------------------------------------------------------------------ *)
(* 1. Corpus generation determinism                                    *)
(* ------------------------------------------------------------------ *)

let test_generate_deterministic_and_prefix () =
  let a = Corpus.generate ~seed:7 ~count:40 in
  let b = Corpus.generate ~seed:7 ~count:40 in
  Alcotest.(check bool) "same seed, same corpus" true (a = b);
  let prefix = Corpus.generate ~seed:7 ~count:20 in
  Alcotest.(check bool) "shorter count is a prefix" true
    (prefix = List.filteri (fun i _ -> i < 20) a)

let test_shape_coverage () =
  List.iter
    (fun seed ->
      let es = Corpus.generate ~seed ~count:7 in
      let shapes =
        List.sort_uniq compare
          (List.map (fun e -> Corpus.shape_name e.Corpus.e_shape) es)
      in
      Alcotest.(check int)
        (Printf.sprintf "seed %d: first 7 entries cover all shapes" seed)
        (Array.length Corpus.all_shapes)
        (List.length shapes))
    [ 1; 7; 9999 ]

let distinct_seeds =
  QCheck2.Test.make ~count:20 ~name:"corpus: distinct seeds, distinct corpora"
    QCheck2.Gen.(int_range 0 1_000_000)
    (fun seed ->
      let specs s =
        List.map (fun e -> e.Corpus.e_spec) (Corpus.generate ~seed:s ~count:10)
      in
      specs seed <> specs (seed + 1))

(* ------------------------------------------------------------------ *)
(* 2. Built binaries are deterministic artifacts                       *)
(* ------------------------------------------------------------------ *)

let digest_order_independent =
  QCheck2.Test.make ~count:4
    ~name:"corpus: build digests independent of the build order"
    QCheck2.Gen.(int_range 1 100_000)
    (fun seed ->
      let entries = Corpus.generate ~seed ~count:8 in
      let digest e = Corpus.digest (Corpus.build e) in
      let forward = List.map digest entries in
      let backward = List.rev (List.map digest (List.rev entries)) in
      forward = backward)

let test_twins_build_identical () =
  let entries = Corpus.generate ~seed:7 ~count:30 in
  let arr = Array.of_list entries in
  let twins =
    List.filter (fun e -> e.Corpus.e_twin_of <> None) entries
  in
  Alcotest.(check bool) "a 30-entry corpus contains twins" true (twins <> []);
  List.iter
    (fun e ->
      let src = arr.(Option.get e.Corpus.e_twin_of) in
      Alcotest.(check string)
        (Printf.sprintf "entry %d builds identical to its twin %d"
           e.Corpus.e_id src.Corpus.e_id)
        (Corpus.digest (Corpus.build src))
        (Corpus.digest (Corpus.build e)))
    twins

(* ------------------------------------------------------------------ *)
(* 3. Matrix classification determinism                                *)
(* ------------------------------------------------------------------ *)

let strip (m : Matrix.t) =
  ( m.Matrix.m_seed,
    m.Matrix.m_count,
    m.Matrix.m_hits,
    m.Matrix.m_misses,
    List.map
      (fun (r : Matrix.row) ->
        { r with Matrix.row_p50_ns = 0.; row_p95_ns = 0. })
      m.Matrix.m_rows )

let test_matrix_smoke_and_determinism () =
  let m1 = Matrix.run ~seed:11 ~count:8 () in
  Alcotest.(check int) "seven roster rows" 7 (List.length m1.Matrix.m_rows);
  List.iter
    (fun (r : Matrix.row) ->
      let name fmt = Printf.sprintf "%s: %s" r.Matrix.row_approach fmt in
      Alcotest.(check int) (name "cells = corpus size") 8 r.Matrix.row_cells;
      Alcotest.(check int)
        (name "classes tile the cells")
        8
        (r.Matrix.row_verified + r.Matrix.row_diverged + r.Matrix.row_refused
       + r.Matrix.row_crashed);
      Alcotest.(check int)
        (name "refusal histogram sums to refused")
        r.Matrix.row_refused
        (List.fold_left (fun n (_, c) -> n + c) 0 r.Matrix.row_refusals);
      Alcotest.(check bool)
        (name "pass rate in range")
        true
        (Matrix.pass_rate_pct r >= 0. && Matrix.pass_rate_pct r <= 100.))
    m1.Matrix.m_rows;
  let hits = m1.Matrix.m_hits and misses = m1.Matrix.m_misses in
  Alcotest.(check bool) "the shared cache was exercised" true
    (hits + misses > 0);
  Alcotest.(check bool) "hit rate agrees with the counters" true
    (Float.abs
       (m1.Matrix.m_hit_rate
       -. (float_of_int hits /. float_of_int (hits + misses)))
    < 1e-9);
  let m2 = Matrix.run ~seed:11 ~count:8 () in
  Alcotest.(check bool)
    "classification and cache stats identical across runs" true
    (strip m1 = strip m2)

let test_hit_rate () =
  Alcotest.(check (float 1e-9)) "no lookups" 0.
    (Matrix.hit_rate ~hits:0 ~misses:0);
  Alcotest.(check (float 1e-9)) "3/4" 0.75 (Matrix.hit_rate ~hits:3 ~misses:1)

(* [Matrix.percentile]: nearest-rank on the finite values only. NaN and
   infinities must be dropped, not allowed to poison the sort order, and
   an empty (or all-non-finite) sample reads as 0. *)
let test_percentile () =
  let check name want got = Alcotest.(check (float 1e-9)) name want got in
  check "empty" 0. (Matrix.percentile 0.5 []);
  check "singleton" 42. (Matrix.percentile 0.95 [ 42. ]);
  let xs = [ 5.; 1.; 4.; 2.; 3. ] in
  check "median of 1..5" 3. (Matrix.percentile 0.5 xs);
  check "p0 is the min" 1. (Matrix.percentile 0. xs);
  check "p100 is the max" 5. (Matrix.percentile 1. xs);
  (* Nearest rank: p95 over five values rounds to the last index. *)
  check "p95 of 1..5" 5. (Matrix.percentile 0.95 xs);
  let poisoned = [ Float.nan; 5.; Float.infinity; 1.; 4.; Float.nan; 2.; 3. ] in
  check "nan/inf dropped" 3. (Matrix.percentile 0.5 poisoned);
  check "all non-finite" 0. (Matrix.percentile 0.5 [ Float.nan; Float.nan ])

let suite =
  [
    ( "corpus",
      [
        Alcotest.test_case "generate deterministic + prefix" `Quick
          test_generate_deterministic_and_prefix;
        Alcotest.test_case "shape coverage" `Quick test_shape_coverage;
        QCheck_alcotest.to_alcotest distinct_seeds;
        QCheck_alcotest.to_alcotest digest_order_independent;
        Alcotest.test_case "twins build identical" `Quick
          test_twins_build_identical;
        Alcotest.test_case "matrix smoke + determinism" `Slow
          test_matrix_smoke_and_determinism;
        Alcotest.test_case "cache hit rate" `Quick test_hit_rate;
        Alcotest.test_case "percentile" `Quick test_percentile;
      ] );
  ]
