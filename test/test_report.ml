(* Reconciliation battery for the attribution + reporting layer (PR 4).

   Contracts under test:

   1. Attribution exactly tiles [Rewriter.stats]: the per-cause totals sum
      to the aggregate counters for every mode and failure model — no site
      is double-counted or dropped.

   2. Attribution is observation-only and schedule-independent: the record
      is structurally identical whether the placement plans were computed
      or served from a cold or warm cache, and the rewritten bytes and
      stats are unchanged by its presence (it is assembled from the
      serialized placement plans, never the other way around).

   3. Injected graded failures (section 4.3) surface as their specific
      cause: [Bound_over] -> [Jt_bound_over], [Bound_under] ->
      [Jt_bound_under], spill-tracking off -> [Jt_unresolved_spill].

   4. The bench regression gate ([Bench_diff]) classifies differences per
      its policy: worse-is-higher counter increases and lost rows gate,
      time growth gates only under --gate with matching core counts, new
      rows never gate.

   5. Failure-path observability: [Trace.with_file] writes the trace even
      when the traced function raises, and [Verify.strong_test] returns a
      populated trace even when the verdict is a failure. *)

open Icfg_isa
open Icfg_core
module Gen = Icfg_workloads.Gen
module Runner = Icfg_harness.Runner
module Bench_diff = Icfg_harness.Bench_diff
module Binary = Icfg_obj.Binary
module Section = Icfg_obj.Section
module Failure_model = Icfg_analysis.Failure_model
module A = Attribution

let opts mode =
  { Rewriter.default_options with Rewriter.mode; payload = Rewriter.P_count }

let first_bench arch =
  let bench = List.hd (Icfg_workloads.Spec_suite.benchmarks arch) in
  fst (Icfg_workloads.Spec_suite.compile arch bench)

let modes = [ Mode.Dir; Mode.Jt; Mode.Func_ptr ]

(* ------------------------------------------------------------------ *)
(* 1. Attribution totals tile the stats record                         *)
(* ------------------------------------------------------------------ *)

let place_count attr c =
  List.fold_left
    (fun n (r : A.func_row) ->
      n
      + List.length
          (List.filter (fun (s : A.block_site) -> s.A.bs_place = Some c)
             r.A.fr_sites))
    0 attr.A.a_rows

let check_reconciles label (rw : Rewriter.t) =
  let st = rw.Rewriter.rw_stats and attr = rw.Rewriter.rw_attribution in
  let check name want got =
    Alcotest.(check int) (Printf.sprintf "%s: %s" label name) want got
  in
  check "cfl blocks" st.Rewriter.s_cfl_blocks (A.cfl_total attr);
  check "trampolines" st.Rewriter.s_trampolines (A.tramp_total attr);
  check "trap trampolines" st.Rewriter.s_trap_trampolines (A.trap_total attr);
  check "short" st.Rewriter.s_short_trampolines (place_count attr A.Tramp_short);
  check "long" st.Rewriter.s_long_trampolines (place_count attr A.Tramp_long);
  check "hop" st.Rewriter.s_multi_hop (place_count attr A.Tramp_hop);
  check "trap causes sum"
    st.Rewriter.s_trap_trampolines
    (place_count attr A.Trap_no_reach
    + place_count attr A.No_scratch_space
    + place_count attr A.No_hop_kind
    + place_count attr A.Scratch_pool_disabled);
  check "funcs total" st.Rewriter.s_funcs_total (List.length attr.A.a_rows);
  check "funcs instrumented" st.Rewriter.s_funcs_instrumented
    (List.length
       (List.filter (fun r -> r.A.fr_instrumented) attr.A.a_rows));
  check "blocks" st.Rewriter.s_blocks
    (List.fold_left (fun n r -> n + r.A.fr_blocks) 0 attr.A.a_rows);
  (* Every placement cause on a site is a trampoline cause, and every CFL
     cause is from the CFL axis. *)
  List.iter
    (fun (r : A.func_row) ->
      List.iter
        (fun (s : A.block_site) ->
          Alcotest.(check string)
            (Printf.sprintf "%s: cfl axis at %x" label s.A.bs_addr)
            "cfl" (A.axis s.A.bs_cfl);
          match s.A.bs_place with
          | Some c ->
              Alcotest.(check string)
                (Printf.sprintf "%s: tramp axis at %x" label s.A.bs_addr)
                "tramp" (A.axis c)
          | None -> ())
        r.A.fr_sites)
    attr.A.a_rows

let reconciliation () =
  let bin = first_bench Arch.X86_64 in
  List.iter
    (fun (fm, fm_name) ->
      List.iter
        (fun mode ->
          let rw = Runner.rewrite ~fm ~options:(opts mode) bin in
          check_reconciles
            (Printf.sprintf "%s/%s" fm_name (Mode.name mode))
            rw)
        modes)
    [ (Failure_model.ours, "ours"); (Failure_model.srbi, "srbi") ]

(* The baselines plumb their own options; make sure an every-block
   placement (SRBI-like) reconciles too, trap causes included. *)
let reconciliation_srbi_like () =
  let bin = first_bench Arch.X86_64 in
  let rw =
    Runner.rewrite ~options:(Rewriter.srbi_like Rewriter.P_empty) bin
  in
  check_reconciles "srbi-like" rw;
  Alcotest.(check bool) "every-block placement recorded" true
    (A.count rw.Rewriter.rw_attribution A.Cfl_every_block > 0)

(* ------------------------------------------------------------------ *)
(* 2. Schedule-independence and mode monotonicity                      *)
(* ------------------------------------------------------------------ *)

let section_image (s : Section.t) =
  (s.Section.name, s.Section.vaddr, Bytes.to_string s.Section.data)

(* Cold and warm cached rewrites take their placement plans from
   different places (computed vs unmarshalled), so the attribution they
   assemble must still match the uncached run exactly. *)
let attribution_schedule_independent () =
  let bin = first_bench Arch.X86_64 in
  List.iter
    (fun mode ->
      let base = Runner.rewrite ~options:(opts mode) bin in
      let cache = Cache.create () in
      let cold = Runner.rewrite ~options:(opts mode) ~cache bin in
      let warm =
        Runner.rewrite ~options:(opts mode) ~cache:(Cache.clone cache) bin
      in
      List.iter
        (fun (what, rw) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: attribution identical, %s" (Mode.name mode)
               what)
            true
            (rw.Rewriter.rw_attribution = base.Rewriter.rw_attribution);
          Alcotest.(check bool)
            (Printf.sprintf "%s: bytes identical, %s" (Mode.name mode) what)
            true
            (List.map section_image rw.Rewriter.rw_binary.Binary.sections
            = List.map section_image base.Rewriter.rw_binary.Binary.sections))
        [ ("cold cache", cold); ("warm cache", warm) ])
    modes

let mode_monotone () =
  let bin = first_bench Arch.X86_64 in
  let attrs =
    List.map
      (fun m ->
        (Runner.rewrite ~options:(opts m) bin).Rewriter.rw_attribution)
      modes
  in
  match attrs with
  | [ dir; jt; fp ] ->
      Alcotest.(check bool) "cfl non-increasing" true
        (A.cfl_total dir >= A.cfl_total jt && A.cfl_total jt >= A.cfl_total fp);
      Alcotest.(check bool) "traps non-increasing" true
        (A.trap_total dir >= A.trap_total jt
        && A.trap_total jt >= A.trap_total fp);
      let d = A.delta ~dir jt in
      Alcotest.(check int) "delta matches totals"
        (A.cfl_total jt - A.cfl_total dir)
        d.A.d_cfl;
      Alcotest.(check bool) "jt mode delta removes cfl blocks" true
        (d.A.d_cfl <= 0)
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* 3. Injected graded failures surface as their specific cause         *)
(* ------------------------------------------------------------------ *)

let graded_spec =
  { Gen.default_spec with Gen.seed = 42; name = "graded"; n_switch = 3; iters = 40 }

let attr_of ~fm bin =
  (Runner.rewrite ~fm ~options:(opts Mode.Dir) bin).Rewriter.rw_attribution

let graded_causes () =
  let bin, _ = Icfg_codegen.Compile.compile Arch.X86_64 (Gen.build graded_spec) in
  let base = attr_of ~fm:Failure_model.ours bin in
  Alcotest.(check bool) "exact bounds: resolved-exact tables" true
    (A.count base A.Jt_resolved_exact > 0);
  Alcotest.(check int) "exact bounds: no bound causes" 0
    (A.count base A.Jt_bound_over + A.count base A.Jt_bound_under);
  let over_fm =
    {
      (Failure_model.with_bounds Failure_model.ours (Failure_model.Bound_over 8))
      with
      Failure_model.extend_to_known_data = false;
    }
  in
  let over = attr_of ~fm:over_fm bin in
  Alcotest.(check bool) "over-approx surfaces as jt/bound-over" true
    (A.count over A.Jt_bound_over > 0);
  Alcotest.(check int) "over-approx: no under causes" 0
    (A.count over A.Jt_bound_under);
  let under_fm =
    Failure_model.with_bounds Failure_model.ours (Failure_model.Bound_under 2)
  in
  let under = attr_of ~fm:under_fm bin in
  Alcotest.(check bool) "under-approx surfaces as jt/bound-under" true
    (A.count under A.Jt_bound_under > 0)

let graded_spill () =
  (* A switch whose table base is spilled to the stack: SRBI's analyses
     (no spill tracking, no layout heuristic) fail the slice at the spill
     and leave the function uninstrumented — both facts must be visible. *)
  let spec = { graded_spec with Gen.name = "graded-srbi"; n_hard_spill = 1 } in
  let bin, _ = Icfg_codegen.Compile.compile Arch.X86_64 (Gen.build spec) in
  let base = attr_of ~fm:Failure_model.ours bin in
  Alcotest.(check int) "ours: no spill causes" 0
    (A.count base A.Jt_unresolved_spill);
  Alcotest.(check int) "ours: everything instrumented" 0
    (A.count base A.Unresolved_indirect_jump);
  let srbi = attr_of ~fm:Failure_model.srbi bin in
  Alcotest.(check bool) "srbi: spill surfaces as jt/unresolved-spill" true
    (A.count srbi A.Jt_unresolved_spill > 0);
  Alcotest.(check bool) "srbi: function left uninstrumented" true
    (A.count srbi A.Unresolved_indirect_jump > 0);
  (* The spill cause lives on the row of the function that failed. *)
  Alcotest.(check bool) "cause attributed to the failed function" true
    (List.exists
       (fun (r : A.func_row) ->
         r.A.fr_fail = Some A.Unresolved_indirect_jump
         && List.exists (fun (_, c) -> c = A.Jt_unresolved_spill) r.A.fr_jt)
       srbi.A.a_rows)

(* QCheck: the specific cause appears on any generated workload whose
   tables the full model resolves. *)
let graded_spec_gen =
  let open QCheck2.Gen in
  let* seed = int_range 1 100_000 in
  let* n_switch = int_range 1 3 in
  return
    {
      Gen.default_spec with
      Gen.seed;
      name = Printf.sprintf "gradedq%d" seed;
      n_switch;
      iters = 8;
    }

let graded_causes_qcheck =
  QCheck2.Test.make ~count:10
    ~name:"report: injected bound failures surface as their cause"
    ~print:(fun spec -> Printf.sprintf "seed=%d" spec.Gen.seed)
    graded_spec_gen
    (fun spec ->
      let bin, _ = Icfg_codegen.Compile.compile Arch.X86_64 (Gen.build spec) in
      let base = attr_of ~fm:Failure_model.ours bin in
      let resolved = A.count base A.Jt_resolved_exact in
      resolved = 0
      ||
      let over_fm =
        {
          (Failure_model.with_bounds Failure_model.ours
             (Failure_model.Bound_over 8))
          with
          Failure_model.extend_to_known_data = false;
        }
      in
      let under_fm =
        Failure_model.with_bounds Failure_model.ours
          (Failure_model.Bound_under 2)
      in
      A.count (attr_of ~fm:over_fm bin) A.Jt_bound_over > 0
      && A.count (attr_of ~fm:under_fm bin) A.Jt_bound_under > 0)

(* ------------------------------------------------------------------ *)
(* 4. The bench regression gate                                        *)
(* ------------------------------------------------------------------ *)

(* A minimal icfg-bench-micro/1 document builder. *)
let counters_json counters =
  String.concat ", "
    (List.map (fun (k, v) -> Printf.sprintf "\"%s\": %d" k v) counters)

let doc ?(cores = 1) ?(micro = []) ?(stages = []) ?(cache = []) ?(corpus = [])
    () =
  let micro_json =
    String.concat ", "
      (List.map
         (fun (name, ns) ->
           Printf.sprintf "{\"name\": \"%s\", \"ns_per_run\": %.1f}" name ns)
         micro)
  in
  let stages_json =
    String.concat ", "
      (List.map
         (fun (stage, ns, counters) ->
           Printf.sprintf
             "{\"stage\": \"%s\", \"spans\": 1, \"ns\": %d, \"counters\": \
              {%s}}"
             stage ns (counters_json counters))
         stages)
  in
  let cache_json =
    String.concat ", "
      (List.map
         (fun (name, ns, counters) ->
           Printf.sprintf
             "{\"name\": \"%s\", \"ns_per_run\": %.1f, \"counters\": {%s}}"
             name ns (counters_json counters))
         cache)
  in
  let corpus_json =
    String.concat ", "
      (List.map
         (fun (approach, cells, pass, p50, p95, refusals) ->
           Printf.sprintf
             "{\"approach\": \"%s\", \"cells\": %d, \"pass_rate_pct\": %.1f, \
              \"p50_ns\": %.1f, \"p95_ns\": %.1f, \"refusals\": {%s}}"
             approach cells pass p50 p95 (counters_json refusals))
         corpus)
  in
  Printf.sprintf
    "{\"schema\": \"icfg-bench-micro/1\", \"cores\": %d, \"micro\": [%s], \
     \"stages\": [%s], \"cache\": [%s], \"corpus\": [%s]}"
    cores micro_json stages_json cache_json corpus_json

let diff_ok ?gate old_s new_s =
  match Bench_diff.diff_strings ?gate old_s new_s with
  | Ok findings -> findings
  | Error e -> Alcotest.failf "diff failed: %s" e

let bench_diff_parser () =
  (match Bench_diff.parse_json "{\"a\": [1, -2.5e3, \"x\\n\\\"y\", null, true]}" with
  | Ok
      (Bench_diff.Obj
        [
          ( "a",
            Bench_diff.List
              [
                Bench_diff.Num 1.;
                Bench_diff.Num -2500.;
                Bench_diff.Str "x\n\"y";
                Bench_diff.Null;
                Bench_diff.Bool true;
              ] );
        ]) ->
      ()
  | Ok _ -> Alcotest.fail "parsed to the wrong value"
  | Error e -> Alcotest.failf "parse failed: %s" e);
  (match Bench_diff.parse_json "{\"a\": 1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted truncated JSON");
  match Bench_diff.diff_strings "{}" "{}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "accepted a non-bench-micro document"

let bench_diff_self () =
  let d =
    doc
      ~micro:[ ("parse", 100.) ]
      ~stages:[ ("rewrite", 500, [ ("rewrite/trampolines:trap", 3) ]) ]
      ()
  in
  Alcotest.(check int) "self-diff is clean" 0
    (List.length (diff_ok ~gate:10. d d))

let bench_diff_counters () =
  let mk trap blocks =
    doc
      ~stages:
        [
          ( "rewrite",
            500,
            [ ("rewrite/blocks", blocks); ("rewrite/trampolines:trap", trap) ]
          );
        ]
      ()
  in
  (* Worse-is-higher counter increase gates... *)
  let f = diff_ok (mk 3 100) (mk 4 100) in
  Alcotest.(check bool) "trap counter increase is a regression" true
    (Bench_diff.has_regression f);
  (* ...its decrease and any neutral-counter movement do not. *)
  Alcotest.(check bool) "trap counter decrease is informational" false
    (Bench_diff.has_regression (diff_ok (mk 4 100) (mk 3 100)));
  let f = diff_ok (mk 3 100) (mk 3 150) in
  Alcotest.(check bool) "neutral counter change reported" true (f <> []);
  Alcotest.(check bool) "neutral counter change not a regression" false
    (Bench_diff.has_regression f)

let bench_diff_times () =
  let mk ?cores ns = doc ?cores ~micro:[ ("parse", ns) ] () in
  Alcotest.(check bool) "time growth beyond the gate is a regression" true
    (Bench_diff.has_regression (diff_ok ~gate:50. (mk 100_000.) (mk 200_000.)));
  Alcotest.(check bool) "time growth within the gate passes" false
    (Bench_diff.has_regression (diff_ok ~gate:50. (mk 100_000.) (mk 120_000.)));
  Alcotest.(check bool) "sub-noise-floor growth never gates" false
    (Bench_diff.has_regression (diff_ok ~gate:50. (mk 60.) (mk 141.)));
  Alcotest.(check bool) "no gate: times never gate" false
    (Bench_diff.has_regression (diff_ok (mk 100_000.) (mk 10_000_000.)));
  Alcotest.(check bool) "different core counts: times never gate" false
    (Bench_diff.has_regression
       (diff_ok ~gate:50. (mk ~cores:1 100_000.) (mk ~cores:8 10_000_000.)))

let bench_diff_rows () =
  let with_rows stages = doc ~stages () in
  let both = with_rows [ ("rewrite", 500, []); ("rewrite/relocate", 20, []) ] in
  Alcotest.(check bool) "lost row is a regression" true
    (Bench_diff.has_regression
       (diff_ok both (with_rows [ ("rewrite/relocate", 20, []) ])));
  Alcotest.(check bool) "new row is informational" false
    (Bench_diff.has_regression
       (diff_ok
          (with_rows [ ("rewrite", 500, []) ])
          (with_rows [ ("rewrite", 500, []); ("emit", 9, []) ])))

(* The added-row policy: anything only the NEW run knows about is reported
   with the distinct [Added] severity and never gates — landing new bench
   rows (the cache cold/warm rows) must not trip the gate against an older
   baseline. *)
let bench_diff_added () =
  let added fs =
    List.filter (fun f -> f.Bench_diff.f_severity = Bench_diff.Added) fs
  in
  (* New micro row -> one Added finding, no regression. *)
  let f =
    diff_ok ~gate:50.
      (doc ~micro:[ ("parse", 100_000.) ] ())
      (doc ~micro:[ ("parse", 100_000.); ("cache-cold", 900_000.) ] ())
  in
  Alcotest.(check int) "new row is Added" 1 (List.length (added f));
  Alcotest.(check bool) "new row never gates" false (Bench_diff.has_regression f);
  (* New counter on an existing row -> Added, no regression — even for a
     worse-is-higher counter name, since there is nothing to compare. *)
  let f =
    diff_ok ~gate:50.
      (doc ~stages:[ ("rewrite", 500, []) ] ())
      (doc
         ~stages:
           [ ("rewrite", 500, [ ("cache.evict_corrupt", 2 ) ]) ]
         ())
  in
  Alcotest.(check int) "new counter is Added" 1 (List.length (added f));
  Alcotest.(check bool) "new counter never gates" false
    (Bench_diff.has_regression f);
  (* A whole new section in NEW (old run predates the cache rows) is all
     Added findings. *)
  let f =
    diff_ok ~gate:50. (doc ())
      (doc ~cache:[ ("cache-warm-identical", 100_000., [ ("hits", 9) ]) ] ())
  in
  Alcotest.(check bool) "new cache section never gates" false
    (Bench_diff.has_regression f);
  Alcotest.(check bool) "new cache section is reported" true (added f <> []);
  (* The render groups Added findings under their own heading. *)
  let has_sub sub s =
    let ls = String.length s and lb = String.length sub in
    let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "render has an added section" true
    (has_sub "added" (Bench_diff.render f))

(* The cache section itself: time rows gate like micro rows, counters are
   exact, and only [evict_corrupt] growth is a regression. *)
let bench_diff_cache_section () =
  let mk ?(ns = 100_000.) counters = doc ~cache:[ ("cache-warm", ns, counters) ] () in
  Alcotest.(check int) "identical cache rows diff clean" 0
    (List.length (diff_ok ~gate:50. (mk [ ("hits", 9) ]) (mk [ ("hits", 9) ])));
  Alcotest.(check bool) "cache time growth beyond the gate is a regression" true
    (Bench_diff.has_regression
       (diff_ok ~gate:50. (mk []) (mk ~ns:200_000. [])));
  Alcotest.(check bool) "evict_corrupt increase is a regression" true
    (Bench_diff.has_regression
       (diff_ok
          (mk [ ("evict_corrupt", 0) ])
          (mk [ ("evict_corrupt", 1) ])));
  let f = diff_ok (mk [ ("hits", 9) ]) (mk [ ("hits", 3) ]) in
  Alcotest.(check bool) "hit-count movement is reported" true (f <> []);
  Alcotest.(check bool) "hit-count movement never gates" false
    (Bench_diff.has_regression f);
  Alcotest.(check bool) "lost cache row is a regression" true
    (Bench_diff.has_regression (diff_ok (mk []) (doc ())))

(* The warm-path gate ([check_cache]): the perturbed/identical ratio must
   stay under the limit, the data-edit row must report zero misses on
   every text-stage counter (absent keys are the passing zero — the
   tracer only emits nonzero counters), and malformed documents fail
   loudly rather than passing silently. *)
let bench_check_cache () =
  let mk ?(ratio = 1.02) ?(data = Some [ ("miss:parse/finalize", 18) ]) () =
    let rows =
      [
        ("cache-warm-identical", 1_000_000., [ ("hits", 130) ]);
        ("cache-warm-perturbed", 1_000_000. *. ratio, [ ("miss:encode", 1) ]);
      ]
      @
      match data with
      | Some counters -> [ ("cache-warm-data-edit", 3_000_000., counters) ]
      | None -> []
    in
    doc ~cache:rows ()
  in
  let check ?max_ratio s =
    match Bench_diff.check_cache_string ?max_ratio s with
    | Ok f -> f
    | Error e -> Alcotest.failf "check_cache failed: %s" e
  in
  let f = check (mk ()) in
  Alcotest.(check bool) "healthy doc passes" false (Bench_diff.has_regression f);
  Alcotest.(check bool) "passing ratio is reported as Info" true
    (List.exists
       (fun x ->
         x.Bench_diff.f_severity = Bench_diff.Info
         && x.Bench_diff.f_metric = "cache:warm-perturbed-ratio")
       f);
  Alcotest.(check bool) "no data-edit misses at all also passes" false
    (Bench_diff.has_regression (check (mk ~data:(Some []) ())));
  Alcotest.(check bool) "ratio over the default limit gates" true
    (Bench_diff.has_regression (check (mk ~ratio:1.5 ())));
  Alcotest.(check bool) "tighter --max-ratio gates" true
    (Bench_diff.has_regression (check ~max_ratio:1.01 (mk ())));
  Alcotest.(check bool) "text-stage miss on a data edit gates" true
    (Bench_diff.has_regression
       (check (mk ~data:(Some [ ("miss:encode", 2) ]) ())));
  Alcotest.(check bool) "missing data-edit row gates" true
    (Bench_diff.has_regression (check (mk ~data:None ())));
  Alcotest.(check bool) "missing warm rows gate" true
    (Bench_diff.has_regression (check (doc ())));
  match Bench_diff.check_cache_string "{\"schema\": \"nope\"}" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "foreign schema must be an error"

(* The corpus section: deterministic pass rates gate unconditionally on a
   drop (no --gate, no noise floor), rises and refusal-count movement are
   informational, new refusal keys are Added, incomparable sweeps (cells
   differ) never gate, and row loss gates like everywhere else. *)
let bench_diff_corpus_section () =
  let row ?(cells = 48) ?(p50 = 1_000_000.) ?(refusals = []) pass =
    ("ours/jt", cells, pass, p50, 10. *. p50, refusals)
  in
  let mk ?cells ?p50 ?refusals pass =
    doc ~corpus:[ row ?cells ?p50 ?refusals pass ] ()
  in
  Alcotest.(check int) "identical corpus rows diff clean" 0
    (List.length (diff_ok ~gate:50. (mk 100.) (mk 100.)));
  Alcotest.(check bool) "pass-rate drop gates even without --gate" true
    (Bench_diff.has_regression (diff_ok (mk 100.) (mk 97.9)));
  let f = diff_ok (mk 95.8) (mk 100.) in
  Alcotest.(check bool) "pass-rate rise is reported" true (f <> []);
  Alcotest.(check bool) "pass-rate rise never gates" false
    (Bench_diff.has_regression f);
  let f = diff_ok (mk ~cells:48 100.) (mk ~cells:96 97.9) in
  Alcotest.(check bool) "incomparable corpus sizes never gate" false
    (Bench_diff.has_regression f);
  Alcotest.(check bool) "incomparable corpus sizes are reported" true (f <> []);
  (* Refusal histograms: movement is Info, a new key is Added, neither
     gates. *)
  let f =
    diff_ok
      (mk ~refusals:[ ("tramp/trap", 3) ] 90.)
      (mk ~refusals:[ ("tramp/trap", 5) ] 90.)
  in
  Alcotest.(check bool) "refusal-count movement is reported" true (f <> []);
  Alcotest.(check bool) "refusal-count movement never gates" false
    (Bench_diff.has_regression f);
  let f =
    diff_ok
      (mk ~refusals:[ ("tramp/trap", 3) ] 90.)
      (mk ~refusals:[ ("tramp/trap", 3); ("feature/non-pie", 1) ] 90.)
  in
  Alcotest.(check bool) "new refusal key is Added" true
    (List.exists (fun x -> x.Bench_diff.f_severity = Bench_diff.Added) f);
  Alcotest.(check bool) "new refusal key never gates" false
    (Bench_diff.has_regression f);
  (* Times on corpus rows follow the normal time policy. *)
  Alcotest.(check bool) "corpus p50 growth gates under --gate" true
    (Bench_diff.has_regression
       (diff_ok ~gate:50. (mk ~p50:1_000_000. 100.) (mk ~p50:2_000_000. 100.)));
  Alcotest.(check bool) "corpus p50 growth without --gate never gates" false
    (Bench_diff.has_regression
       (diff_ok (mk ~p50:1_000_000. 100.) (mk ~p50:2_000_000. 100.)));
  (* Rows: loss gates, a corpus section the OLD baseline predates is all
     Added and passes. *)
  Alcotest.(check bool) "lost corpus row is a regression" true
    (Bench_diff.has_regression (diff_ok (mk 100.) (doc ())));
  let f = diff_ok ~gate:50. (doc ()) (mk 100.) in
  Alcotest.(check bool) "new corpus section never gates" false
    (Bench_diff.has_regression f);
  Alcotest.(check bool) "new corpus section is reported as Added" true
    (List.exists (fun x -> x.Bench_diff.f_severity = Bench_diff.Added) f)

(* The real harness output must parse and self-diff clean — guards the
   bench/main.ml writer and this parser against drifting apart. The
   within-run serve gates report their passing ratios as [Info] lines
   even when OLD = NEW, so "clean" means no findings above [Info]. *)
let bench_diff_real_baseline () =
  let path = "bench/baseline/BENCH_micro.json" in
  if Sys.file_exists path then (
    let findings =
      match Bench_diff.diff_files ~gate:50. path path with
      | Ok f -> f
      | Error e -> Alcotest.failf "baseline self-diff failed: %s" e
    in
    let gating =
      List.filter (fun x -> x.Bench_diff.f_severity <> Bench_diff.Info) findings
    in
    Alcotest.(check int) "committed baseline self-diffs clean" 0
      (List.length gating);
    (* The three serve gates must actually have run against this
       baseline — a silent skip (missing rows) would void the claim. *)
    let has name =
      List.exists (fun x -> x.Bench_diff.f_metric = name) findings
    in
    Alcotest.(check bool) "replay speedup gate ran" true
      (has "serve:replay:speedup");
    Alcotest.(check bool) "patch wire gate ran" true
      (has "serve:patch:wire-bytes"))

(* ------------------------------------------------------------------ *)
(* 5. Failure-path observability                                       *)
(* ------------------------------------------------------------------ *)

let contains ~sub s =
  let ls = String.length s and lb = String.length sub in
  let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
  go 0

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let trace_file_on_raise () =
  let path = Filename.temp_file "icfg-test-trace" ".json" in
  Sys.remove path;
  (try
     Trace.with_file path (fun () ->
         Trace.span "doomed" (fun () -> failwith "boom"))
   with Failure _ -> ());
  Alcotest.(check bool) "trace file written despite the raise" true
    (Sys.file_exists path);
  let json = read_file path in
  Sys.remove path;
  Alcotest.(check bool) "trace json valid schema" true
    (contains ~sub:"\"icfg-trace/1\"" json);
  Alcotest.(check bool) "failed span recorded" true
    (contains ~sub:"\"doomed\"" json)

let trace_file_on_success () =
  let path = Filename.temp_file "icfg-test-trace" ".json" in
  let v = Trace.with_file path (fun () -> Trace.add "n" 7; 42) in
  let json = read_file path in
  Sys.remove path;
  Alcotest.(check int) "result passthrough" 42 v;
  Alcotest.(check bool) "counter written" true (contains ~sub:"\"n\": 7" json)

let verify_failure_has_trace () =
  (* An under-approximated bound makes the strong test fail; the report
     must still carry a populated trace (what `icfg verify --trace` saves
     before exiting non-zero). *)
  let bin, _ = Icfg_codegen.Compile.compile Arch.X86_64 (Gen.build graded_spec) in
  let fm =
    Failure_model.with_bounds Failure_model.ours (Failure_model.Bound_under 2)
  in
  let r = Verify.strong_test ~options:(opts Mode.Dir) ~fm bin in
  Alcotest.(check bool) "strong test fails" false r.Verify.ok;
  Alcotest.(check bool) "failing report still has spans" true
    (Trace.rows r.Verify.trace <> []);
  Alcotest.(check bool) "failing report still has counters" true
    (Trace.counters r.Verify.trace <> [])

(* ------------------------------------------------------------------ *)
(* 6. Report serialization                                             *)
(* ------------------------------------------------------------------ *)

let report_json () =
  let bin = first_bench Arch.X86_64 in
  let rw m = Runner.rewrite ~options:(opts m) bin in
  let dir = (rw Mode.Dir).Rewriter.rw_attribution in
  let jt = (rw Mode.Jt).Rewriter.rw_attribution in
  let json = A.to_json ~dir jt in
  List.iter
    (fun sub ->
      Alcotest.(check bool) (Printf.sprintf "json has %s" sub) true
        (contains ~sub json))
    [
      "\"icfg-report/1\"";
      "\"mode\": \"jt\"";
      "\"histogram\"";
      "\"delta_vs_dir\"";
      Printf.sprintf "\"cfl_blocks\": %d," (A.cfl_total jt);
    ];
  (* The report is valid JSON by the gate's own parser. *)
  (match Bench_diff.parse_json json with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "report JSON does not parse: %s" e);
  Alcotest.(check bool) "dir report omits the delta" false
    (contains ~sub:"delta_vs_dir" (A.to_json ~dir dir));
  (* The harness experiment renders and includes the monotonicity verdict. *)
  let attr_exp = Icfg_harness.Experiments.attribution () in
  Alcotest.(check bool) "experiment reports monotonicity OK" true
    (contains ~sub:"monotonicity dir -> jt -> func-ptr: OK" attr_exp)

let suite =
  [
    ( "report",
      [
        Alcotest.test_case "attribution tiles stats" `Quick reconciliation;
        Alcotest.test_case "attribution tiles stats (srbi-like)" `Quick
          reconciliation_srbi_like;
        Alcotest.test_case "attribution schedule-independent" `Quick
          attribution_schedule_independent;
        Alcotest.test_case "attribution mode monotonicity" `Quick mode_monotone;
        Alcotest.test_case "graded causes: bounds" `Quick graded_causes;
        Alcotest.test_case "graded causes: spill" `Quick graded_spill;
        Alcotest.test_case "bench diff: parser" `Quick bench_diff_parser;
        Alcotest.test_case "bench diff: self" `Quick bench_diff_self;
        Alcotest.test_case "bench diff: counters" `Quick bench_diff_counters;
        Alcotest.test_case "bench diff: times" `Quick bench_diff_times;
        Alcotest.test_case "bench diff: rows" `Quick bench_diff_rows;
        Alcotest.test_case "bench diff: added policy" `Quick bench_diff_added;
        Alcotest.test_case "bench diff: cache section" `Quick
          bench_diff_cache_section;
        Alcotest.test_case "bench diff: warm-path gate" `Quick
          bench_check_cache;
        Alcotest.test_case "bench diff: corpus section" `Quick
          bench_diff_corpus_section;
        Alcotest.test_case "bench diff: committed baseline" `Quick
          bench_diff_real_baseline;
        Alcotest.test_case "trace file on raise" `Quick trace_file_on_raise;
        Alcotest.test_case "trace file on success" `Quick trace_file_on_success;
        Alcotest.test_case "verify failure keeps trace" `Quick
          verify_failure_has_trace;
        Alcotest.test_case "report json" `Quick report_json;
        QCheck_alcotest.to_alcotest graded_causes_qcheck;
      ] );
  ]
