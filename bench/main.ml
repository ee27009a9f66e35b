(* The benchmark harness: regenerates every table and figure of the paper
   (Tables 1-3, Figures 1-2, the Firefox/Docker/BOLT experiments, and the
   Diogenes case study), then runs one bechamel micro-benchmark per
   table/figure measuring the corresponding pipeline stage.

   Usage:
     bench/main.exe                 -- everything
     bench/main.exe table3 bolt ... -- selected experiments
     bench/main.exe micro           -- only the bechamel micro-benchmarks
     bench/main.exe micro --json BENCH_micro.json
                                    -- also write machine-readable results
                                       (CI uploads this per PR, so the
                                       per-stage trajectory accumulates
                                       across the history)
     bench/main.exe micro --json BENCH_micro.json --trace BENCH_trace.json
                                    -- additionally dump the full span tree
                                       of the traced pipeline run
     bench/main.exe micro --cache-json BENCH_cache.json
                                    -- also write the incremental-cache
                                       cold/warm rows as a standalone
                                       document (CI uploads this artifact)
     bench/main.exe corpus [--seed N] [--count N] [--json FILE]
                                    -- the corpus-scale robustness matrix:
                                       every baseline and every mode swept
                                       over a seeded adversarial corpus
                                       (default 300 binaries), pass rates
                                       and refusal histograms into the
                                       "corpus" section of the JSON
     bench/main.exe diff OLD.json NEW.json [--gate pct]
                                    -- regression gate between two --json
                                       runs; non-zero exit on regression
                                       (deterministic pass-rate drops gate
                                       even without --gate)
     bench/main.exe check-cache FILE [--max-ratio r]
                                    -- warm-path gate over one run's cache
                                       rows: warm-perturbed must stay
                                       within r (default 1.3) of
                                       warm-identical, and the data-edit
                                       row must show zero text-stage
                                       misses; non-zero exit on failure
     bench/main.exe serve-check [--seed N] [--count N] [--clients N]
                                    -- daemon equivalence gate: stream the
                                       corpus slice through a live icfg
                                       serve instance and compare every
                                       per-approach classification row
                                       against the in-process sweep;
                                       non-zero exit on any mismatch *)

open Icfg_isa
module Experiments = Icfg_harness.Experiments

let experiments =
  [
    ("table1", Experiments.table1);
    ("figure1", Experiments.figure1);
    ("figure2", Experiments.figure2);
    ("table2", Experiments.table2);
    ("table3", fun () -> Experiments.table3 ());
    ("table3-detail", fun () -> Experiments.table3_detail ());
    ("firefox", Experiments.firefox);
    ("docker", Experiments.docker);
    ("bolt", Experiments.bolt);
    ("diogenes", Experiments.diogenes);
    ("ablation", Experiments.ablation);
    ("attribution", Experiments.attribution);
  ]

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks: one per table/figure                     *)
(* ------------------------------------------------------------------ *)

let micro_tests () =
  let open Bechamel in
  let arch = Arch.X86_64 in
  let bench = List.hd (Icfg_workloads.Spec_suite.benchmarks arch) in
  let bin, _ = Icfg_workloads.Spec_suite.compile arch bench in
  let parse = Icfg_analysis.Parse.parse bin in
  let rw = Icfg_core.Rewriter.rewrite parse in
  let classify =
    Option.get (Icfg_analysis.Parse.func parse "switch0")
  in
  let fm = Icfg_analysis.Failure_model.ours in
  let known =
    Icfg_analysis.Jump_table.known_data bin []
  in
  let ra_map = rw.Icfg_core.Rewriter.rw_ra_map in
  let probe_pc =
    match Icfg_runtime.Runtime_lib.Ra_map.pairs ra_map with
    | (k, _) :: _ -> k + 3
    | [] -> 0
  in
  [
    (* Table 1 is qualitative; measure the capability-table rendering. *)
    Test.make ~name:"table1/render-capabilities"
      (Staged.stage (fun () -> Sys.opaque_identity (Experiments.table1 ())));
    (* Figure 1: whole-binary rewrite throughput. *)
    Test.make ~name:"figure1/rewrite-binary"
      (Staged.stage (fun () ->
           Sys.opaque_identity (Icfg_core.Rewriter.rewrite parse)));
    (* Figure 2: jump-table slicing and finalization. *)
    Test.make ~name:"figure2/jump-table-analysis"
      (Staged.stage (fun () ->
           Sys.opaque_identity
             (Icfg_analysis.Jump_table.analyze bin fm ~known_data:known
                classify.Icfg_analysis.Parse.fa_cfg)));
    (* Table 2: trampoline selection and emission. *)
    Test.make ~name:"table2/trampoline-emit"
      (Staged.stage (fun () ->
           Sys.opaque_identity
             (Trampoline.emit arch ~at:0x400100 ~target:0x500000 ~toc:0
                (Trampoline.Long None))));
    (* Table 3: whole-binary parse (CFG + analyses). *)
    Test.make ~name:"table3/parse-binary"
      (Staged.stage (fun () ->
           Sys.opaque_identity (Icfg_analysis.Parse.parse bin)));
    (* Firefox: RA-translation lookup (the per-unwind-step cost). *)
    Test.make ~name:"firefox/ra-translate"
      (Staged.stage (fun () ->
           Sys.opaque_identity
             (Icfg_runtime.Runtime_lib.Ra_map.translate ra_map probe_pc)));
    (* Docker: compile the Go analogue. *)
    Test.make ~name:"docker/compile-go-binary"
      (Staged.stage (fun () ->
           Sys.opaque_identity (Icfg_workloads.Apps.docker arch)));
    (* BOLT: block-reversed relocation. *)
    Test.make ~name:"bolt/reverse-blocks-rewrite"
      (Staged.stage (fun () ->
           Sys.opaque_identity
             (Icfg_core.Rewriter.rewrite
                ~options:
                  {
                    Icfg_core.Rewriter.default_options with
                    Icfg_core.Rewriter.order = `Reverse_blocks;
                  }
                parse)));
    (* Diogenes: partial instrumentation of the driver analogue. *)
    Test.make ~name:"diogenes/partial-rewrite"
      (Staged.stage (fun () ->
           let bin, _ = Icfg_workloads.Apps.libcuda arch in
           let only = Icfg_workloads.Apps.libcuda_api_subset bin in
           Sys.opaque_identity
             (Icfg_baselines.Baseline.ours_partial ~mode:Icfg_core.Mode.Jt
                ~only bin)));
  ]

(* ------------------------------------------------------------------ *)
(* Machine-readable results (BENCH_micro.json)                         *)
(* ------------------------------------------------------------------ *)

(* Accumulated rows: bechamel estimates and per-stage rows flattened out
   of a Trace of the full pipeline. Written as JSON by hand — no JSON
   dependency. *)
let micro_rows : (string * float) list ref = ref []

(* (span path, spans merged, summed ns, counter totals) from the traced
   rewrite. The whole-run counter bag rides along on every row so
   `bench diff` can gate counters without a second file. *)
let stage_rows : (string * int * int * (string * int) list) list ref = ref []

(* (name, ns_per_run, cache counters of a representative run) for the
   cold/warm incremental-cache rewrites. *)
let cache_rows : (string * float * (string * int) list) list ref = ref []

(* (name, ns_per_request, counter bag) for the daemon throughput streams. *)
let serve_rows : (string * float * (string * int) list) list ref = ref []

(* (name, deterministic counters, ns times) distilled from each serve
   stream's telemetry snapshot. The counters bag holds only values that
   are deterministic functions of the served stream — request/outcome
   totals, per-approach latency histogram observation counts, eviction
   counters — never the cache hit/miss split (interleaving-dependent) or
   stage.* span counts (span shapes vary with hits). The times bag holds
   machine-varying ns sums, gated under the usual time policy. *)
let metrics_rows : (string * (string * int) list * (string * int) list) list ref
    =
  ref []

(* The corpus robustness matrix, when the "corpus" experiment ran. *)
let corpus_result : Icfg_harness.Matrix.t option ref = ref None

(* Full trace tree of the last traced rewrite, for --trace FILE. *)
let trace_json : string option ref = ref None

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_float f = if Float.is_nan f then "null" else Printf.sprintf "%.1f" f

let counters_json counters =
  String.concat ", "
    (List.map
       (fun (name, v) -> Printf.sprintf "\"%s\": %d" (json_escape name) v)
       counters)

let write_cache_rows oc =
  List.iteri
    (fun i (name, ns, counters) ->
      Printf.fprintf oc
        "    {\"name\": \"%s\", \"ns_per_run\": %s, \"counters\": {%s}}%s\n"
        (json_escape name) (json_float ns) (counters_json counters)
        (if i = List.length !cache_rows - 1 then "" else ","))
    !cache_rows

let write_json path =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"schema\": \"icfg-bench-micro/1\",\n";
  out "  \"cores\": %d,\n" (Domain.recommended_domain_count ());
  out "  \"micro\": [\n";
  List.iteri
    (fun i (name, ns) ->
      out "    {\"name\": \"%s\", \"ns_per_run\": %s}%s\n" (json_escape name)
        (json_float ns)
        (if i = List.length !micro_rows - 1 then "" else ","))
    !micro_rows;
  out "  ],\n";
  out "  \"stages\": [\n";
  List.iteri
    (fun i (path, count, ns, counters) ->
      out
        "    {\"stage\": \"%s\", \"spans\": %d, \"ns\": %d, \"counters\": \
         {%s}}%s\n"
        (json_escape path) count ns (counters_json counters)
        (if i = List.length !stage_rows - 1 then "" else ","))
    !stage_rows;
  out "  ],\n";
  out "  \"cache\": [\n";
  write_cache_rows oc;
  out "  ],\n";
  out "  \"serve\": [\n";
  List.iteri
    (fun i (name, ns, counters) ->
      out
        "    {\"name\": \"%s\", \"ns_per_request\": %s, \"counters\": {%s}}%s\n"
        (json_escape name) (json_float ns) (counters_json counters)
        (if i = List.length !serve_rows - 1 then "" else ","))
    !serve_rows;
  out "  ],\n";
  out "  \"metrics\": [\n";
  List.iteri
    (fun i (name, counters, times) ->
      out "    {\"name\": \"%s\", \"counters\": {%s}, \"times\": {%s}}%s\n"
        (json_escape name) (counters_json counters) (counters_json times)
        (if i = List.length !metrics_rows - 1 then "" else ","))
    !metrics_rows;
  out "  ],\n";
  (match !corpus_result with
  | Some m ->
      let module Matrix = Icfg_harness.Matrix in
      let module Cache = Icfg_core.Cache in
      out "  \"corpus_seed\": %d,\n" m.Matrix.m_seed;
      out "  \"corpus_count\": %d,\n" m.Matrix.m_count;
      out
        "  \"corpus_cache\": {\"hits\": %d, \"misses\": %d, \"stores\": %d, \
         \"hit_rate_pct\": %s},\n"
        m.Matrix.m_cache.Cache.c_hits m.Matrix.m_cache.Cache.c_misses
        m.Matrix.m_cache.Cache.c_stores
        (json_float (100. *. m.Matrix.m_hit_rate));
      out "  \"corpus\": [\n";
      let rows = m.Matrix.m_rows in
      List.iteri
        (fun i (r : Matrix.row) ->
          let refusals =
            String.concat ", "
              (List.map
                 (fun (k, n) -> Printf.sprintf "\"%s\": %d" (json_escape k) n)
                 r.Matrix.row_refusals)
          in
          out
            "    {\"approach\": \"%s\", \"cells\": %d, \"verified\": %d, \
             \"diverged\": %d, \"refused\": %d, \"crashed\": %d, \
             \"pass_rate_pct\": %s, \"p50_ns\": %s, \"p95_ns\": %s, \
             \"refusals\": {%s}}%s\n"
            (json_escape r.Matrix.row_approach)
            r.Matrix.row_cells r.Matrix.row_verified r.Matrix.row_diverged
            r.Matrix.row_refused r.Matrix.row_crashed
            (json_float (Matrix.pass_rate_pct r))
            (json_float r.Matrix.row_p50_ns)
            (json_float r.Matrix.row_p95_ns)
            refusals
            (if i = List.length rows - 1 then "" else ","))
        rows;
      out "  ]\n"
  | None -> out "  \"corpus\": []\n");
  out "}\n";
  close_out oc;
  Printf.printf "wrote %s\n%!" path

(* Standalone cache-only document (schema icfg-bench-cache/1) for the CI
   artifact: the same rows as the "cache" section of BENCH_micro.json,
   without dragging the whole micro suite along. *)
let write_cache_json path =
  let oc = open_out path in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n";
  out "  \"schema\": \"icfg-bench-cache/1\",\n";
  out "  \"cores\": %d,\n" (Domain.recommended_domain_count ());
  out "  \"cache\": [\n";
  write_cache_rows oc;
  out "  ]\n";
  out "}\n";
  close_out oc;
  Printf.printf "wrote %s\n%!" path

(* ------------------------------------------------------------------ *)
(* Per-stage pipeline trace                                            *)
(* ------------------------------------------------------------------ *)

let largest_spec_binary arch =
  List.fold_left
    (fun best bench ->
      let bin, _ = Icfg_workloads.Spec_suite.compile arch bench in
      match best with
      | Some b when Icfg_obj.Binary.loaded_size b >= Icfg_obj.Binary.loaded_size bin
        -> best
      | _ -> Some bin)
    None
    (Icfg_workloads.Spec_suite.benchmarks arch)
  |> Option.get

(* Per-stage wall-time rows sourced from Trace: one traced parse+rewrite,
   flattened into slash-joined span paths — layout/replay/hop timings come
   straight out of the instrumented pipeline rather than ad-hoc
   stopwatches. *)
let run_trace_stages () =
  print_endline "== Per-stage pipeline trace (largest spec binary) ==";
  let arch = Arch.X86_64 in
  let bin = largest_spec_binary arch in
  let t = Icfg_core.Trace.create () in
  Icfg_core.Trace.with_current t (fun () ->
      ignore (Sys.opaque_identity (Icfg_harness.Runner.rewrite bin)));
  let counters = Icfg_core.Trace.counters t in
  List.iter
    (fun (r : Icfg_core.Trace.row) ->
      stage_rows := !stage_rows @ [ (r.r_path, r.r_count, r.r_ns, counters) ];
      Printf.printf "  %-28s %12d ns\n%!" r.r_path r.r_ns)
    (Icfg_core.Trace.rows t);
  trace_json := Some (Icfg_core.Trace.to_json t)

(* Cold-vs-warm incremental cache rows: a full rewrite populating a fresh
   cache, an identical re-rewrite against a warm cache (the headline: only
   layout + emit remain), and a re-rewrite after perturbing one function's
   bytes (exactly that function's entries miss). Each row also records the
   cache counters of one representative run, and every cached output is
   checked byte-identical against the uncached rewrite. *)
let run_cache_micro () =
  print_endline "== Incremental cache: cold vs warm rewrites (largest spec binary) ==";
  let module Cache = Icfg_core.Cache in
  let module Runner = Icfg_harness.Runner in
  let arch = Arch.X86_64 in
  let bin = largest_spec_binary arch in
  let rewrite ?cache b = Runner.rewrite ?cache b in
  let fingerprint (rw : Icfg_core.Rewriter.t) =
    Digest.to_hex (Digest.string (Marshal.to_string rw.Icfg_core.Rewriter.rw_binary []))
  in
  let counters_of c =
    let s = Cache.stats c in
    [
      ("hits", s.Cache.c_hits);
      ("misses", s.Cache.c_misses);
      ("stores", s.Cache.c_stores);
      ("bytes_reused", s.Cache.c_bytes_reused);
      ("evict_corrupt", s.Cache.c_evict_corrupt);
      ("evict_lru", s.Cache.c_evict_lru);
    ]
  in
  (* Representative runs execute under a private trace so the row also
     records per-stage miss counters ("miss:parse/pass1", ...): the
     warm-data-edit row gates on text-stage misses staying exactly zero. *)
  let with_misses f =
    let t = Icfg_core.Trace.create () in
    let r = Icfg_core.Trace.with_current t f in
    let prefix = "cache.miss:" in
    let n = String.length prefix in
    let misses =
      List.sort compare
        (List.filter_map
           (fun (k, v) ->
             if String.length k > n && String.sub k 0 n = prefix then
               Some ("miss:" ^ String.sub k n (String.length k - n), v)
             else None)
           (Icfg_core.Trace.counters t))
    in
    (r, misses)
  in
  let row name ~reps ~counters run =
    ignore (Sys.opaque_identity (run ()));
    let t0 = Unix.gettimeofday () in
    for _ = 1 to reps do
      ignore (Sys.opaque_identity (run ()))
    done;
    let ns = (Unix.gettimeofday () -. t0) /. float_of_int reps *. 1e9 in
    cache_rows := !cache_rows @ [ (name, ns, counters) ];
    Printf.printf "  %-24s %12.0f ns/run  (%s)\n%!" name ns
      (String.concat ", "
         (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counters));
    ns
  in
  let baseline = rewrite bin in
  let base_fp = fingerprint baseline in
  (* Warm store shared by the warm rows; each representative/timed run
     replays it through a clone so per-run counters start from zero and
     stores never accumulate across reps. *)
  let warm = Cache.create () in
  ignore (Sys.opaque_identity (rewrite ~cache:warm bin));
  let check name rw =
    if fingerprint rw <> base_fp then
      Printf.printf "  WARNING: %s output differs from uncached rewrite\n%!" name
  in
  let cold_counters =
    let c = Cache.create () in
    let rw, misses = with_misses (fun () -> rewrite ~cache:c bin) in
    check "cache-cold-rewrite" rw;
    counters_of c @ misses
  in
  let cold =
    row "cache-cold-rewrite" ~reps:20 ~counters:cold_counters (fun () ->
        rewrite ~cache:(Cache.create ()) bin)
  in
  let warm_counters =
    let c = Cache.clone warm in
    let rw, misses = with_misses (fun () -> rewrite ~cache:c bin) in
    check "cache-warm-identical" rw;
    counters_of c @ misses
  in
  let warm_ns =
    row "cache-warm-identical" ~reps:20 ~counters:warm_counters (fun () ->
        rewrite ~cache:(Cache.clone warm) bin)
  in
  Printf.printf "  %-24s cold/warm speedup: %.2fx\n%!" "cache" (cold /. warm_ns);
  let p = Icfg_analysis.Parse.parse bin in
  (* A warm rewrite against an edited binary, checked byte-identical to the
     uncached rewrite of the same edit. *)
  let warm_edited name pbin =
    let edited_fp = fingerprint (rewrite pbin) in
    let counters =
      let c = Cache.clone warm in
      let rw, misses = with_misses (fun () -> rewrite ~cache:c pbin) in
      if fingerprint rw <> edited_fp then
        Printf.printf "  WARNING: %s output differs from uncached\n%!" name;
      counters_of c @ misses
    in
    row name ~reps:20 ~counters (fun () ->
        rewrite ~cache:(Cache.clone warm) pbin)
  in
  (match Runner.perturb_function p with
  | None ->
      print_endline "  (no safely perturbable function; skipping perturbed row)"
  | Some (pbin, fname) ->
      Printf.printf "  (perturbed function: %s)\n%!" fname;
      let pert_ns = warm_edited "cache-warm-perturbed" pbin in
      Printf.printf "  %-24s warm-perturbed/warm-identical: %.2fx\n%!" "cache"
        (pert_ns /. warm_ns));
  match Runner.perturb_data p with
  | None ->
      print_endline "  (no safely perturbable data byte; skipping data-edit row)"
  | Some (pbin, sname) ->
      Printf.printf "  (perturbed data section: %s)\n%!" sname;
      ignore (warm_edited "cache-warm-data-edit" pbin)

(* Daemon throughput: a twin-bearing corpus slice streamed through a live
   [icfg serve] instance as classify requests, at 1 and 4 concurrent
   clients, all sharing the daemon's one cross-request cache. Cross-
   approach parse reuse makes the cache hit across requests, which
   `bench diff` gates as hits > 0 (the twins themselves now answer from
   the response memo without re-entering the pipeline); overloaded and
   errors are deterministically zero (in-flight is bounded by the client
   count, classification never answers Error). *)
let run_serve_micro () =
  print_endline "== Rewrite-as-a-service: daemon request streams ==";
  let module Sweep = Icfg_service.Sweep in
  let module Cache = Icfg_core.Cache in
  List.iter
    (fun clients ->
      let r = Sweep.run ~seed:7 ~count:12 ~clients () in
      let name = Printf.sprintf "serve-stream-c%d" clients in
      let ns_per_request =
        r.Sweep.sw_wall_ns /. float_of_int (max 1 r.Sweep.sw_requests)
      in
      let counters =
        [
          ("requests", r.Sweep.sw_requests);
          ("overloaded", r.Sweep.sw_overloaded);
          ("errors", r.Sweep.sw_errors);
          ("hits", r.Sweep.sw_cache.Cache.c_hits);
          ("misses", r.Sweep.sw_cache.Cache.c_misses);
          ("hit_rate_pct", int_of_float (100. *. r.Sweep.sw_hit_rate));
          (* milli-rps: an integer counter that keeps the fraction a
             plain [rps] int would truncate (4.73 req/s used to round
             down to 4). *)
          ("rps_milli", int_of_float ((1000. *. r.Sweep.sw_rps) +. 0.5));
        ]
      in
      serve_rows := !serve_rows @ [ (name, ns_per_request, counters) ];
      (* Distill the daemon's telemetry snapshot into the gateable
         metrics row for this stream. *)
      let module M = Icfg_core.Metrics in
      let has_prefix p s =
        String.length s >= String.length p
        && String.sub s 0 (String.length p) = p
      in
      let snap = r.Sweep.sw_metrics in
      (* Scalar allowlist counters are emitted even when the daemon never
         touched them (absence == 0), so the document shape is stable and
         a doctored zero is still sed-able by the CI self-check.
         [sched.jobs] and the response-memo counters are only emitted at
         c1: under concurrent clients two identical requests can race
         past the memo and both schedule, so those counts are schedule-
         dependent there (benign — both runs produce identical bytes). *)
      let scalar_allowlist =
        [
          "serve.requests"; "serve.overloaded"; "serve.errors";
          "serve.needfull"; "serve.rejected";
          "cache.evict_corrupt"; "cache.evict_lru";
        ]
        @ (if clients = 1 then
             [ "sched.jobs"; "response_cache.hit"; "response_cache.miss" ]
           else [])
      in
      let det_counters =
        List.sort compare
          (List.map
             (fun k ->
               ( k,
                 match List.assoc_opt k snap.M.s_counters with
                 | Some v -> v
                 | None -> 0 ))
             scalar_allowlist
          @ List.filter
              (fun (k, _) -> has_prefix "serve.responses:" k)
              snap.M.s_counters)
      in
      let gateable k =
        has_prefix "request.latency:" k || k = "sched.queue_wait"
      in
      let hist_counts =
        List.filter_map
          (fun (k, h) ->
            if gateable k then Some (k ^ ":count", h.M.h_count) else None)
          snap.M.s_histos
      in
      let times =
        List.filter_map
          (fun (k, h) ->
            if gateable k then Some (k ^ ":sum_ns", h.M.h_sum) else None)
          snap.M.s_histos
      in
      metrics_rows :=
        !metrics_rows
        @ [
            ( Printf.sprintf "serve-metrics-c%d" clients,
              det_counters @ hist_counts,
              times );
          ];
      Printf.printf
        "  %-18s %12.0f ns/request  %7.1f req/s  (%d requests, %d \
         overloaded, %d errors, cache %d/%d = %.1f%% hits)\n%!"
        name ns_per_request r.Sweep.sw_rps r.Sweep.sw_requests
        r.Sweep.sw_overloaded r.Sweep.sw_errors r.Sweep.sw_cache.Cache.c_hits
        (r.Sweep.sw_cache.Cache.c_hits + r.Sweep.sw_cache.Cache.c_misses)
        (100. *. r.Sweep.sw_hit_rate);
      List.iter
        (fun (k, h) ->
          if has_prefix "request.latency:" k then
            Printf.printf "    %-44s %5d obs  mean %.2f ms\n%!"
              (String.sub k 16 (String.length k - 16))
              h.M.h_count
              (M.histo_mean h /. 1e6))
        snap.M.s_histos)
    [ 1; 4 ]

(* Incremental service protocol streams (DESIGN §15). Three rows:

   serve-ref-stream     the serve-stream-c1 slice shipped as 32-byte
                        [Ref] digests after a one-time registration
                        pass — the wire-cost twin of serve-stream-c1.
   serve-patch-stream   one-function edits of spec binaries shipped as
                        sparse [Patch] deltas against registered bases;
                        responses checked byte-identical against
                        in-process rewrites of the same edits. Gated:
                        wire bytes/request <= 10% of a full upload.
   serve-replay-stream  a warmed stream replayed; the replays arrive as
                        [Ref] digests (the incremental client's steady
                        state: pass 1's full uploads registered every
                        binary) and every one must answer from the
                        response memo with zero pipeline stage misses
                        and byte-identical payloads, >= 10x faster per
                        request than serve-stream-c1. Both gates live in
                        `bench diff` as within-run checks on this
                        JSON. *)
let run_serve_incremental_micro () =
  print_endline
    "== Incremental service protocol: ref / patch / replay streams ==";
  let module Sweep = Icfg_service.Sweep in
  let module Server = Icfg_service.Server in
  let module Client = Icfg_service.Client in
  let module Protocol = Icfg_service.Protocol in
  let module Store = Icfg_service.Store in
  let module Binfile = Icfg_obj.Binfile in
  let module Cache = Icfg_core.Cache in
  let module M = Icfg_core.Metrics in
  let sock tag =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "icfg-bench-%s-%d.sock" tag (Unix.getpid ()))
  in
  let milli_rps n wall_ns =
    if wall_ns > 0. then
      int_of_float ((1000. *. float_of_int n /. (wall_ns /. 1e9)) +. 0.5)
    else 0
  in
  let row name ns counters =
    serve_rows := !serve_rows @ [ (name, ns, counters) ];
    Printf.printf "  %-20s %12.0f ns/request  (%s)\n%!" name ns
      (String.concat ", "
         (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) counters))
  in
  (* --- serve-ref-stream ------------------------------------------- *)
  let r = Sweep.run ~seed:7 ~count:12 ~clients:1 ~payload_mode:Sweep.By_ref () in
  let nreq = max 1 r.Sweep.sw_requests in
  row "serve-ref-stream"
    (r.Sweep.sw_wall_ns /. float_of_int nreq)
    [
      ("requests", r.Sweep.sw_requests);
      ("overloaded", r.Sweep.sw_overloaded);
      ("errors", r.Sweep.sw_errors);
      ("needfull", r.Sweep.sw_needfull);
      ("wire_bytes_per_request", r.Sweep.sw_wire_req_bytes / nreq);
      ("full_upload_bytes_per_request", r.Sweep.sw_full_req_bytes / nreq);
      ("register_bytes", r.Sweep.sw_register_bytes);
      ("rps_milli", milli_rps r.Sweep.sw_requests r.Sweep.sw_wall_ns);
    ];
  (* --- serve-patch-stream ----------------------------------------- *)
  let approach = "ours/dir" in
  (* One deterministic single-function edit per distinct spec binary
     (the [perturb_function] contract), pre-checked in-process: the
     daemon must reproduce these exact bytes from a sparse delta. *)
  let edits =
    List.filter_map
      (fun bench ->
        let bin, _ = Icfg_workloads.Spec_suite.compile Arch.X86_64 bench in
        let p = Icfg_analysis.Parse.parse bin in
        match Icfg_harness.Runner.perturb_function p with
        | None -> None
        | Some (edited, _fname) -> (
            match Icfg_harness.Runner.drive ~approach edited with
            | Some (Icfg_baselines.Baseline.Rewritten rw) ->
                Some
                  ( Binfile.to_string bin,
                    Binfile.to_string edited,
                    Binfile.to_string rw.Icfg_core.Rewriter.rw_binary )
            | _ -> None))
      (Icfg_workloads.Spec_suite.benchmarks Arch.X86_64)
  in
  let edits = List.filteri (fun i _ -> i < 6) edits in
  let req_overhead =
    4 + String.length Protocol.magic + 1 + 4 + String.length approach + 4
  in
  let patch_wire ranges =
    req_overhead + 1 + 4 + 32 + 4 + 4
    + List.fold_left (fun a (_, s) -> a + 8 + String.length s) 0 ranges
  in
  let full_wire s = req_overhead + 1 + 4 + String.length s in
  (if edits = [] then
     print_endline "  (no perturbable spec binaries; skipping patch stream)"
   else begin
     let path = sock "patch" in
     let srv = Server.start ~path () in
     Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
     Client.with_connection path @@ fun c ->
     let register_bytes = ref 0 in
     List.iter
       (fun (base, _, _) ->
         register_bytes :=
           !register_bytes + 4 + String.length Protocol.magic + 1 + 4
           + String.length base;
         match Client.register_bytes c base with
         | Ok (Protocol.Registered _) -> ()
         | _ -> failwith "register failed")
       edits;
     let needfull = ref 0 and mismatches = ref 0 in
     let wire = ref 0 and full_bytes = ref 0 in
     let t0 = Unix.gettimeofday () in
     List.iter
       (fun (base, edited, expected) ->
         let ranges = Protocol.diff_ranges ~base edited in
         wire := !wire + patch_wire ranges;
         full_bytes := !full_bytes + full_wire edited;
         let payload =
           Protocol.Patch
             {
               base = Store.digest base;
               total_len = String.length edited;
               ranges;
             }
         in
         match Client.rewrite_payload c ~approach ~fallback:edited payload with
         | Ok (Protocol.Rewritten { bin; _ }) ->
             if bin <> expected then incr mismatches
         | Ok (Protocol.NeedFull _) -> incr needfull
         | _ -> incr mismatches)
       edits;
     let wall_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
     let n = List.length edits in
     row "serve-patch-stream"
       (wall_ns /. float_of_int (max 1 n))
       [
         ("requests", n);
         ("needfull", !needfull);
         ("mismatches", !mismatches);
         ("wire_bytes_per_request", !wire / max 1 n);
         ("full_upload_bytes_per_request", !full_bytes / max 1 n);
         ("register_bytes", !register_bytes);
         ("rps_milli", milli_rps n wall_ns);
       ]
   end);
  (* --- serve-replay-stream ---------------------------------------- *)
  let entries = Icfg_workloads.Corpus.generate ~seed:7 ~count:12 in
  let bin_strs =
    List.map
      (fun e -> Binfile.to_string (Icfg_workloads.Corpus.build e))
      entries
  in
  let approaches = List.map fst Icfg_baselines.Baseline.approaches in
  (* Digests precomputed off the clock: pass 2 measures the daemon's
     replay path, not client-side hashing. *)
  let items =
    List.concat_map
      (fun s ->
        let d = Store.digest s in
        List.map (fun a -> (a, s, d)) approaches)
      bin_strs
  in
  let path = sock "replay" in
  let srv = Server.start ~path () in
  Fun.protect ~finally:(fun () -> Server.stop srv) @@ fun () ->
  Client.with_connection path @@ fun c ->
  let raw_call payload_of (a, s, d) =
    Protocol.write_frame (Client.fd c)
      (Protocol.request_to_payload
         (Protocol.Classify
            { approach = a; reserved = 0; payload = payload_of s d }));
    match Protocol.read_frame (Client.fd c) with
    | Some p -> p
    | None -> failwith "daemon hung up"
  in
  (* Pass 1 (untimed): compute every response once through the pipeline;
     the full uploads register every binary as a side effect. *)
  let pass1 = List.map (raw_call (fun s _ -> Protocol.Full s)) items in
  let hits0 =
    Option.value ~default:0
      (M.find_counter (Server.snapshot srv) "response_cache.hit")
  in
  let pipeline_misses0 = (Cache.stats (Server.cache srv)).Cache.c_misses in
  (* Pass 2 (timed): the same requests re-sent as [Ref] digests — the
     resolved binary, and therefore the memo key, is identical, so every
     replay answers from the memo: no pipeline, no re-upload. *)
  let t0 = Unix.gettimeofday () in
  let pass2 = List.map (raw_call (fun _ d -> Protocol.Ref d)) items in
  let wall_ns = (Unix.gettimeofday () -. t0) *. 1e9 in
  let hits =
    Option.value ~default:0
      (M.find_counter (Server.snapshot srv) "response_cache.hit")
    - hits0
  in
  let pipeline_misses =
    (Cache.stats (Server.cache srv)).Cache.c_misses - pipeline_misses0
  in
  let mismatches =
    List.fold_left2
      (fun acc a b -> if String.equal a b then acc else acc + 1)
      0 pass1 pass2
  in
  let n = List.length items in
  row "serve-replay-stream"
    (wall_ns /. float_of_int (max 1 n))
    [
      ("requests", n);
      ("response_hits", hits);
      ("response_hit_rate_pct", 100 * hits / max 1 n);
      ("pipeline_misses", pipeline_misses);
      ("mismatches", mismatches);
      ("rps_milli", milli_rps n wall_ns);
    ]

let run_micro () =
  let open Bechamel in
  print_endline "== Micro-benchmarks (bechamel; one per table/figure) ==";
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.25) ~kde:None () in
  let instance = Toolkit.Instance.monotonic_clock in
  let tests = micro_tests () in
  List.iter
    (fun test ->
      List.iter
        (fun t ->
          let raw = Benchmark.run cfg [ instance ] t in
          let ols =
            Analyze.ols ~bootstrap:0 ~r_square:false
              ~predictors:[| Measure.run |]
          in
          let est = Analyze.one ols instance raw in
          let nanos =
            match Analyze.OLS.estimates est with
            | Some [ n ] -> n
            | _ -> nan
          in
          micro_rows := !micro_rows @ [ (Test.Elt.name t, nanos) ];
          Printf.printf "  %-32s %12.0f ns/run\n%!" (Test.Elt.name t) nanos)
        (Test.elements test))
    tests;
  run_trace_stages ();
  run_cache_micro ();
  run_serve_micro ();
  run_serve_incremental_micro ()

(* The corpus-scale robustness matrix: every roster baseline and every
   mode of ours swept over a seeded adversarial corpus under one shared
   cache. Classification is deterministic (seeded corpus, serial cache
   probing), so the pass-rate/refusal rows it leaves in the JSON gate
   exactly in `bench diff`. *)
let run_corpus ~seed ~count =
  let m =
    Icfg_harness.Matrix.run ~seed ~count
      ~progress:(fun i ->
        if i mod 50 = 0 && i < count then
          Printf.printf "  ...%d/%d binaries\n%!" i count)
      ()
  in
  print_string (Icfg_harness.Matrix.render m);
  corpus_result := Some m

(* The regression gate: `bench/main.exe diff OLD.json NEW.json [--gate pct]`
   compares two BENCH_micro.json runs and exits non-zero on regression (CI
   runs this against the committed baseline). *)
let run_diff args =
  let rec split_flag flag acc = function
    | f :: v :: rest when f = flag -> (Some v, List.rev_append acc rest)
    | x :: rest -> split_flag flag (x :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let gate_s, args = split_flag "--gate" [] args in
  let gate = Option.map float_of_string gate_s in
  match args with
  | [ old_path; new_path ] -> (
      match Icfg_harness.Bench_diff.diff_files ?gate old_path new_path with
      | Error e ->
          Printf.eprintf "diff: %s\n" e;
          exit 2
      | Ok findings ->
          print_string (Icfg_harness.Bench_diff.render findings);
          if Icfg_harness.Bench_diff.has_regression findings then (
            Printf.eprintf "diff: regressions found\n";
            exit 1))
  | _ ->
      Printf.eprintf "usage: bench/main.exe diff OLD.json NEW.json [--gate pct]\n";
      exit 2

(* The warm-path gate: `bench/main.exe check-cache FILE [--max-ratio r]`
   asserts the cache section of a bench JSON keeps warm-perturbed within
   the target ratio of warm-identical, and the data-only-edit row with
   zero text-stage misses (CI runs this against the refreshed artifact). *)
let run_check_cache args =
  let rec split_flag flag acc = function
    | f :: v :: rest when f = flag -> (Some v, List.rev_append acc rest)
    | x :: rest -> split_flag flag (x :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let ratio_s, args = split_flag "--max-ratio" [] args in
  let max_ratio = Option.map float_of_string ratio_s in
  match args with
  | [ path ] -> (
      match Icfg_harness.Bench_diff.check_cache_file ?max_ratio path with
      | Error e ->
          Printf.eprintf "check-cache: %s\n" e;
          exit 2
      | Ok findings ->
          print_string (Icfg_harness.Bench_diff.render findings);
          if Icfg_harness.Bench_diff.has_regression findings then (
            Printf.eprintf "check-cache: warm-path gate failed\n";
            exit 1))
  | _ ->
      Printf.eprintf "usage: bench/main.exe check-cache FILE [--max-ratio r]\n";
      exit 2

(* The serve equivalence gate: `bench/main.exe serve-check [--seed N]
   [--count N] [--clients N]` sweeps a corpus slice through a
   live daemon AND in-process, and exits non-zero unless every
   per-approach classification row matches exactly (CI runs this as the
   serve smoke step). *)
let run_serve_check args =
  let rec split_flag flag acc = function
    | f :: v :: rest when f = flag -> (Some v, List.rev_append acc rest)
    | x :: rest -> split_flag flag (x :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let int_flag flag default args =
    let s, args = split_flag flag [] args in
    (Option.fold ~none:default ~some:int_of_string s, args)
  in
  let seed, args = int_flag "--seed" 7 args in
  let count, args = int_flag "--count" 60 args in
  let clients, args = int_flag "--clients" 4 args in
  if args <> [] then (
    Printf.eprintf
      "usage: bench/main.exe serve-check [--seed N] [--count N] [--clients \
       N]\n";
    exit 2);
  let module Sweep = Icfg_service.Sweep in
  let module Cache = Icfg_core.Cache in
  Printf.printf
    "serve-check: daemon vs in-process sweep (seed %d, %d binaries, %d \
     clients)\n%!"
    seed count clients;
  let ok, report, r = Sweep.check ~seed ~count ~clients () in
  print_string report;
  Printf.printf
    "daemon: %d requests, %d overloaded, %d errors, %.1f req/s, cache %d \
     hits / %d misses (%.1f%%)\n%!"
    r.Sweep.sw_requests r.Sweep.sw_overloaded r.Sweep.sw_errors r.Sweep.sw_rps
    r.Sweep.sw_cache.Cache.c_hits r.Sweep.sw_cache.Cache.c_misses
    (100. *. r.Sweep.sw_hit_rate);
  if not ok then (
    Printf.eprintf "serve-check: daemon and in-process sweeps disagree\n";
    exit 1);
  print_endline "serve-check: classifications match exactly"

let () =
  let args = match Array.to_list Sys.argv with _ :: rest -> rest | [] -> [] in
  (match args with
  | "diff" :: rest ->
      run_diff rest;
      exit 0
  | "check-cache" :: rest ->
      run_check_cache rest;
      exit 0
  | "serve-check" :: rest ->
      run_serve_check rest;
      exit 0
  | _ -> ());
  (* Extract "--json FILE" / "--trace FILE" pairs anywhere in the argument
     list; the rest select experiments. *)
  let rec split_flag flag acc = function
    | f :: file :: rest when f = flag -> (Some file, List.rev_append acc rest)
    | x :: rest -> split_flag flag (x :: acc) rest
    | [] -> (None, List.rev acc)
  in
  let json_path, args = split_flag "--json" [] args in
  let trace_path, args = split_flag "--trace" [] args in
  let cache_json_path, args = split_flag "--cache-json" [] args in
  let int_flag flag default args =
    let s, args = split_flag flag [] args in
    (Option.fold ~none:default ~some:int_of_string s, args)
  in
  let corpus_seed, args = int_flag "--seed" 7 args in
  let corpus_count, args = int_flag "--count" 300 args in
  let selected =
    match args with
    | [] -> List.map fst experiments @ [ "micro"; "corpus" ]
    | l -> l
  in
  List.iter
    (fun name ->
      if name = "micro" then run_micro ()
      else if name = "corpus" then
        run_corpus ~seed:corpus_seed ~count:corpus_count
      else
        match List.assoc_opt name experiments with
        | Some f ->
            print_string (f ());
            print_newline ()
        | None ->
            Printf.eprintf "unknown experiment %s (have: %s, micro, corpus)\n"
              name
              (String.concat ", " (List.map fst experiments));
            exit 1)
    selected;
  Option.iter write_json json_path;
  Option.iter write_cache_json cache_json_path;
  Option.iter
    (fun path ->
      match !trace_json with
      | Some json ->
          let oc = open_out path in
          output_string oc json;
          close_out oc;
          Printf.printf "wrote %s\n%!" path
      | None ->
          Printf.eprintf "--trace: no trace recorded (run the micro suite)\n")
    trace_path
