type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

(* -------------------------------------------------------------------- *)
(* Parser                                                                *)
(* -------------------------------------------------------------------- *)

exception Bad of string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail msg = raise (Bad (Printf.sprintf "%s at offset %d" msg !pos)) in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then (
      pos := !pos + l;
      v)
    else fail (Printf.sprintf "expected %s" word)
  in
  let string_lit () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | Some 'n' ->
              Buffer.add_char b '\n';
              advance ();
              go ()
          | Some 't' ->
              Buffer.add_char b '\t';
              advance ();
              go ()
          | Some 'r' ->
              Buffer.add_char b '\r';
              advance ();
              go ()
          | Some 'u' ->
              advance ();
              if !pos + 4 > n then fail "bad \\u escape";
              let hex = String.sub s !pos 4 in
              pos := !pos + 4;
              let code =
                try int_of_string ("0x" ^ hex)
                with Failure _ -> fail "bad \\u escape"
              in
              (* Non-ASCII escapes keep a replacement byte; counter/stage
                 names are ASCII so this never loses a key. *)
              Buffer.add_char b
                (if code < 0x80 then Char.chr code else '?');
              go ()
          | Some c ->
              Buffer.add_char b c;
              advance ();
              go ()
          | None -> fail "unterminated escape")
      | Some c ->
          Buffer.add_char b c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents b
  in
  let number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while (match peek () with Some c -> is_num_char c | None -> false) do
      advance ()
    done;
    let tok = String.sub s start (!pos - start) in
    match float_of_string_opt tok with
    | Some f -> f
    | None -> fail (Printf.sprintf "bad number %S" tok)
  in
  let rec value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then (
          advance ();
          Obj [])
        else
          let rec members acc =
            skip_ws ();
            let k = string_lit () in
            skip_ws ();
            expect ':';
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                members ((k, v) :: acc)
            | Some '}' ->
                advance ();
                Obj (List.rev ((k, v) :: acc))
            | _ -> fail "expected ',' or '}'"
          in
          members []
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then (
          advance ();
          List [])
        else
          let rec elements acc =
            let v = value () in
            skip_ws ();
            match peek () with
            | Some ',' ->
                advance ();
                elements (v :: acc)
            | Some ']' ->
                advance ();
                List (List.rev (v :: acc))
            | _ -> fail "expected ',' or ']'"
          in
          elements []
    | Some '"' -> Str (string_lit ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> Num (number ())
  in
  match
    let v = value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Bad msg -> Error msg

(* -------------------------------------------------------------------- *)
(* Accessors                                                             *)
(* -------------------------------------------------------------------- *)

let member k = function Obj l -> List.assoc_opt k l | _ -> None
let as_list = function List l -> l | _ -> []
let as_num = function Num f -> Some f | _ -> None
let as_str = function Str s -> Some s | _ -> None

let str_member k j = Option.bind (member k j) as_str
let num_member k j = Option.bind (member k j) as_num

(* -------------------------------------------------------------------- *)
(* Diff                                                                  *)
(* -------------------------------------------------------------------- *)

type severity = Regression | Added | Info

type finding = { f_severity : severity; f_metric : string; f_msg : string }

let contains ~sub s =
  let ls = String.length s and lb = String.length sub in
  let rec go i = i + lb <= ls && (String.sub s i lb = sub || go (i + 1)) in
  lb = 0 || go 0

(* Counters where a higher value is unambiguously worse; everything else
   moving is reported but does not gate. *)
let counter_worse_higher name =
  List.exists
    (fun sub -> contains ~sub name)
    [ "trampolines:trap"; "/traps"; "size-growth"; "icache-misses";
      "evict_corrupt"; "overloaded"; "errors"; "needfull"; "mismatch";
      "pipeline_misses"; "rejected" ]

(* Sub-50µs one-shot spans are dominated by scheduling jitter; a relative
   gate alone flaps on them, so a time regression also needs this much
   absolute growth. *)
let time_noise_floor_ns = 50_000.

let diff ?gate old_json new_json =
  let schema j = str_member "schema" j in
  match (schema old_json, schema new_json) with
  | Some "icfg-bench-micro/1", Some "icfg-bench-micro/1" ->
      let findings = ref [] in
      let report sev metric msg =
        findings := { f_severity = sev; f_metric = metric; f_msg = msg } :: !findings
      in
      let same_cores =
        match (num_member "cores" old_json, num_member "cores" new_json) with
        | Some a, Some b -> a = b
        | _ -> false
      in
      let gate_times = gate <> None && same_cores in
      (if gate <> None && not same_cores then
         report Info "cores"
           "core counts differ between runs; time metrics not gated");
      let check_time metric old_ns new_ns =
        match (old_ns, new_ns) with
        | Some o, Some nw when Float.is_finite o && Float.is_finite nw ->
            if gate_times then
              let g = Option.get gate in
              if nw > o *. (1. +. (g /. 100.)) && nw -. o > time_noise_floor_ns
              then
                report Regression metric
                  (Printf.sprintf "time %.0f ns -> %.0f ns (+%.1f%%, gate %.1f%%)"
                     o nw
                     (100. *. (nw -. o) /. Float.max 1. o)
                     g)
        | _ -> ()
      in
      (* Generic keyed-row comparison: OLD rows drive the regression check,
         NEW-only rows are informational. *)
      let compare_rows ~section ~key_of ~on_pair =
        let old_rows = as_list (Option.value ~default:(List []) (member section old_json)) in
        let new_rows = as_list (Option.value ~default:(List []) (member section new_json)) in
        let keyed rows =
          List.filter_map
            (fun r -> match key_of r with Some k -> Some (k, r) | None -> None)
            rows
        in
        let olds = keyed old_rows and news = keyed new_rows in
        List.iter
          (fun (k, orow) ->
            match List.assoc_opt k news with
            | Some nrow -> on_pair k orow nrow
            | None ->
                report Regression (section ^ ":" ^ k)
                  "row present in OLD but missing in NEW")
          olds;
        (* Added-row policy: a row only NEW knows about is expected when a
           run grows coverage (new benchmarks, new cache rows) — always
           reported, never gating, distinctly flagged so a growing suite
           is visible in the report. *)
        List.iter
          (fun (k, _) ->
            if List.assoc_opt k olds = None then
              report Added (section ^ ":" ^ k) "row added in NEW (not in OLD)")
          news
      in
      (* Counter totals merged into a row: exact comparison; only
         worse-is-higher counters moving up gate. *)
      let check_counters k orow nrow =
        let counters r =
          match member "counters" r with Some (Obj l) -> l | _ -> []
        in
        let oc = counters orow and nc = counters nrow in
        List.iter
          (fun (name, ov) ->
            let metric = Printf.sprintf "counter:%s:%s" k name in
            match (as_num ov, Option.bind (List.assoc_opt name nc) as_num) with
            | Some o, Some nw when o <> nw ->
                if nw > o && counter_worse_higher name then
                  report Regression metric
                    (Printf.sprintf "counter %.0f -> %.0f" o nw)
                else
                  report Info metric (Printf.sprintf "counter %.0f -> %.0f" o nw)
            | Some _, None -> report Info metric "counter absent in NEW run"
            | _ -> ())
          oc;
        List.iter
          (fun (name, _) ->
            if List.assoc_opt name oc = None then
              report Added
                (Printf.sprintf "counter:%s:%s" k name)
                "counter added in NEW (not in OLD)")
          nc
      in
      compare_rows ~section:"micro"
        ~key_of:(fun r -> str_member "name" r)
        ~on_pair:(fun k orow nrow ->
          check_time ("micro:" ^ k) (num_member "ns_per_run" orow)
            (num_member "ns_per_run" nrow));
      compare_rows ~section:"stages"
        ~key_of:(fun r -> str_member "stage" r)
        ~on_pair:(fun k orow nrow ->
          check_time ("stages:" ^ k) (num_member "ns" orow)
            (num_member "ns" nrow);
          check_counters k orow nrow);
      (* Cache rows (cold/warm rewrites): same shape as micro rows plus a
         merged counter bag — time-gated like micro, counters exact. *)
      compare_rows ~section:"cache"
        ~key_of:(fun r -> str_member "name" r)
        ~on_pair:(fun k orow nrow ->
          check_time ("cache:" ^ k) (num_member "ns_per_run" orow)
            (num_member "ns_per_run" nrow);
          check_counters ("cache:" ^ k) orow nrow);
      (* Serve throughput rows (the daemon's request stream): per-request
         wall time gates like every other time metric; the counter bag
         gates [overloaded]/[errors] going up (a stream sized under the
         queue bound must never be refused, and classify requests never
         error). Additionally the cross-request cache must keep hitting —
         the stream contains corpus twins, so a NEW run whose [hits]
         counter drops to zero means cache reuse across requests broke,
         regardless of what OLD measured. *)
      compare_rows ~section:"serve"
        ~key_of:(fun r -> str_member "name" r)
        ~on_pair:(fun k orow nrow ->
          check_time ("serve:" ^ k)
            (num_member "ns_per_request" orow)
            (num_member "ns_per_request" nrow);
          check_counters ("serve:" ^ k) orow nrow;
          let hits r =
            match member "counters" r with
            | Some c -> num_member "hits" c
            | None -> None
          in
          match hits nrow with
          | Some h when h <= 0. ->
              report Regression ("serve:" ^ k ^ ":hit-rate")
                "cross-request cache saw zero hits on a twin-bearing stream"
          | _ -> ());
      (* Incremental-protocol invariants, checked within the NEW run only
         (like the corpus pass-rate, these are absolute claims the run
         itself must satisfy, not old-vs-new comparisons). Gates fire
         whenever the named serve rows exist, and pass/fail lines are
         both emitted so the ratios stay visible in reports. *)
      let serve_new =
        as_list (Option.value ~default:(List []) (member "serve" new_json))
      in
      let serve_row name =
        List.find_opt (fun r -> str_member "name" r = Some name) serve_new
      in
      let serve_counter r name =
        Option.bind (member "counters" r) (num_member name)
      in
      (* Replay speedup: a byte-identical second pass must be answered by
         the response memo in O(1), so per-request time must beat the
         cold single-client stream by 10x. Unconditional — no --gate, no
         same-cores requirement: both rows come from the same NEW run on
         the same machine, and the margin is orders of magnitude. *)
      (match (serve_row "serve-replay-stream", serve_row "serve-stream-c1") with
      | Some replay, Some full -> (
          match
            ( num_member "ns_per_request" replay,
              num_member "ns_per_request" full )
          with
          | Some rns, Some fns when rns > 0. && fns > 0. ->
              let speedup = fns /. rns in
              if speedup < 10. then
                report Regression "serve:replay:speedup"
                  (Printf.sprintf
                     "memoized replay only %.1fx faster per request than \
                      serve-stream-c1 (want >= 10x)"
                     speedup)
              else
                report Info "serve:replay:speedup"
                  (Printf.sprintf
                     "memoized replay %.1fx faster per request than \
                      serve-stream-c1 (gate: >= 10x)"
                     speedup)
          | _ ->
              report Regression "serve:replay:speedup"
                "replay/full rows lack usable ns_per_request values")
      | Some _, None ->
          report Regression "serve:replay:speedup"
            "serve-replay-stream present but serve-stream-c1 row missing"
      | None, _ -> ());
      (match serve_row "serve-replay-stream" with
      | None -> ()
      | Some replay ->
          (match serve_counter replay "response_hit_rate_pct" with
          | Some p when p <> 100. ->
              report Regression "serve:replay:response-hit-rate"
                (Printf.sprintf
                   "only %.0f%% of replayed requests hit the response memo \
                    (want 100%%)"
                   p)
          | Some _ ->
              report Info "serve:replay:response-hit-rate"
                "every replayed request answered from the response memo"
          | None ->
              report Regression "serve:replay:response-hit-rate"
                "replay row lacks a response_hit_rate_pct counter");
          (match serve_counter replay "pipeline_misses" with
          | Some m when m <> 0. ->
              report Regression "serve:replay:pipeline-misses"
                (Printf.sprintf
                   "%.0f replayed requests re-entered the pipeline (want 0)" m)
          | Some _ -> ()
          | None ->
              report Regression "serve:replay:pipeline-misses"
                "replay row lacks a pipeline_misses counter");
          (match serve_counter replay "mismatches" with
          | Some m when m <> 0. ->
              report Regression "serve:replay:mismatches"
                (Printf.sprintf
                   "%.0f memoized responses were not byte-identical to the \
                    first pass (want 0)"
                   m)
          | Some _ -> ()
          | None ->
              report Regression "serve:replay:mismatches"
                "replay row lacks a mismatches counter"));
      (* Patch wire economy: a one-function edit shipped as a sparse
         [Patch] must cost at most 10% of the full upload it replaces,
         and must neither fall back ([needfull]) nor diverge from the
         full-upload rewrite ([mismatches]). *)
      (match serve_row "serve-patch-stream" with
      | None -> ()
      | Some patch ->
          (match
             ( serve_counter patch "wire_bytes_per_request",
               serve_counter patch "full_upload_bytes_per_request" )
           with
          | Some w, Some f when f > 0. ->
              let pct = 100. *. w /. f in
              if w *. 10. > f then
                report Regression "serve:patch:wire-bytes"
                  (Printf.sprintf
                     "patch requests ship %.1f%% of the full-upload bytes \
                      (want <= 10%%)"
                     pct)
              else
                report Info "serve:patch:wire-bytes"
                  (Printf.sprintf
                     "patch requests ship %.1f%% of the full-upload bytes \
                      (gate: <= 10%%)"
                     pct)
          | _ ->
              report Regression "serve:patch:wire-bytes"
                "patch row lacks wire/full byte counters");
          (match serve_counter patch "needfull" with
          | Some m when m <> 0. ->
              report Regression "serve:patch:needfull"
                (Printf.sprintf
                   "%.0f patch requests fell back to full upload (want 0)" m)
          | _ -> ());
          (match serve_counter patch "mismatches" with
          | Some m when m <> 0. ->
              report Regression "serve:patch:mismatches"
                (Printf.sprintf
                   "%.0f patched rewrites diverged from the full-upload \
                    result (want 0)"
                   m)
          | Some _ -> ()
          | None ->
              report Regression "serve:patch:mismatches"
                "patch row lacks a mismatches counter"));
      (* Telemetry rows (the daemon registry snapshot distilled after each
         serve stream): every counter emitted here is by construction a
         deterministic function of the served stream — request/outcome
         totals, per-approach × per-outcome latency histogram observation
         counts, eviction counters — so ANY drift, in either direction,
         is a behavior change and gates exactly (a dropped count is a
         lost request as surely as a risen error count is a new fault).
         The "times" bag holds machine-varying ns sums and follows the
         usual time policy (gated only with --gate on same-cores runs,
         above the noise floor). *)
      compare_rows ~section:"metrics"
        ~key_of:(fun r -> str_member "name" r)
        ~on_pair:(fun k orow nrow ->
          let bag field r =
            match member field r with Some (Obj l) -> l | _ -> []
          in
          let oc = bag "counters" orow and nc = bag "counters" nrow in
          List.iter
            (fun (name, ov) ->
              let metric = Printf.sprintf "metrics:%s:%s" k name in
              match (as_num ov, Option.bind (List.assoc_opt name nc) as_num) with
              | Some o, Some nw when o <> nw ->
                  report Regression metric
                    (Printf.sprintf "deterministic counter %.0f -> %.0f" o nw)
              | Some _, None ->
                  report Regression metric "counter absent in NEW run"
              | _ -> ())
            oc;
          List.iter
            (fun (name, _) ->
              if List.assoc_opt name oc = None then
                report Added
                  (Printf.sprintf "metrics:%s:%s" k name)
                  "counter added in NEW (not in OLD)")
            nc;
          let ot = bag "times" orow and nt = bag "times" nrow in
          List.iter
            (fun (name, ov) ->
              check_time
                (Printf.sprintf "metrics:%s:%s" k name)
                (as_num ov)
                (Option.bind (List.assoc_opt name nt) as_num))
            ot);
      (* Corpus robustness rows: classification is deterministic (serial
         cache probing, seeded corpus), so [pass_rate_pct] is compared
         exactly and a drop gates unconditionally — no noise floor, no
         same-cores requirement, no [--gate] threshold. Only comparable
         sweeps gate: if the corpus itself differs ([cells] changed), the
         rates measure different populations and the mismatch is reported
         instead. Refusal-histogram movement is informational; p50/p95
         wall times gate like every other time metric. *)
      compare_rows ~section:"corpus"
        ~key_of:(fun r -> str_member "approach" r)
        ~on_pair:(fun k orow nrow ->
          let metric = "corpus:" ^ k in
          let same_cells =
            match (num_member "cells" orow, num_member "cells" nrow) with
            | Some a, Some b when a <> b ->
                report Info (metric ^ ":cells")
                  (Printf.sprintf
                     "corpus size %.0f -> %.0f; pass rate not gated" a b);
                false
            | _ -> true
          in
          (match
             ( num_member "pass_rate_pct" orow,
               num_member "pass_rate_pct" nrow )
           with
          | Some o, Some nw when nw < o && same_cells ->
              report Regression (metric ^ ":pass-rate")
                (Printf.sprintf "pass rate %.1f%% -> %.1f%%" o nw)
          | Some o, Some nw when o <> nw ->
              report Info (metric ^ ":pass-rate")
                (Printf.sprintf "pass rate %.1f%% -> %.1f%%" o nw)
          | _ -> ());
          check_time (metric ^ ":p50")
            (num_member "p50_ns" orow)
            (num_member "p50_ns" nrow);
          check_time (metric ^ ":p95")
            (num_member "p95_ns" orow)
            (num_member "p95_ns" nrow);
          let refusals r =
            match member "refusals" r with Some (Obj l) -> l | _ -> []
          in
          let oref = refusals orow and nref = refusals nrow in
          List.iter
            (fun (name, ov) ->
              let m = Printf.sprintf "refusal:%s:%s" k name in
              match
                (as_num ov, Option.bind (List.assoc_opt name nref) as_num)
              with
              | Some o, Some nw when o <> nw ->
                  report Info m (Printf.sprintf "refusals %.0f -> %.0f" o nw)
              | Some _, None -> report Info m "refusal key absent in NEW run"
              | _ -> ())
            oref;
          List.iter
            (fun (name, _) ->
              if List.assoc_opt name oref = None then
                report Added
                  (Printf.sprintf "refusal:%s:%s" k name)
                  "refusal key added in NEW (not in OLD)")
            nref);
      Ok (List.rev !findings)
  | _ -> Error "not icfg-bench-micro/1 documents"

let diff_strings ?gate old_s new_s =
  match (parse_json old_s, parse_json new_s) with
  | Ok o, Ok nw -> diff ?gate o nw
  | Error e, _ -> Error ("OLD: " ^ e)
  | _, Error e -> Error ("NEW: " ^ e)

let read_file path =
  try
    let ic = open_in_bin path in
    let len = in_channel_length ic in
    let s = really_input_string ic len in
    close_in ic;
    Ok s
  with Sys_error e -> Error e

let diff_files ?gate old_path new_path =
  match (read_file old_path, read_file new_path) with
  | Ok o, Ok nw -> diff_strings ?gate o nw
  | Error e, _ | _, Error e -> Error e

(* -------------------------------------------------------------------- *)
(* Warm-path gate                                                        *)
(* -------------------------------------------------------------------- *)

(* The per-stage miss counters that must stay exactly zero on the
   data-only-edit warm row: with piecewise context digests, a validated
   data edit invalidates only [parse/finalize] (the one stage that
   dereferences data words) — any other stage going cold means a digest
   leaked data bytes into a text-stage key. *)
let data_edit_zero_misses =
  [
    "miss:parse/pass1";
    "miss:parse/fptr";
    "miss:parse/fptr2";
    "miss:rewrite/relocate";
    "miss:rewrite/plan";
    "miss:encode";
  ]

let check_cache ?(max_ratio = 1.3) doc =
  match member "schema" doc with
  | Some (Str ("icfg-bench-micro/1" | "icfg-bench-cache/1")) ->
      let rows = Option.fold ~none:[] ~some:as_list (member "cache" doc) in
      let row name =
        List.find_opt
          (fun r ->
            match member "name" r with Some (Str s) -> s = name | _ -> false)
          rows
      in
      let ns r = Option.bind (member "ns_per_run" r) as_num in
      let findings = ref [] in
      let report sev metric msg =
        findings := { f_severity = sev; f_metric = metric; f_msg = msg } :: !findings
      in
      (match (row "cache-warm-identical", row "cache-warm-perturbed") with
      | Some wi, Some wp -> (
          match (ns wi, ns wp) with
          | Some ident, Some pert when ident > 0. ->
              let ratio = pert /. ident in
              if ratio > max_ratio then
                report Regression "cache:warm-perturbed-ratio"
                  (Printf.sprintf
                     "warm-perturbed is %.2fx warm-identical (limit %.2fx)"
                     ratio max_ratio)
              else
                report Info "cache:warm-perturbed-ratio"
                  (Printf.sprintf
                     "warm-perturbed is %.2fx warm-identical (limit %.2fx)"
                     ratio max_ratio)
          | _ ->
              report Regression "cache:warm-perturbed-ratio"
                "warm rows lack usable ns_per_run values")
      | _ ->
          report Regression "cache:warm-perturbed-ratio"
            "cache-warm-identical / cache-warm-perturbed rows missing");
      (match row "cache-warm-data-edit" with
      | None ->
          report Regression "cache:data-edit"
            "cache-warm-data-edit row missing"
      | Some r -> (
          (* Per-stage miss counters are only emitted when nonzero, so an
             absent key IS the passing case — but a row with no counter
             object at all is malformed, not a pass. *)
          match member "counters" r with
          | Some (Obj counters) ->
              List.iter
                (fun k ->
                  match List.assoc_opt k counters with
                  | None | Some (Num 0.) -> ()
                  | Some (Num v) ->
                      report Regression ("cache:data-edit:" ^ k)
                        (Printf.sprintf
                           "%.0f misses on a data-only edit (want 0)" v)
                  | Some _ ->
                      report Regression ("cache:data-edit:" ^ k)
                        "counter is not a number")
                data_edit_zero_misses
          | _ ->
              report Regression "cache:data-edit"
                "data-edit row lacks a counter object"));
      Ok (List.rev !findings)
  | _ -> Error "not an icfg-bench-micro/1 or icfg-bench-cache/1 document"

let check_cache_string ?max_ratio s =
  match parse_json s with
  | Ok doc -> check_cache ?max_ratio doc
  | Error e -> Error e

let check_cache_file ?max_ratio path =
  match read_file path with
  | Ok s -> check_cache_string ?max_ratio s
  | Error e -> Error e

let has_regression = List.exists (fun f -> f.f_severity = Regression)

let render findings =
  let b = Buffer.create 1024 in
  let part sev label =
    let fs = List.filter (fun f -> f.f_severity = sev) findings in
    if fs <> [] then begin
      Printf.bprintf b "%s (%d):\n" label (List.length fs);
      List.iter
        (fun f -> Printf.bprintf b "  %-40s %s\n" f.f_metric f.f_msg)
        fs
    end
  in
  part Regression "REGRESSIONS";
  part Added "added";
  part Info "info";
  if findings = [] then Buffer.add_string b "no differences\n";
  Buffer.contents b
