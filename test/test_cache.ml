(* The content-addressed cache: key construction, the memo_map
   contract, clone semantics, fault tolerance of the on-disk tier, and
   the pipeline-level guarantees — cached rewrites are byte-identical to
   uncached ones, and an edit invalidates exactly the entries it touches.
   A corrupt, truncated, version-skewed or hand-forged entry must degrade
   to a silent miss with a correct rewrite and a counted eviction; it
   must never surface as an error or as wrong bytes. *)

module Cache = Icfg_core.Cache
module Trace = Icfg_core.Trace
module Rewriter = Icfg_core.Rewriter
module Mode = Icfg_core.Mode
module Runner = Icfg_harness.Runner

let spec_bin () =
  let arch = Icfg_isa.Arch.X86_64 in
  let bench = List.hd (Icfg_workloads.Spec_suite.benchmarks arch) in
  fst (Icfg_workloads.Spec_suite.compile arch bench)

let opts mode =
  { Rewriter.default_options with Rewriter.mode; payload = Rewriter.P_count }

let with_temp_dir f =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "icfgcache-%d-%d" (Unix.getpid ()) (Random.bits ()))
  in
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then (
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir))
    (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Keys                                                                *)
(* ------------------------------------------------------------------ *)

let key_injectivity () =
  (* Length-prefixing makes adjacent parts unable to alias. *)
  Alcotest.(check bool) "kjoin [ab;c] <> kjoin [a;bc]" true
    (Cache.kjoin [ "ab"; "c" ] <> Cache.kjoin [ "a"; "bc" ]);
  Alcotest.(check bool) "kjoin [] <> kjoin [empty]" true
    (Cache.kjoin [] <> Cache.kjoin [ "" ]);
  (* dval is structural: equal values digest equally however built. *)
  let a = [ 1; 2; 3 ] in
  let b = 1 :: List.tl [ 0; 2; 3 ] in
  Alcotest.(check string) "dval structural" (Cache.dval a) (Cache.dval b)

(* ------------------------------------------------------------------ *)
(* memo_map contract                                                   *)
(* ------------------------------------------------------------------ *)

let memo_map_no_cache () =
  (* Without a cache, memo_map is List.map and the key function is never
     consulted. *)
  let xs = List.init 100 (fun i -> i) in
  let r =
    Cache.memo_map ~stage:"t"
      ~key:(fun _ -> Alcotest.fail "key called without a cache")
      (fun x -> x * x)
      xs
  in
  Alcotest.(check (list int))
    "identity with List.map"
    (List.map (fun x -> x * x) xs)
    r

let memo_map_basic () =
  let c = Cache.create () in
  let xs = List.init 50 (fun i -> i) in
  let calls = Atomic.make 0 in
  let f x =
    Atomic.incr calls;
    (x, string_of_int x)
  in
  let key x = Cache.dval x in
  let r1 = Cache.memo_map ~cache:c ~stage:"t" ~key f xs in
  Alcotest.(check int) "cold: one call per item" 50 (Atomic.get calls);
  let r2 = Cache.memo_map ~cache:c ~stage:"t" ~key f xs in
  Alcotest.(check int) "warm: no new calls" 50 (Atomic.get calls);
  Alcotest.(check bool) "warm result identical" true (r1 = r2);
  let s = Cache.stats c in
  Alcotest.(check int) "misses" 50 s.Cache.c_misses;
  Alcotest.(check int) "hits" 50 s.Cache.c_hits;
  Alcotest.(check int) "stores" 50 s.Cache.c_stores;
  (* Same raw key under a different stage tag is a different entry. *)
  let r3 = Cache.memo_map ~cache:c ~stage:"u" ~key f xs in
  Alcotest.(check int) "stage tag separates entries" 100 (Atomic.get calls);
  Alcotest.(check bool) "other-stage result identical" true (r1 = r3)

let clone_isolation () =
  let c = Cache.create () in
  let xs = [ 1; 2; 3 ] in
  let f x = x + 1 in
  let key x = Cache.dval x in
  ignore (Cache.memo_map ~cache:c ~stage:"t" ~key f xs);
  let k = Cache.clone c in
  Alcotest.(check int) "clone stats start at zero" 0 (Cache.stats k).Cache.c_hits;
  ignore (Cache.memo_map ~cache:k ~stage:"t" ~key f xs);
  Alcotest.(check int) "clone serves the copied entries" 3
    (Cache.stats k).Cache.c_hits;
  (* New entries stored into the clone do not leak back. *)
  ignore (Cache.memo_map ~cache:k ~stage:"t" ~key f [ 99 ]);
  ignore (Cache.memo_map ~cache:c ~stage:"t" ~key f [ 99 ]);
  Alcotest.(check int) "original missed the clone's entry" 4
    (Cache.stats c).Cache.c_misses

(* ------------------------------------------------------------------ *)
(* Disk-tier fault tolerance                                           *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path s =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc s)

(* Warm an on-disk store with a full rewrite, mangle one entry with
   [damage], then rewrite through a fresh cache over the same directory:
   the output must still be byte-identical to the uncached rewrite, the
   damaged entry must be silently evicted (one counted eviction, one
   miss), and everything else must hit. *)
let damage_case ~what damage =
  with_temp_dir (fun dir ->
      let bin = spec_bin () in
      let options = opts Icfg_core.Mode.Jt in
      let uncached = Runner.rewrite ~options bin in
      let c1 = Cache.create ~dir () in
      ignore (Runner.rewrite ~options ~cache:c1 bin);
      let total = (Cache.stats c1).Cache.c_misses in
      let victim =
        match Cache.entry_files c1 with
        | f :: _ -> f
        | [] -> Alcotest.fail "no on-disk entries after a cold rewrite"
      in
      damage victim;
      let c2 = Cache.create ~dir () in
      let rw = Runner.rewrite ~options ~cache:c2 bin in
      Test_rewriter.check_same ~what uncached rw;
      let s = Cache.stats c2 in
      Alcotest.(check int) (what ^ ": one eviction") 1 s.Cache.c_evict_corrupt;
      Alcotest.(check int) (what ^ ": one miss") 1 s.Cache.c_misses;
      Alcotest.(check int) (what ^ ": rest hits") (total - 1) s.Cache.c_hits;
      (* The miss re-stored a valid entry: a third run is all hits. *)
      let c3 = Cache.create ~dir () in
      ignore (Runner.rewrite ~options ~cache:c3 bin);
      Alcotest.(check int) (what ^ ": store healed") 0
        (Cache.stats c3).Cache.c_misses)

let disk_truncated () =
  damage_case ~what:"truncated entry" (fun path ->
      let s = read_file path in
      write_file path (String.sub s 0 (String.length s / 2)))

let disk_garbage () =
  damage_case ~what:"garbage entry" (fun path ->
      write_file path (String.make 64 '\xfe'))

let disk_empty () =
  damage_case ~what:"empty entry" (fun path -> write_file path "")

let disk_version_skew () =
  (* A future format version: same layout, bumped magic. Must read as
     stale, not as valid. *)
  damage_case ~what:"version-skewed entry" (fun path ->
      let s = read_file path in
      let i = String.index s '\n' in
      write_file path ("icfgcache/2" ^ String.sub s i (String.length s - i)))

let disk_forged_payload () =
  (* A foreign writer with a self-consistent entry (magic, key echo,
     length and digest all valid) around a payload that is not a marshal
     image. The disk layer accepts it; memo_map must catch the unmarshal
     failure, evict, and recompute. *)
  damage_case ~what:"forged payload" (fun path ->
      let key = Filename.chop_suffix (Filename.basename path) ".entry" in
      let payload = "not a marshal image" in
      write_file path
        (String.concat "\n"
           [
             "icfgcache/1";
             key;
             string_of_int (String.length payload);
             Digest.to_hex (Digest.string payload);
             payload;
           ]))

(* ------------------------------------------------------------------ *)
(* Disk-tier size bound (LRU)                                          *)
(* ------------------------------------------------------------------ *)

(* Payloads dwarf the per-entry framing, so "how many entries fit" is
   easy to pin: a bound of three payloads holds exactly the three most
   recently stored of eight. Eviction loses only the disk file — the
   in-memory copies keep serving — and a fresh cache over the directory
   misses exactly the five oldest. *)
let disk_lru_bound () =
  with_temp_dir (fun dir ->
      let calls = ref [] in
      let f x =
        calls := x :: !calls;
        String.make 2048 (Char.chr (x land 0xff))
      in
      let key x = Cache.dval x in
      let xs = List.init 8 (fun i -> i) in
      let c = Cache.create ~dir ~max_disk_bytes:(3 * 2200) () in
      ignore (Cache.memo_map ~cache:c ~stage:"t" ~key f xs);
      let s = Cache.stats c in
      Alcotest.(check int) "evictions counted" 5 s.Cache.c_evict_lru;
      Alcotest.(check int) "bound holds three disk entries" 3
        (List.length (Cache.entry_files c));
      (* The in-memory tier kept every evicted entry. *)
      calls := [];
      ignore (Cache.memo_map ~cache:c ~stage:"t" ~key f xs);
      Alcotest.(check (list int)) "warm run recomputes nothing" [] !calls;
      Alcotest.(check int) "warm run all hits" 8 (Cache.stats c).Cache.c_hits;
      (* A fresh cache sees only the survivors: the five oldest stores
         lost their files and recompute. *)
      let c2 = Cache.create ~dir () in
      ignore (Cache.memo_map ~cache:c2 ~stage:"t" ~key f xs);
      let s2 = Cache.stats c2 in
      Alcotest.(check int) "survivors hit" 3 s2.Cache.c_hits;
      Alcotest.(check int) "evicted miss" 5 s2.Cache.c_misses;
      Alcotest.(check (list int)) "victims were the oldest" [ 0; 1; 2; 3; 4 ]
        (List.sort compare !calls))

(* A disk hit refreshes the entry's LRU tick: entries seeded from a
   pre-existing store are all equally cold, and touching one protects it
   from the next eviction. *)
let disk_lru_refresh () =
  with_temp_dir (fun dir ->
      let f x = String.make 2048 (Char.chr (x land 0xff)) in
      let key x = Cache.dval x in
      let seed = Cache.create ~dir () in
      ignore (Cache.memo_map ~cache:seed ~stage:"t" ~key f [ 0; 1; 2 ]);
      let c = Cache.create ~dir ~max_disk_bytes:(3 * 2200) () in
      (* Disk hit on item 0: its tick is now newer than the other seeds. *)
      ignore (Cache.memo_map ~cache:c ~stage:"t" ~key f [ 0 ]);
      (* A fourth store overflows the bound; the victim must be one of
         the untouched seeds. *)
      ignore (Cache.memo_map ~cache:c ~stage:"t" ~key f [ 3 ]);
      Alcotest.(check int) "one eviction" 1 (Cache.stats c).Cache.c_evict_lru;
      let c2 = Cache.create ~dir () in
      ignore (Cache.memo_map ~cache:c2 ~stage:"t" ~key f [ 0 ]);
      Alcotest.(check int) "the touched seed survived" 1
        (Cache.stats c2).Cache.c_hits)

(* ------------------------------------------------------------------ *)
(* Slots                                                               *)
(* ------------------------------------------------------------------ *)

let slot_files dir =
  List.filter
    (fun f -> Filename.check_suffix f ".slot")
    (Array.to_list (Sys.readdir dir))

let slot_battery () =
  with_temp_dir (fun dir ->
      let c = Cache.create ~dir () in
      Alcotest.(check bool) "absent initially" true
        ((Cache.find_slot c "layout" : int list option) = None);
      Cache.store_slot c "layout" [ 1; 2; 3 ];
      Alcotest.(check (list int)) "round-trip" [ 1; 2; 3 ]
        (Option.get (Cache.find_slot c "layout"));
      Cache.store_slot c "layout" [ 9 ];
      Alcotest.(check (list int)) "overwrite" [ 9 ]
        (Option.get (Cache.find_slot c "layout"));
      (* Slots are invisible to statistics and the entry tier. *)
      let s = Cache.stats c in
      Alcotest.(check int) "no hits" 0 s.Cache.c_hits;
      Alcotest.(check int) "no misses" 0 s.Cache.c_misses;
      Alcotest.(check int) "no stores" 0 s.Cache.c_stores;
      Alcotest.(check (list string)) "no entry files" [] (Cache.entry_files c);
      Alcotest.(check int) "one slot file" 1 (List.length (slot_files dir));
      (* clone carries slots into warm replays (and drops the disk tier). *)
      let k = Cache.clone c in
      Alcotest.(check (list int)) "clone carries the slot" [ 9 ]
        (Option.get (Cache.find_slot k "layout"));
      (* A fresh cache over the directory reads last run's slot. *)
      let c2 = Cache.create ~dir () in
      Alcotest.(check (list int)) "slot persists on disk" [ 9 ]
        (Option.get (Cache.find_slot c2 "layout"));
      (* A mangled slot file reads as absent and is evicted, counted. *)
      (match slot_files dir with
      | [ f ] -> write_file (Filename.concat dir f) "not a slot"
      | fs -> Alcotest.fail (Printf.sprintf "%d slot files" (List.length fs)));
      let c3 = Cache.create ~dir () in
      Alcotest.(check bool) "corrupt slot reads as absent" true
        ((Cache.find_slot c3 "layout" : int list option) = None);
      Alcotest.(check int) "corrupt slot evicted" 1
        (Cache.stats c3).Cache.c_evict_corrupt;
      Alcotest.(check (list string)) "corrupt slot file removed" []
        (slot_files dir))

(* ------------------------------------------------------------------ *)
(* Pipeline: cached == uncached, per-function invalidation             *)
(* ------------------------------------------------------------------ *)

let check_same = Test_rewriter.check_same

(* Cached rewrites are byte-identical to uncached ones for every mode,
   cold and warm alike: a cold run misses every entry, and a warm replay
   through a clone (fresh statistics, shared entries) hits every one. *)
let cached_equals_uncached () =
  let bin = spec_bin () in
  List.iter
    (fun mode ->
      let options = opts mode in
      let what fmt = Printf.sprintf "%s %s" (Mode.name mode) fmt in
      let uncached = Runner.rewrite ~options bin in
      let c = Cache.create () in
      check_same ~what:(what "cold") uncached
        (Runner.rewrite ~options ~cache:c bin);
      let cold = Cache.stats c in
      Alcotest.(check int) (what "cold: no hits") 0 cold.Cache.c_hits;
      Alcotest.(check bool) (what "cold: misses") true
        (cold.Cache.c_misses > 0);
      let wc = Cache.clone c in
      check_same ~what:(what "warm") uncached
        (Runner.rewrite ~options ~cache:wc bin);
      let warm = Cache.stats wc in
      Alcotest.(check int) (what "warm: no misses") 0 warm.Cache.c_misses;
      Alcotest.(check int) (what "warm: all hits") cold.Cache.c_misses
        warm.Cache.c_hits)
    Mode.all

(* The on-disk tier: a second cache instance over the same directory (a
   fresh process in real life) serves every per-function artifact from
   disk — zero misses — and the output stays byte-identical. *)
let disk_round_trip () =
  let bin = spec_bin () in
  let options = opts Mode.Jt in
  let uncached = Runner.rewrite ~options bin in
  with_temp_dir (fun dir ->
      let c1 = Cache.create ~dir () in
      check_same ~what:"disk cold" uncached
        (Runner.rewrite ~options ~cache:c1 bin);
      Alcotest.(check bool) "entries on disk" true (Cache.entry_files c1 <> []);
      let c2 = Cache.create ~dir () in
      check_same ~what:"disk warm" uncached
        (Runner.rewrite ~options ~cache:c2 bin);
      let s = Cache.stats c2 in
      Alcotest.(check int) "disk warm: no misses" 0 s.Cache.c_misses;
      Alcotest.(check int) "disk warm: all hits" (Cache.stats c1).Cache.c_misses
        s.Cache.c_hits;
      Alcotest.(check bool) "disk warm: bytes reused" true
        (s.Cache.c_bytes_reused > 0))

(* Warm the cache on [bin], apply [perturb] to its parse, and rewrite the
   edited binary through a clone of the warm cache under a trace: the
   output must match the edited binary's uncached rewrite; returns the
   trace's counter lookup for the stage-level assertions. *)
let warm_edit ~what perturb =
  let bin = spec_bin () in
  let options = opts Mode.Jt in
  let warm = Cache.create () in
  ignore (Runner.rewrite ~options ~cache:warm bin);
  match perturb (Runner.parse bin) with
  | None -> Alcotest.failf "no %s site in the spec binary" what
  | Some (pbin, name) ->
      let uncached = Runner.rewrite ~options pbin in
      let t = Trace.create () in
      let rw =
        Trace.with_current t (fun () ->
            Runner.rewrite ~options ~cache:(Cache.clone warm) pbin)
      in
      check_same ~what:(Printf.sprintf "%s %s" what name) uncached rw;
      ( (fun n -> Option.value ~default:0 (Trace.find_counter t n)),
        Cache.stats warm )

let per_function_stages =
  [
    "parse/pass1"; "parse/fptr"; "parse/finalize"; "parse/fptr2";
    "rewrite/relocate"; "rewrite/plan";
  ]

(* Perturbing one function's bytes invalidates exactly that function's
   entries: each per-function stage misses once and everything else
   hits. Encode chunks under a cache are per-function, and the pinned
   layout re-places the (same-length) perturbed function back into its
   old slot, so exactly the perturbed function's chunk re-encodes. *)
let per_function_invalidation () =
  let get, cold = warm_edit ~what:"perturbed" Runner.perturb_function in
  List.iter
    (fun stage ->
      Alcotest.(check int) ("one miss in " ^ stage) 1
        (get ("cache.miss:" ^ stage)))
    per_function_stages;
  Alcotest.(check int) "exactly one encode miss" 1 (get "cache.miss:encode");
  Alcotest.(check int) "hits + misses = cold misses" cold.Cache.c_misses
    (get "cache.hit" + get "cache.miss")

(* A data-only edit — one byte flipped in a loaded data section,
   validated to leave the parsed analysis identical — keeps every
   text-stage entry warm: with piecewise context digests only
   [parse/finalize] (the one stage dereferencing data words) may miss. *)
let data_only_edit () =
  let get, _ = warm_edit ~what:"data edit in" Runner.perturb_data in
  List.iter
    (fun stage ->
      Alcotest.(check int) ("zero misses in " ^ stage) 0
        (get ("cache.miss:" ^ stage)))
    [
      "parse/pass1"; "parse/fptr"; "parse/fptr2"; "rewrite/relocate";
      "rewrite/plan"; "encode";
    ];
  Alcotest.(check bool) "finalize recomputed" true
    (get "cache.miss:parse/finalize" > 0);
  Alcotest.(check int) "every miss is a finalize miss" (get "cache.miss")
    (get "cache.miss:parse/finalize")

(* Renaming one function symbol costs exactly that function's own
   entries: symbol names are digested namelessly in every cross-function
   key and relocated-block labels are address-namespaced, so each
   per-function stage misses once for the renamed function — and encode
   misses zero chunks, because the pinned layout keeps every address and
   no chunk's items or resolved labels change. *)
let one_symbol_edit () =
  let get, _ = warm_edit ~what:"renamed" Runner.perturb_symbol in
  List.iter
    (fun stage ->
      Alcotest.(check int) ("one miss in " ^ stage) 1
        (get ("cache.miss:" ^ stage)))
    per_function_stages;
  Alcotest.(check int) "zero encode misses" 0 (get "cache.miss:encode")

(* ------------------------------------------------------------------ *)
(* Cross-request reuse through the serve daemon                        *)
(* ------------------------------------------------------------------ *)

module Corpus = Icfg_workloads.Corpus
module Protocol = Icfg_service.Protocol
module Server = Icfg_service.Server
module Client = Icfg_service.Client

let rewritten_counters ~what = function
  | Ok (Protocol.Rewritten { counters; _ }) -> counters
  | Ok _ -> Alcotest.failf "%s: unexpected response kind" what
  | Error m -> Alcotest.failf "%s: transport error %s" what m

(* The PR 6 twin entries, as separate daemon requests: the daemon's one
   cross-request cache makes the twin's rewrite hit on every stage the
   source stored — zero misses in any text stage (or anywhere else),
   and exactly as many hits as the source had misses. This is the
   cross-request payoff the serve mode exists for. *)
let serve_twin_hits () =
  let entries = Corpus.generate ~seed:7 ~count:10 in
  let twin_entry = List.nth entries 9 in
  let src_id =
    match twin_entry.Corpus.e_twin_of with
    | Some j -> j
    | None -> Alcotest.fail "corpus entry 9 is expected to be a twin"
  in
  let src_bin = Corpus.build (List.nth entries src_id) in
  let twin_bin = Corpus.build twin_entry in
  (* The twin is byte-identical to the source, so a default daemon would
     answer it from the whole-response memo without running anything —
     correct service behavior, but this test pins the *stage* cache. A
     one-byte memo bound stores no response, forcing a real pipeline run
     over the shared cache. *)
  Test_serve.with_server ~workers:1 ~memo_bytes:1 () @@ fun _srv path ->
  Client.with_connection path @@ fun c ->
  let c_src =
    rewritten_counters ~what:"source request"
      (Client.rewrite c ~approach:"ours/jt" src_bin)
  in
  let c_twin =
    rewritten_counters ~what:"twin request"
      (Client.rewrite c ~approach:"ours/jt" twin_bin)
  in
  let get l n = Option.value ~default:0 (List.assoc_opt n l) in
  Alcotest.(check bool) "source request ran cold" true
    (get c_src "cache.miss" > 0 && get c_src "cache.hit" = 0);
  List.iter
    (fun stage ->
      Alcotest.(check int)
        (Printf.sprintf "twin request: zero misses in %s" stage)
        0
        (get c_twin ("cache.miss:" ^ stage)))
    [
      "parse/pass1"; "parse/fptr"; "parse/finalize"; "parse/fptr2";
      "rewrite/relocate"; "rewrite/plan"; "encode";
    ];
  Alcotest.(check int) "twin request: zero misses anywhere" 0
    (get c_twin "cache.miss");
  Alcotest.(check int) "twin hits everything the source stored"
    (get c_src "cache.miss") (get c_twin "cache.hit")

(* The LRU disk bound holds while requests are in flight: concurrent
   requests store through the daemon's shared disk-backed cache, and
   when the dust settles the entry tier is within the bound with the
   evictions counted — no request ever saw an error. *)
let serve_lru_eviction () =
  with_temp_dir @@ fun dir ->
  let bound = 64 * 1024 in
  let cache = Cache.create ~dir ~max_disk_bytes:bound () in
  let bins =
    List.map
      (fun arch ->
        let b = List.hd (Icfg_workloads.Spec_suite.benchmarks arch) in
        fst (Icfg_workloads.Spec_suite.compile arch b))
      Icfg_isa.Arch.all
  in
  Test_serve.with_server ~workers:2 ~cache () @@ fun srv path ->
  let threads =
    List.map
      (fun bin ->
        Thread.create
          (fun () ->
            Client.with_connection path @@ fun c ->
            ignore
              (rewritten_counters ~what:"in-flight rewrite"
                 (Client.rewrite c ~approach:"ours/jt" bin)))
          ())
      bins
  in
  List.iter Thread.join threads;
  let st = Server.stats srv in
  Alcotest.(check int) "no error responses" 0 st.Server.errors;
  let cstats = Cache.stats (Server.cache srv) in
  Alcotest.(check bool) "evictions happened under service" true
    (cstats.Cache.c_evict_lru > 0);
  let disk_bytes =
    List.fold_left
      (fun acc f -> acc + (Unix.stat f).Unix.st_size)
      0 (Cache.entry_files cache)
  in
  Alcotest.(check bool)
    (Printf.sprintf "disk entry tier within bound (%d <= %d)" disk_bytes bound)
    true (disk_bytes <= bound)

let suite =
  [
    ( "cache",
      [
        Alcotest.test_case "key injectivity" `Quick key_injectivity;
        Alcotest.test_case "memo_map: no cache = List.map" `Quick
          memo_map_no_cache;
        Alcotest.test_case "memo_map: basic hit/miss/stage" `Quick
          memo_map_basic;
        Alcotest.test_case "clone isolation" `Quick clone_isolation;
        Alcotest.test_case "disk: truncated entry" `Quick disk_truncated;
        Alcotest.test_case "disk: garbage entry" `Quick disk_garbage;
        Alcotest.test_case "disk: empty entry" `Quick disk_empty;
        Alcotest.test_case "disk: version skew" `Quick disk_version_skew;
        Alcotest.test_case "disk: forged payload" `Quick disk_forged_payload;
        Alcotest.test_case "disk: LRU size bound" `Quick disk_lru_bound;
        Alcotest.test_case "disk: LRU hit refresh" `Quick disk_lru_refresh;
        Alcotest.test_case "slots: round-trip, clone, corruption" `Quick
          slot_battery;
        Alcotest.test_case "cached = uncached, cold and warm" `Quick
          cached_equals_uncached;
        Alcotest.test_case "disk tier round-trip" `Quick disk_round_trip;
        Alcotest.test_case "per-function invalidation" `Quick
          per_function_invalidation;
        Alcotest.test_case "data-only edit keeps text stages warm" `Quick
          data_only_edit;
        Alcotest.test_case "one-symbol edit is function-local" `Quick
          one_symbol_edit;
        Alcotest.test_case "serve: twin cross-request all-hits" `Slow
          serve_twin_hits;
        Alcotest.test_case "serve: LRU bound under in-flight requests" `Quick
          serve_lru_eviction;
      ] );
  ]
