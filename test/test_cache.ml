(* The content-addressed cache: key construction, the memo_map
   contract, clone semantics, the one bounded LRU behind it (and a
   daemon soak under small bounds), and the pipeline-level guarantees —
   cached rewrites are byte-identical to uncached ones, also when the
   bound evicts entries mid-run, and an edit invalidates exactly the
   entries it touches. Hits and misses are read off a trace: the cache
   counts them nowhere else. *)

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

(* Run [f] under a fresh trace: its result and a counter lookup. *)
let traced f =
  let t = Trace.create () in
  let r = Trace.with_current t f in
  (r, fun n -> Option.value ~default:0 (Trace.find_counter t n))

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
  let r1, cold = traced (fun () -> Cache.memo_map ~cache:c ~stage:"t" ~key f xs) in
  Alcotest.(check int) "cold: one call per item" 50 (Atomic.get calls);
  let r2, warm = traced (fun () -> Cache.memo_map ~cache:c ~stage:"t" ~key f xs) in
  Alcotest.(check int) "warm: no new calls" 50 (Atomic.get calls);
  Alcotest.(check bool) "warm result identical" true (r1 = r2);
  Alcotest.(check int) "cold misses" 50 (cold "cache.miss");
  Alcotest.(check int) "cold hits" 0 (cold "cache.hit");
  Alcotest.(check int) "warm hits" 50 (warm "cache.hit");
  Alcotest.(check int) "warm misses" 0 (warm "cache.miss");
  Alcotest.(check int) "entries stored" 50 (Cache.stats c).Cache.c_entries;
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
  let _, get = traced (fun () -> Cache.memo_map ~cache:k ~stage:"t" ~key f xs) in
  Alcotest.(check int) "clone serves the copied entries" 3 (get "cache.hit");
  (* New entries stored into the clone do not leak back. *)
  ignore (Cache.memo_map ~cache:k ~stage:"t" ~key f [ 99 ]);
  Alcotest.(check int) "original holds its own three" 3
    (Cache.stats c).Cache.c_entries;
  let _, get =
    traced (fun () -> Cache.memo_map ~cache:c ~stage:"t" ~key f [ 99 ])
  in
  Alcotest.(check int) "original missed the clone's entry" 1 (get "cache.miss")

(* ------------------------------------------------------------------ *)
(* The one LRU and the bounded cache                                  *)
(* ------------------------------------------------------------------ *)

module Lru = Icfg_core.Lru

(* The victim is the least-recently *accessed* entry, not the oldest
   insert: a [find] refreshes, a miss does not. *)
let lru_victim_order () =
  let l = Lru.create ~max_bytes:(3 * Lru.cost ~key:"a" "0123456789") () in
  List.iter
    (fun k -> assert (Lru.add l ~key:k (String.make 10 'x')))
    [ "a"; "b"; "c" ];
  ignore (Lru.find l "a");
  ignore (Lru.find l "zz");
  assert (Lru.add l ~key:"d" (String.make 10 'y'));
  Alcotest.(check bool) "b, the coldest, went first" true
    (Lru.find l "b" = None);
  assert (Lru.add l ~key:"e" (String.make 10 'z'));
  Alcotest.(check bool) "then c" true (Lru.find l "c" = None);
  List.iter
    (fun k -> Alcotest.(check bool) (k ^ " kept") true (Lru.find l k <> None))
    [ "a"; "d"; "e" ];
  let s = Lru.stats l in
  Alcotest.(check int) "two evictions" 2 s.Lru.st_evictions;
  Alcotest.(check int) "misses: zz, b, c" 3 s.Lru.st_misses;
  Alcotest.(check int) "hits: a, then a d e" 4 s.Lru.st_hits;
  (* [copy] keeps entries and access order but shares nothing. *)
  let k = Lru.copy l in
  Alcotest.(check int) "copy starts with zero counters" 0
    (Lru.stats k).Lru.st_hits;
  assert (Lru.add k ~key:"f" "0123456789");
  Alcotest.(check bool) "copy evicted its coldest (a)" true
    (Lru.find k "a" = None);
  Alcotest.(check bool) "original untouched" true (Lru.find l "a" <> None);
  Alcotest.(check int) "original still holds three" 3
    (Lru.stats l).Lru.st_entries

(* An entry over the whole capacity is refused and evicts nothing; its
   key and the per-entry overhead count, not only its value. *)
let lru_refusal () =
  let cap = Lru.cost ~key:"full" (String.make 16 'x') in
  Alcotest.(check int) "cost = key + value + overhead"
    (4 + 16 + Lru.entry_overhead) cap;
  let l = Lru.create ~max_bytes:cap () in
  assert (Lru.add l ~key:"a" "12345678");
  Alcotest.(check bool) "over capacity refused" false
    (Lru.add l ~key:"full" (String.make 17 'x'));
  Alcotest.(check bool) "exactly the capacity fits" true
    (Lru.add l ~key:"full" (String.make 16 'x'));
  let s = Lru.stats l in
  Alcotest.(check int) "one rejection" 1 s.Lru.st_rejected;
  Alcotest.(check int) "the fit evicted a" 1 s.Lru.st_evictions;
  Alcotest.(check int) "footprint" cap s.Lru.st_bytes

(* Re-adding a key replaces its value: the footprint counts the new
   bytes once, and a same-key re-add never evicts another entry. *)
let lru_readd_exact () =
  let ten = Lru.cost ~key:"a" "0123456789" in
  let l = Lru.create ~max_bytes:(2 * ten) () in
  assert (Lru.add l ~key:"a" "0123456789");
  assert (Lru.add l ~key:"b" "0123456789");
  assert (Lru.add l ~key:"a" "0123456789");
  assert (Lru.add l ~key:"b" "012");
  let s = Lru.stats l in
  Alcotest.(check int) "footprint exact" (ten + Lru.cost ~key:"b" "012")
    s.Lru.st_bytes;
  Alcotest.(check int) "two entries" 2 s.Lru.st_entries;
  Alcotest.(check int) "no evictions" 0 s.Lru.st_evictions;
  Alcotest.(check (option string)) "replaced value" (Some "012")
    (Lru.find l "b");
  Lru.remove l "a";
  Alcotest.(check int) "remove frees its bytes" (Lru.cost ~key:"b" "012")
    (Lru.stats l).Lru.st_bytes

(* Against a naive reference — a list of (key, size, last tick),
   victims by a linear minimum search — under random adds, finds and
   removes over a few keys: the same answers, the same survivors and
   the same eviction count after every step. A size is key + value +
   overhead; the capacity holds two to four entries. *)
let lru_matches_model =
  QCheck2.Test.make ~count:300 ~name:"lru: matches a naive model"
    QCheck2.Gen.(
      list_size (int_range 1 60)
        (triple (int_range 0 2) (int_range 0 5) (int_range 0 12)))
    (fun ops ->
      let cap = (4 * (1 + Lru.entry_overhead)) + 24 in
      let l = Lru.create ~max_bytes:cap () in
      let model = ref [] and tick = ref 0 and evictions = ref 0 in
      let stamp () =
        incr tick;
        !tick
      in
      let total () = List.fold_left (fun a (_, n, _) -> a + n) 0 !model in
      let drop k = model := List.filter (fun (k', _, _) -> k' <> k) !model in
      let rec evict need =
        if total () + need > cap then
          match List.sort (fun (_, _, a) (_, _, b) -> compare a b) !model with
          | (k, _, _) :: _ ->
              drop k;
              incr evictions;
              evict need
          | [] -> ()
      in
      List.for_all
        (fun (op, k, n) ->
          let key = string_of_int k in
          let same =
            match op with
            | 0 ->
                let size = String.length key + n + Lru.entry_overhead in
                let want = size <= cap in
                if want then begin
                  drop key;
                  evict size;
                  model := (key, size, stamp ()) :: !model
                end;
                Lru.add l ~key (String.make n 'v') = want
            | 1 ->
                let want =
                  List.exists (fun (k', _, _) -> k' = key) !model
                in
                if want then
                  model :=
                    List.map
                      (fun ((k', n', _) as e) ->
                        if k' = key then (k', n', stamp ()) else e)
                      !model;
                (Lru.find l key <> None) = want
            | _ ->
                drop key;
                Lru.remove l key;
                true
          in
          let s = Lru.stats l in
          same
          && s.Lru.st_entries = List.length !model
          && s.Lru.st_bytes = total ()
          && s.Lru.st_evictions = !evictions)
        ops)

(* Payloads dwarf the marshal framing, key and entry overhead, so "how
   many entries fit" is easy to pin: a bound of three entries holds
   exactly the three most recently stored of eight, within the bound,
   and the five oldest recompute. *)
let memory_lru_bound () =
  let calls = ref [] in
  let f x =
    calls := x :: !calls;
    String.make 2048 (Char.chr (x land 0xff))
  in
  let key x = Cache.dval x in
  let xs = List.init 8 (fun i -> i) in
  let bound = 3 * 2400 in
  let c = Cache.create ~max_bytes:bound () in
  ignore (Cache.memo_map ~cache:c ~stage:"t" ~key f xs);
  let s = Cache.stats c in
  Alcotest.(check int) "evictions counted" 5 s.Cache.c_evict_lru;
  Alcotest.(check int) "bound holds three entries" 3 s.Cache.c_entries;
  Alcotest.(check bool) "footprint within the bound" true
    (s.Cache.c_bytes <= bound);
  calls := [];
  let _, get = traced (fun () -> Cache.memo_map ~cache:c ~stage:"t" ~key f xs) in
  Alcotest.(check (list int)) "victims were the oldest" [ 0; 1; 2; 3; 4 ]
    (List.sort compare !calls);
  Alcotest.(check int) "survivors hit" 3 (get "cache.hit")

(* A hit refreshes the entry's LRU tick: touching the oldest entry
   protects it from the next eviction. *)
let memory_lru_refresh () =
  let calls = ref [] in
  let f x =
    calls := x :: !calls;
    String.make 2048 (Char.chr (x land 0xff))
  in
  let key x = Cache.dval x in
  let c = Cache.create ~max_bytes:(3 * 2400) () in
  ignore (Cache.memo_map ~cache:c ~stage:"t" ~key f [ 0; 1; 2 ]);
  ignore (Cache.memo_map ~cache:c ~stage:"t" ~key f [ 0 ]);
  ignore (Cache.memo_map ~cache:c ~stage:"t" ~key f [ 3 ]);
  Alcotest.(check int) "one eviction" 1 (Cache.stats c).Cache.c_evict_lru;
  calls := [];
  ignore (Cache.memo_map ~cache:c ~stage:"t" ~key f [ 0; 2; 1 ]);
  Alcotest.(check (list int)) "only the untouched oldest recomputes" [ 1 ]
    !calls

(* ------------------------------------------------------------------ *)
(* Slots                                                               *)
(* ------------------------------------------------------------------ *)

let slot_battery () =
  let c = Cache.create () in
  Alcotest.(check bool) "absent initially" true
    ((Cache.find_slot c "layout" : int list option) = None);
  Cache.store_slot c "layout" [ 1; 2; 3 ];
  Alcotest.(check (list int)) "round-trip" [ 1; 2; 3 ]
    (Option.get (Cache.find_slot c "layout"));
  Cache.store_slot c "layout" [ 9 ];
  Alcotest.(check (list int)) "overwrite" [ 9 ]
    (Option.get (Cache.find_slot c "layout"));
  (* Slots are invisible to hit/miss counts. *)
  let _, get =
    traced (fun () ->
        ignore (Cache.find_slot c "layout" : int list option);
        ignore (Cache.find_slot c "absent" : int list option))
  in
  Alcotest.(check int) "no hits" 0 (get "cache.hit");
  Alcotest.(check int) "no misses" 0 (get "cache.miss");
  (* clone carries slots into warm replays. *)
  let k = Cache.clone c in
  Alcotest.(check (list int)) "clone carries the slot" [ 9 ]
    (Option.get (Cache.find_slot k "layout"))

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
      let rw, cold = traced (fun () -> Runner.rewrite ~options ~cache:c bin) in
      check_same ~what:(what "cold") uncached rw;
      Alcotest.(check int) (what "cold: no hits") 0 (cold "cache.hit");
      Alcotest.(check bool) (what "cold: misses") true
        (cold "cache.miss" > 0);
      let wc = Cache.clone c in
      let rw, warm = traced (fun () -> Runner.rewrite ~options ~cache:wc bin) in
      check_same ~what:(what "warm") uncached rw;
      Alcotest.(check int) (what "warm: no misses") 0 (warm "cache.miss");
      Alcotest.(check int) (what "warm: all hits") (cold "cache.miss")
        (warm "cache.hit"))
    Mode.all

(* A bound far below one rewrite's working set evicts entries and the
   layout slot while the rewrite runs: the cold run, a warm rerun and a
   rerun after a one-function edit still emit the uncached bytes. *)
let evicting_bound () =
  let bin = spec_bin () in
  let options = opts Mode.Jt in
  let bound = 4096 in
  let c = Cache.create ~max_bytes:bound () in
  let cached b = traced (fun () -> Runner.rewrite ~options ~cache:c b) in
  let uncached = Runner.rewrite ~options bin in
  let rw, _ = cached bin in
  check_same ~what:"cold" uncached rw;
  let rw, warm = cached bin in
  check_same ~what:"warm" uncached rw;
  Alcotest.(check bool) "warm run recomputes evicted entries" true
    (warm "cache.miss" > 0);
  Alcotest.(check int) "layout slot evicted: nothing pinned" 0
    (warm "layout.pinned");
  (match Runner.perturb_function (Runner.parse bin) with
  | None -> Alcotest.fail "no perturbable function in the spec binary"
  | Some (pbin, name) ->
      let rw, _ = cached pbin in
      check_same ~what:("edited " ^ name) (Runner.rewrite ~options pbin) rw);
  let s = Cache.stats c in
  Alcotest.(check bool) "evictions counted" true (s.Cache.c_evict_lru > 0);
  Alcotest.(check bool) "within the bound" true (s.Cache.c_bytes <= bound)

(* Warm the cache on [bin], apply [perturb] to its parse, and rewrite the
   edited binary through a clone of the warm cache under a trace: the
   output must match the edited binary's uncached rewrite; returns the
   trace's counter lookup for the stage-level assertions. *)
let warm_edit ~what perturb =
  let bin = spec_bin () in
  let options = opts Mode.Jt in
  let warm = Cache.create () in
  let _, cold = traced (fun () -> Runner.rewrite ~options ~cache:warm bin) in
  match perturb (Runner.parse bin) with
  | None -> Alcotest.failf "no %s site in the spec binary" what
  | Some (pbin, name) ->
      let uncached = Runner.rewrite ~options pbin in
      let rw, get =
        traced (fun () ->
            Runner.rewrite ~options ~cache:(Cache.clone warm) pbin)
      in
      check_same ~what:(Printf.sprintf "%s %s" what name) uncached rw;
      (get, cold "cache.miss")

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
  Alcotest.(check int) "hits + misses = cold misses" cold
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

(* The cache bound holds while requests are in flight: concurrent
   requests store through the daemon's shared cache, and when the dust
   settles it is within the bound with the evictions counted — no
   request ever saw an error. A second round of the same requests (the
   response memo is off, so each one runs the pipeline) recomputes what
   was evicted and stays within the bound. *)
let serve_lru_eviction () =
  let bound = 32 * 1024 in
  let cache = Cache.create ~max_bytes:bound () in
  let bins =
    List.map
      (fun arch ->
        let b = List.hd (Icfg_workloads.Spec_suite.benchmarks arch) in
        fst (Icfg_workloads.Spec_suite.compile arch b))
      Icfg_isa.Arch.all
  in
  Test_serve.with_server ~workers:2 ~cache ~memo_bytes:1 () @@ fun srv path ->
  let round () =
    List.iter Thread.join
      (List.map
         (fun bin ->
           Thread.create
             (fun () ->
               Client.with_connection path @@ fun c ->
               ignore
                 (rewritten_counters ~what:"in-flight rewrite"
                    (Client.rewrite c ~approach:"ours/jt" bin)))
             ())
         bins)
  in
  round ();
  let served = Test_serve.served srv in
  Alcotest.(check int) "no error responses" 0 (served "serve.errors");
  let cstats = Cache.stats cache in
  Alcotest.(check bool) "evictions happened under service" true
    (cstats.Cache.c_evict_lru > 0);
  Alcotest.(check bool)
    (Printf.sprintf "cache within bound (%d <= %d)" cstats.Cache.c_bytes
       bound)
    true
    (cstats.Cache.c_bytes <= bound);
  let misses = served "cache.misses" in
  round ();
  let again = Cache.stats cache in
  Alcotest.(check int) "second round: no error responses" 0
    (served "serve.errors");
  Alcotest.(check bool) "second round: evicted entries recompute" true
    (served "cache.misses" > misses);
  Alcotest.(check bool) "second round: still within bound" true
    (again.Cache.c_bytes <= bound)

(* Soak: one daemon classifies a stream of distinct corpus binaries
   under small bounds on all three of its LRUs (the pipeline cache,
   the binary store and the response memo). At every scrape each stays
   within its bound; by the end each has evicted; no request errs; and
   every classification equals the in-process cell. Starved shapes
   (tens of MiB each, all bulk) and twins (byte-identical to an earlier
   entry) are left out so the stream is distinct, ordinary traffic. *)
let soak_bounded_daemon () =
  let cache_bytes = 2 * 1024 * 1024
  and store_bytes = 1024 * 1024
  and memo_bytes = 64 * 1024 in
  let entries =
    List.filter
      (fun e ->
        e.Corpus.e_twin_of = None && e.Corpus.e_shape <> Corpus.Starved)
      (Corpus.generate ~seed:7 ~count:300)
  in
  let bins = List.map Corpus.build entries in
  let digests = List.sort_uniq compare (List.map Corpus.digest bins) in
  Alcotest.(check bool)
    (Printf.sprintf "at least 200 distinct binaries (%d)" (List.length digests))
    true
    (List.length digests >= 200);
  let cache = Cache.create ~max_bytes:cache_bytes () in
  Test_serve.with_server ~workers:2 ~cache ~store_bytes ~memo_bytes ()
  @@ fun _srv path ->
  let check_bounds what =
    let snap, _ = Test_serve.scrape path in
    let gauge n =
      Option.value ~default:0 (Icfg_core.Metrics.find_gauge snap n)
    in
    List.iter
      (fun (n, bound) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s %d <= %d" what n (gauge n) bound)
          true
          (gauge n <= bound))
      [
        ("cache.bytes", cache_bytes);
        ("store.bytes", store_bytes);
        ("response_cache.bytes", memo_bytes);
      ];
    snap
  in
  Client.with_connection path (fun c ->
      List.iteri
        (fun i bin ->
          let orig = Runner.run_original bin in
          let _, want =
            Icfg_harness.Matrix.eval_cell ~orig ~approach:"ours/dir" bin
          in
          (match Client.classify c ~approach:"ours/dir" bin with
          | Ok (Protocol.Classified { cls; _ }) ->
              Alcotest.(check string)
                (Printf.sprintf "binary %d: daemon = in-process" i)
                (Icfg_harness.Matrix.cls_to_string want)
                (Icfg_harness.Matrix.cls_to_string cls)
          | Ok r ->
              Alcotest.failf "binary %d: %s" i (Test_serve.response_label r)
          | Error m -> Alcotest.failf "binary %d: transport error %s" i m);
          if i mod 25 = 24 then
            ignore (check_bounds (Printf.sprintf "after %d" (i + 1))))
        bins);
  let snap = check_bounds "final" in
  let counter = Test_serve.counter snap in
  Alcotest.(check int) "no error responses" 0 (counter "serve.errors");
  List.iter
    (fun n ->
      Alcotest.(check bool) (n ^ " counted") true (counter n > 0))
    [ "cache.evict_lru"; "store.evict_lru"; "response_cache.evict_lru" ]

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
        Alcotest.test_case "lru: victim order by access" `Quick
          lru_victim_order;
        Alcotest.test_case "lru: refusal over capacity" `Quick lru_refusal;
        Alcotest.test_case "lru: re-add keeps footprint exact" `Quick
          lru_readd_exact;
        QCheck_alcotest.to_alcotest lru_matches_model;
        Alcotest.test_case "memory: LRU size bound" `Quick memory_lru_bound;
        Alcotest.test_case "memory: LRU hit refresh" `Quick memory_lru_refresh;
        Alcotest.test_case "slots: round-trip, clone" `Quick slot_battery;
        Alcotest.test_case "cached = uncached, cold and warm" `Quick
          cached_equals_uncached;
        Alcotest.test_case "memory: rewrite under an evicting bound" `Quick
          evicting_bound;
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
        Alcotest.test_case "serve: soak under bounded cache, store and memo"
          `Slow soak_bounded_daemon;
      ] );
  ]
