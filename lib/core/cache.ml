(* Content-addressed memoization of per-function pipeline artifacts.

   Store model: one bounded [Lru.t] (final key -> marshalled payload).
   Keys digest every input of the cached computation, so invalidation is
   free: changed inputs -> changed key -> miss. The tier evicts its
   least-recently-used entries past [max_bytes] (default 1 GiB), which
   bounds a long-lived daemon's footprint. Hits and misses are counted
   on the ambient [Trace] only; the tier itself reports its state. *)

type stats = { c_evict_lru : int; c_bytes : int; c_entries : int }
type t = Lru.t

let create ?max_bytes () = Lru.create ?max_bytes ()
let clone = Lru.copy

let stats c =
  let m = Lru.stats c in
  {
    c_evict_lru = m.Lru.st_evictions;
    c_bytes = m.Lru.st_bytes;
    c_entries = m.Lru.st_entries;
  }

(* ------------------------------------------------------------------ *)
(* Keys                                                                *)
(* ------------------------------------------------------------------ *)

(* [No_sharing] flattens the value, so two structurally equal values
   marshal identically regardless of how they were built (a cache
   round-trip must not change downstream keys). Cached pipeline values
   are acyclic plain data, so flattening always terminates. *)
let dval v = Marshal.to_string v [ Marshal.No_sharing ]

let kjoin parts =
  let b = Buffer.create 256 in
  List.iter
    (fun p ->
      Buffer.add_string b (string_of_int (String.length p));
      Buffer.add_char b ':';
      Buffer.add_string b p)
    parts;
  Buffer.contents b

let final_key ~stage raw =
  Digest.to_hex (Digest.string (kjoin [ "icfg-cache"; stage; raw ]))

let count_hit ~stage n =
  if Trace.active () then begin
    Trace.incr "cache.hit";
    Trace.incr ("cache.hit:" ^ stage);
    Trace.add "cache.bytes_reused" n
  end

let count_miss ~stage =
  if Trace.active () then begin
    Trace.incr "cache.miss";
    Trace.incr ("cache.miss:" ^ stage)
  end

(* ------------------------------------------------------------------ *)
(* Slots                                                               *)
(* ------------------------------------------------------------------ *)

(* A slot is a small mutable-by-overwrite side value (e.g. the previous
   run's layout snapshot) addressed by what it is {e for} rather than by
   its contents — so a warm run can find "the layout of this binary under
   these options" without knowing what it contains. Slots ride in the
   same tier (so [clone] carries them into warm replays) and are
   invisible to hit/miss counts. *)

let slot_key raw = final_key ~stage:"slot" raw

let find_slot (type a) c raw : a option =
  Option.map
    (fun payload -> (Marshal.from_string payload 0 : a))
    (Lru.find c (slot_key raw))

let store_slot c raw v =
  ignore (Lru.add c ~key:(slot_key raw) (Marshal.to_string v []))

(* ------------------------------------------------------------------ *)
(* memo_map                                                            *)
(* ------------------------------------------------------------------ *)

let memo_map (type a b) ?cache ~stage ~(key : a -> string) (f : a -> b)
    (xs : a list) : b list =
  match cache with
  | None -> List.map f xs
  | Some c ->
      (* Probe phase: keys, lookups and hit/miss accounting happen in
         input order. Hits unmarshal a private copy here — cached values
         contain mutable tables that must never be shared between two
         results. *)
      let probed =
        List.map
          (fun x ->
            let k = final_key ~stage (key x) in
            match Lru.find c k with
            | Some payload ->
                count_hit ~stage (String.length payload);
                (x, k, Some (Marshal.from_string payload 0 : b))
            | None ->
                count_miss ~stage;
                (x, k, None))
          xs
      in
      let misses =
        List.filter_map
          (fun (x, k, hit) ->
            if Option.is_none hit then Some (x, k) else None)
          probed
      in
      let computed = List.map (fun (x, _) -> f x) misses in
      (* Store phase, again in input order. *)
      let fresh = Hashtbl.create (List.length misses * 2) in
      List.iter2
        (fun (_, k) v ->
          ignore (Lru.add c ~key:k (Marshal.to_string v []));
          Hashtbl.replace fresh k v)
        misses computed;
      List.map
        (fun (_, k, hit) ->
          match hit with Some v -> v | None -> Hashtbl.find fresh k)
        probed
