(* Content-addressed memoization of per-function pipeline artifacts.

   Store model: one bounded [Lru.t] (final key -> marshalled payload),
   optionally mirrored to [dir]/<key>.entry files. Keys digest every
   input of the cached computation, so invalidation is free: changed
   inputs -> changed key -> miss. The memory tier evicts its
   least-recently-used entries past [max_bytes] (default 1 GiB), which
   bounds a long-lived daemon's footprint. The disk mirror is unbounded
   and self-validating (magic + key echo + payload length + payload
   digest): an entry evicted from memory comes back from disk, and
   anything that fails validation is removed and recomputed — a corrupt
   store can cost time, never correctness. *)

let schema_version = 3

type stats = {
  c_hits : int;
  c_misses : int;
  c_stores : int;
  c_bytes_reused : int;
  c_evict_corrupt : int;
  c_evict_lru : int;
  c_bytes : int;
  c_entries : int;
}

type t = {
  cdir : string option;
  mem : Lru.t;
  lock : Mutex.t;
  mutable hits : int;
  mutable misses : int;
  mutable stores : int;
  mutable bytes_reused : int;
  mutable evict_corrupt : int;
}

let rec mkdir_p d =
  if d = "" || d = "." || d = "/" || Sys.file_exists d then ()
  else begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

let entry_ext = ".entry"
let slot_ext = ".slot"

let file_path dir key ext = Filename.concat dir (key ^ ext)

let create ?dir ?max_bytes () =
  Option.iter mkdir_p dir;
  {
    cdir = dir;
    mem = Lru.create ?max_bytes ();
    lock = Mutex.create ();
    hits = 0;
    misses = 0;
    stores = 0;
    bytes_reused = 0;
    evict_corrupt = 0;
  }

let clone c = { (create ()) with mem = Lru.copy c.mem }

let stats c =
  let m = Lru.stats c.mem in
  Mutex.protect c.lock (fun () ->
      {
        c_hits = c.hits;
        c_misses = c.misses;
        c_stores = c.stores;
        c_bytes_reused = c.bytes_reused;
        c_evict_corrupt = c.evict_corrupt;
        c_evict_lru = m.Lru.st_evictions;
        c_bytes = m.Lru.st_bytes;
        c_entries = m.Lru.st_entries;
      })

let hit_rate s =
  let total = s.c_hits + s.c_misses in
  if total = 0 then 0. else float_of_int s.c_hits /. float_of_int total

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
  Digest.to_hex
    (Digest.string
       (kjoin [ "icfg-cache"; string_of_int schema_version; stage; raw ]))

(* ------------------------------------------------------------------ *)
(* Disk tier                                                           *)
(* ------------------------------------------------------------------ *)

let disk_magic = "icfgcache/1"

let entry_files c =
  match c.cdir with
  | None -> []
  | Some d ->
      let names =
        try Array.to_list (Sys.readdir d) with Sys_error _ -> []
      in
      List.sort String.compare
        (List.filter_map
           (fun n ->
             if Filename.check_suffix n entry_ext then
               Some (Filename.concat d n)
             else None)
           names)

let read_file path =
  try
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> Some (really_input_string ic (in_channel_length ic)))
  with Sys_error _ | End_of_file -> None

(* Entry layout: four '\n'-terminated header lines (magic, key echo,
   payload length, payload MD5 hex) followed by the raw payload. *)
let encode_entry key payload =
  String.concat "\n"
    [
      disk_magic;
      key;
      string_of_int (String.length payload);
      Digest.to_hex (Digest.string payload);
      payload;
    ]

let decode_entry key s =
  let line from =
    match String.index_from_opt s from '\n' with
    | Some i -> Some (String.sub s from (i - from), i + 1)
    | None -> None
  in
  let ( let* ) = Option.bind in
  let* magic, p = line 0 in
  let* k, p = line p in
  let* len_s, p = line p in
  let* dig, p = line p in
  let* len = int_of_string_opt len_s in
  if
    magic = disk_magic && k = key && len >= 0
    && String.length s - p = len
  then
    let payload = String.sub s p len in
    if Digest.to_hex (Digest.string payload) = dig then Some payload
    else None
  else None

(* The disk helpers below assume [c.lock] is held: it serializes the
   tmp+rename writes and the removal of corrupt files. *)

let disk_remove c key ext =
  match c.cdir with
  | None -> ()
  | Some d -> ( try Sys.remove (file_path d key ext) with Sys_error _ -> ())

let count_evict c =
  c.evict_corrupt <- c.evict_corrupt + 1;
  if Trace.active () then Trace.incr "cache.evict_corrupt"

(* Look up [key] on disk; corrupt/stale files are removed and counted. *)
let disk_find c key ext =
  match c.cdir with
  | None -> None
  | Some d -> (
      let path = file_path d key ext in
      if not (Sys.file_exists path) then None
      else
        match read_file path with
        | None -> None
        | Some s -> (
            match decode_entry key s with
            | Some _ as r -> r
            | None ->
                disk_remove c key ext;
                count_evict c;
                None))

(* Best-effort atomic write: a same-directory temp file renamed into
   place, so concurrent readers never observe a torn entry. Failures
   (read-only store, races) silently cost a future recompute. *)
let disk_store c key payload ext =
  match c.cdir with
  | None -> ()
  | Some d -> (
      let path = file_path d key ext in
      let tmp = path ^ ".tmp" in
      try
        let oc = open_out_bin tmp in
        Fun.protect
          ~finally:(fun () -> close_out_noerr oc)
          (fun () -> output_string oc (encode_entry key payload));
        Sys.rename tmp path
      with Sys_error _ -> ( try Sys.remove tmp with Sys_error _ -> ()))

(* ------------------------------------------------------------------ *)
(* Store operations, shared by entries and slots                       *)
(* ------------------------------------------------------------------ *)

(* Raw payload lookup: memory first, then disk (promoting to memory).
   No hit/miss accounting — [memo_map] counts only after the payload
   also unmarshals, so a corrupt payload ends up a miss, not a hit. *)
let find c key ext =
  Mutex.protect c.lock (fun () ->
      match Lru.find c.mem key with
      | Some _ as r -> r
      | None ->
          let r = disk_find c key ext in
          Option.iter (fun payload -> ignore (Lru.add c.mem ~key payload)) r;
          r)

(* A payload over the whole memory bound is kept on disk only. *)
let store c key payload ext =
  Mutex.protect c.lock (fun () ->
      ignore (Lru.add c.mem ~key payload);
      disk_store c key payload ext;
      if ext = entry_ext then c.stores <- c.stores + 1)

(* Drop an entry whose payload would not unmarshal (possible only via a
   hand-crafted or cross-version disk store — the digest protects against
   corruption, not against a foreign writer with a matching digest). *)
let evict c key ext =
  Mutex.protect c.lock (fun () ->
      Lru.remove c.mem key;
      disk_remove c key ext;
      count_evict c)

let count_hit c ~stage n =
  Mutex.protect c.lock (fun () ->
      c.hits <- c.hits + 1;
      c.bytes_reused <- c.bytes_reused + n);
  if Trace.active () then begin
    Trace.incr "cache.hit";
    Trace.incr ("cache.hit:" ^ stage);
    Trace.add "cache.bytes_reused" n
  end

let count_miss c ~stage =
  Mutex.protect c.lock (fun () -> c.misses <- c.misses + 1);
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
   same memory tier (so [clone] carries them into warm replays) and in
   .slot files next to the .entry tier; they are invisible to hit/miss
   statistics and [entry_files]. *)

let slot_key raw = final_key ~stage:"slot" raw

let find_slot (type a) c raw : a option =
  let key = slot_key raw in
  match find c key slot_ext with
  | None -> None
  | Some payload -> (
      match (Marshal.from_string payload 0 : a) with
      | v -> Some v
      | exception _ ->
          evict c key slot_ext;
          None)

let store_slot c raw v =
  store c (slot_key raw) (Marshal.to_string v []) slot_ext

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
            let hit =
              match find c k entry_ext with
              | None -> None
              | Some payload -> (
                  match (Marshal.from_string payload 0 : b) with
                  | v ->
                      count_hit c ~stage (String.length payload);
                      Some v
                  | exception _ ->
                      evict c k entry_ext;
                      None)
            in
            if Option.is_none hit then count_miss c ~stage;
            (x, k, hit))
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
          store c k (Marshal.to_string v []) entry_ext;
          Hashtbl.replace fresh k v)
        misses computed;
      List.map
        (fun (_, k, hit) ->
          match hit with Some v -> v | None -> Hashtbl.find fresh k)
        probed
