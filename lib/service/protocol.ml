module Matrix = Icfg_harness.Matrix
module Metrics = Icfg_core.Metrics

(* Wire format (DESIGN §13, §15):

   frame   := len:u32le payload            len = |payload|, <= max_frame
   payload := magic:"isrv2" tag:u8 body

   body fields are themselves length-prefixed:
     str  := n:u32le byte*n
     i64  := 8 bytes LE
     f64  := IEEE-754 bits as i64
     ctrs := n:u32le (str i64)*n
     hist := n:u32le (str i64:count i64:sum k:u32le (u32:idx i64:n)*k)*n
     bpay := kind:u8 body                  binary payload, one of
               0x00 Full  body = str bin (Binfile bytes)
               0x01 Ref   body = str digest
               0x02 Patch body = str base_digest, u32 total_len,
                                 u32 nranges, (u32 off, str bytes)*nranges

   Request tags (high bit clear):
     0x01 Ping
     0x02 Rewrite   body = str approach, u32 reserved, bpay
     0x03 Classify  body = str approach, u32 reserved, bpay
     0x04 Stats     body = u8 flight?
     0x05 Register  body = str bin (Binfile bytes)
   Response tags (high bit set):
     0x81 Pong
     0x82 Rewritten     body = str bin, str digest (of the result), ctrs
     0x83 Refused       body = str reason, str digest (of the input), ctrs
     0x84 Classified    body = str cls (Matrix.cls_to_string), f64 ns,
                               str digest (of the input), ctrs
     0x85 Error         body = str message, ctrs
     0x86 Overloaded
     0x87 StatsSnapshot body = ctrs counters, ctrs gauges, hist,
                               u8 has_flight, str flight (if has_flight)
     0x88 Registered    body = str digest
     0x89 NeedFull      body = str digest (the unknown/evicted one)
     0x8A Rejected      body = str reason

   Decoding never raises across the module boundary: [request_of_payload]
   and [response_of_payload] return [Error _] on any malformed input, so a
   garbage frame is a refused request, not a dead connection thread. *)

let magic = "isrv2"
let max_frame = 256 * 1024 * 1024

type payload =
  | Full of string
  | Ref of string
  | Patch of { base : string; total_len : int; ranges : (int * string) list }

type request =
  | Ping
  | Rewrite of { approach : string; reserved : int; payload : payload }
  | Classify of { approach : string; reserved : int; payload : payload }
  | Stats of { flight : bool }
  | Register of { bin : string }

type response =
  | Pong
  | Rewritten of {
      bin : string;
      digest : string;
      counters : (string * int) list;
    }
  | Refused of {
      reason : string;
      digest : string;
      counters : (string * int) list;
    }
  | Classified of {
      cls : Matrix.cls;
      ns : float;
      digest : string;
      counters : (string * int) list;
    }
  | Error of { message : string; counters : (string * int) list }
  | Overloaded
  | StatsSnapshot of { snap : Metrics.snapshot; flight : string option }
  | Registered of { digest : string }
  | NeedFull of { digest : string }
  | Rejected of { reason : string }

(* ---------------- encoding ---------------- *)

let put_u32 b n = Buffer.add_int32_le b (Int32.of_int n)
let put_i64 b n = Buffer.add_int64_le b (Int64.of_int n)
let put_f64 b x = Buffer.add_int64_le b (Int64.bits_of_float x)

let put_str b s =
  put_u32 b (String.length s);
  Buffer.add_string b s

let put_ctrs b ctrs =
  put_u32 b (List.length ctrs);
  List.iter
    (fun (k, v) ->
      put_str b k;
      put_i64 b v)
    ctrs

let payload tag body =
  let b = Buffer.create (16 + String.length body) in
  Buffer.add_string b magic;
  Buffer.add_char b (Char.chr tag);
  Buffer.add_string b body;
  Buffer.contents b

let body f =
  let b = Buffer.create 64 in
  f b;
  Buffer.contents b

let put_payload b = function
  | Full bin ->
      Buffer.add_char b '\x00';
      put_str b bin
  | Ref digest ->
      Buffer.add_char b '\x01';
      put_str b digest
  | Patch { base; total_len; ranges } ->
      Buffer.add_char b '\x02';
      put_str b base;
      put_u32 b total_len;
      put_u32 b (List.length ranges);
      List.iter
        (fun (off, bytes) ->
          put_u32 b off;
          put_str b bytes)
        ranges

let request_to_payload = function
  | Ping -> payload 0x01 ""
  | Rewrite { approach; reserved; payload = p } ->
      payload 0x02
        (body (fun b ->
             put_str b approach;
             put_u32 b reserved;
             put_payload b p))
  | Classify { approach; reserved; payload = p } ->
      payload 0x03
        (body (fun b ->
             put_str b approach;
             put_u32 b reserved;
             put_payload b p))
  | Stats { flight } ->
      payload 0x04 (body (fun b -> Buffer.add_char b (if flight then '\x01' else '\x00')))
  | Register { bin } -> payload 0x05 (body (fun b -> put_str b bin))

let put_histos b histos =
  put_u32 b (List.length histos);
  List.iter
    (fun (name, (h : Metrics.histo)) ->
      put_str b name;
      put_i64 b h.Metrics.h_count;
      put_i64 b h.Metrics.h_sum;
      put_u32 b (List.length h.Metrics.h_buckets);
      List.iter
        (fun (idx, n) ->
          put_u32 b idx;
          put_i64 b n)
        h.Metrics.h_buckets)
    histos

let response_to_payload = function
  | Pong -> payload 0x81 ""
  | Rewritten { bin; digest; counters } ->
      payload 0x82
        (body (fun b ->
             put_str b bin;
             put_str b digest;
             put_ctrs b counters))
  | Refused { reason; digest; counters } ->
      payload 0x83
        (body (fun b ->
             put_str b reason;
             put_str b digest;
             put_ctrs b counters))
  | Classified { cls; ns; digest; counters } ->
      payload 0x84
        (body (fun b ->
             put_str b (Matrix.cls_to_string cls);
             put_f64 b ns;
             put_str b digest;
             put_ctrs b counters))
  | Error { message; counters } ->
      payload 0x85
        (body (fun b ->
             put_str b message;
             put_ctrs b counters))
  | Overloaded -> payload 0x86 ""
  | StatsSnapshot { snap; flight } ->
      payload 0x87
        (body (fun b ->
             put_ctrs b snap.Metrics.s_counters;
             put_ctrs b snap.Metrics.s_gauges;
             put_histos b snap.Metrics.s_histos;
             match flight with
             | None -> Buffer.add_char b '\x00'
             | Some f ->
                 Buffer.add_char b '\x01';
                 put_str b f))
  | Registered { digest } -> payload 0x88 (body (fun b -> put_str b digest))
  | NeedFull { digest } -> payload 0x89 (body (fun b -> put_str b digest))
  | Rejected { reason } -> payload 0x8A (body (fun b -> put_str b reason))

(* ---------------- decoding ---------------- *)

exception Malformed of string

type cursor = { s : string; mutable pos : int }

let need c n =
  if c.pos + n > String.length c.s then raise (Malformed "truncated payload")

let get_u32 c =
  need c 4;
  let v = Int32.to_int (String.get_int32_le c.s c.pos) in
  c.pos <- c.pos + 4;
  if v < 0 then raise (Malformed "negative length") else v

let get_i64 c =
  need c 8;
  let v = Int64.to_int (String.get_int64_le c.s c.pos) in
  c.pos <- c.pos + 8;
  v

let get_f64 c =
  need c 8;
  let v = Int64.float_of_bits (String.get_int64_le c.s c.pos) in
  c.pos <- c.pos + 8;
  v

let get_str c =
  let n = get_u32 c in
  need c n;
  let s = String.sub c.s c.pos n in
  c.pos <- c.pos + n;
  s

let get_ctrs c =
  let n = get_u32 c in
  if n > String.length c.s then raise (Malformed "counter count overflow");
  List.init n (fun _ ->
      let k = get_str c in
      let v = get_i64 c in
      (k, v))

let open_cursor s =
  let ml = String.length magic in
  if String.length s < ml + 1 then raise (Malformed "short payload");
  if String.sub s 0 ml <> magic then raise (Malformed "bad magic");
  let tag = Char.code s.[ml] in
  (tag, { s; pos = ml + 1 })

let finish c v =
  if c.pos <> String.length c.s then raise (Malformed "trailing bytes") else v

let decode f s =
  match f s with
  | v -> Ok v
  | exception Malformed m -> Stdlib.Error m
  | exception _ -> Stdlib.Error "malformed payload"

let get_payload c =
  need c 1;
  let kind = Char.code c.s.[c.pos] in
  c.pos <- c.pos + 1;
  match kind with
  | 0x00 -> Full (get_str c)
  | 0x01 -> Ref (get_str c)
  | 0x02 ->
      let base = get_str c in
      let total_len = get_u32 c in
      let n = get_u32 c in
      if n > String.length c.s then raise (Malformed "range count overflow");
      let ranges =
        List.init n (fun _ ->
            let off = get_u32 c in
            let bytes = get_str c in
            (off, bytes))
      in
      Patch { base; total_len; ranges }
  | k -> raise (Malformed (Printf.sprintf "unknown payload kind 0x%02x" k))

let request_of_payload =
  decode (fun s ->
      let tag, c = open_cursor s in
      match tag with
      | 0x01 -> finish c Ping
      | 0x02 | 0x03 ->
          let approach = get_str c in
          let reserved = get_u32 c in
          let p = get_payload c in
          finish c
            (if tag = 0x02 then Rewrite { approach; reserved; payload = p }
             else Classify { approach; reserved; payload = p })
      | 0x04 ->
          need c 1;
          let flight = c.s.[c.pos] <> '\x00' in
          c.pos <- c.pos + 1;
          finish c (Stats { flight })
      | 0x05 ->
          let bin = get_str c in
          finish c (Register { bin })
      | t -> raise (Malformed (Printf.sprintf "unknown request tag 0x%02x" t)))

let get_histos c =
  let n = get_u32 c in
  if n > String.length c.s then raise (Malformed "histogram count overflow");
  List.init n (fun _ ->
      let name = get_str c in
      let h_count = get_i64 c in
      let h_sum = get_i64 c in
      let k = get_u32 c in
      if k > String.length c.s then raise (Malformed "bucket count overflow");
      let h_buckets =
        List.init k (fun _ ->
            let idx = get_u32 c in
            let v = get_i64 c in
            (idx, v))
      in
      (name, { Metrics.h_count; h_sum; h_buckets }))

let response_of_payload =
  decode (fun s ->
      let tag, c = open_cursor s in
      match tag with
      | 0x81 -> finish c Pong
      | 0x82 ->
          let bin = get_str c in
          let digest = get_str c in
          let counters = get_ctrs c in
          finish c (Rewritten { bin; digest; counters })
      | 0x83 ->
          let reason = get_str c in
          let digest = get_str c in
          let counters = get_ctrs c in
          finish c (Refused { reason; digest; counters })
      | 0x84 ->
          let cls_s = get_str c in
          let ns = get_f64 c in
          let digest = get_str c in
          let counters = get_ctrs c in
          let cls =
            match Matrix.cls_of_string cls_s with
            | Some cls -> cls
            | None -> raise (Malformed ("bad classification: " ^ cls_s))
          in
          finish c (Classified { cls; ns; digest; counters })
      | 0x85 ->
          let message = get_str c in
          let counters = get_ctrs c in
          finish c (Error { message; counters })
      | 0x86 -> finish c Overloaded
      | 0x87 ->
          let s_counters = get_ctrs c in
          let s_gauges = get_ctrs c in
          let s_histos = get_histos c in
          need c 1;
          let has_flight = c.s.[c.pos] <> '\x00' in
          c.pos <- c.pos + 1;
          let flight = if has_flight then Some (get_str c) else None in
          finish c
            (StatsSnapshot
               { snap = { Metrics.s_counters; s_gauges; s_histos }; flight })
      | 0x88 ->
          let digest = get_str c in
          finish c (Registered { digest })
      | 0x89 ->
          let digest = get_str c in
          finish c (NeedFull { digest })
      | 0x8A ->
          let reason = get_str c in
          finish c (Rejected { reason })
      | t -> raise (Malformed (Printf.sprintf "unknown response tag 0x%02x" t)))

(* ---------------- sparse byte deltas ---------------- *)

(* Reconstruction semantics: start from [base] truncated or zero-extended
   to [total_len], then blit each range. Validation is total — a hostile
   patch costs the requester a typed [Error], never a daemon fault. *)
let apply_patch ~base ~total_len ranges =
  if total_len < 0 then Stdlib.Error "bad patch: negative total length"
  else if total_len > max_frame then
    Stdlib.Error
      (Printf.sprintf "bad patch: total length %d over max frame" total_len)
  else begin
    let out = Bytes.make total_len '\x00' in
    Bytes.blit_string base 0 out 0 (min total_len (String.length base));
    let sorted =
      List.stable_sort (fun (a, _) (b, _) -> Int.compare a b) ranges
    in
    let rec go prev_end = function
      | [] -> Ok (Bytes.unsafe_to_string out)
      | (off, bytes) :: rest ->
          let n = String.length bytes in
          if off < 0 then
            Stdlib.Error (Printf.sprintf "bad patch: negative offset %d" off)
          else if off + n > total_len then
            Stdlib.Error
              (Printf.sprintf "bad patch: range [%d,%d) outside length %d" off
                 (off + n) total_len)
          else if off < prev_end then
            Stdlib.Error
              (Printf.sprintf "bad patch: overlapping range at offset %d" off)
          else begin
            Bytes.blit_string bytes 0 out off n;
            go (off + n) rest
          end
    in
    go 0 sorted
  end

(* Byte-diff [target] against [base] (conceptually zero-padded to the
   target's length, mirroring [apply_patch]). Runs of differing bytes
   closer than [gap] apart coalesce into one range — fewer, slightly
   fatter ranges beat many 4-byte ones on framing overhead. *)
let diff_ranges ~base target =
  let bn = String.length base and tn = String.length target in
  let differs i =
    let t = String.unsafe_get target i in
    if i < bn then not (Char.equal t (String.unsafe_get base i))
    else not (Char.equal t '\x00')
  in
  let gap = 16 in
  let runs = ref [] in
  let i = ref 0 in
  while !i < tn do
    if differs !i then begin
      let start = !i in
      let stop = ref (!i + 1) in
      let j = ref (!i + 1) in
      let last_diff = ref !i in
      let scanning = ref true in
      while !scanning && !j < tn do
        if differs !j then begin
          last_diff := !j;
          stop := !j + 1;
          incr j
        end
        else if !j - !last_diff < gap then incr j
        else scanning := false
      done;
      runs := (start, !stop) :: !runs;
      i := !j
    end
    else incr i
  done;
  List.rev_map
    (fun (start, stop) -> (start, String.sub target start (stop - start)))
    !runs

(* ---------------- framing over a fd ---------------- *)

let write_all fd s =
  let b = Bytes.unsafe_of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      let w = Unix.write fd b off (n - off) in
      go (off + w)
  in
  go 0

let read_exact fd n =
  let b = Bytes.create n in
  let rec go off =
    if off = n then Bytes.unsafe_to_string b
    else
      match Unix.read fd b off (n - off) with
      | 0 -> raise (Malformed "connection closed mid-frame")
      | r -> go (off + r)
  in
  go 0

let write_frame fd p =
  let n = String.length p in
  if n > max_frame then invalid_arg "Protocol.write_frame: frame too large";
  let hdr = Bytes.create 4 in
  Bytes.set_int32_le hdr 0 (Int32.of_int n);
  write_all fd (Bytes.unsafe_to_string hdr ^ p)

exception Oversized of int

let drain fd n =
  let chunk = Bytes.create 65536 in
  let rec go remaining =
    if remaining > 0 then
      match Unix.read fd chunk 0 (min remaining (Bytes.length chunk)) with
      | 0 -> raise (Malformed "connection closed mid-frame")
      | r -> go (remaining - r)
  in
  go n

let read_frame ?(max = max_frame) fd =
  (* A clean EOF at a frame boundary is a normal hang-up (None); anything
     else mid-frame is a protocol violation and raises [Malformed] —
     except a well-framed payload over the caller's [max], which is
     drained off the wire and raised as [Oversized] so the connection
     stays usable for a typed refusal. *)
  let max = min max max_frame in
  let hdr = Bytes.create 4 in
  let r = Unix.read fd hdr 0 1 in
  if r = 0 then None
  else begin
    let rec go off =
      if off < 4 then
        match Unix.read fd hdr off (4 - off) with
        | 0 -> raise (Malformed "connection closed mid-frame")
        | r -> go (off + r)
    in
    go 1;
    let n = Int32.to_int (Bytes.get_int32_le hdr 0) in
    if n < 0 || n > max_frame then
      raise (Malformed (Printf.sprintf "frame length %d out of bounds" n));
    if n > max then begin
      drain fd n;
      raise (Oversized n)
    end;
    Some (read_exact fd n)
  end
