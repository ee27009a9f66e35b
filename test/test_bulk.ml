(* Bulk-bytes battery: zero-fill sections through every layer, the
   one-encoder frame writers and the daemon's original-run memo.

   The starved corpus shape carries a 34 MiB all-zero [.bigdata] section;
   these tests pin that holding it as a zero-fill section changes no
   observable result — container bytes, VM runs, rewrites, cache
   behaviour, classifications, wire frames — while its cost stays out of
   the request path. *)

open Icfg_isa
module Section = Icfg_obj.Section
module Symbol = Icfg_obj.Symbol
module Binary = Icfg_obj.Binary
module Binfile = Icfg_obj.Binfile
module Vm = Icfg_runtime.Vm
module Corpus = Icfg_workloads.Corpus
module Spec = Icfg_workloads.Spec_suite
module Baseline = Icfg_baselines.Baseline
module Rewriter = Icfg_core.Rewriter
module Cache = Icfg_core.Cache
module Trace = Icfg_core.Trace
module Runner = Icfg_harness.Runner
module Matrix = Icfg_harness.Matrix
module Protocol = Icfg_service.Protocol
module Server = Icfg_service.Server
module Client = Icfg_service.Client

let corpus = lazy (Corpus.generate ~seed:7 ~count:48)

let starved () =
  let e =
    List.find (fun e -> e.Corpus.e_shape = Corpus.Starved) (Lazy.force corpus)
  in
  Corpus.build e

let plain () =
  let e =
    List.find (fun e -> e.Corpus.e_shape <> Corpus.Starved) (Lazy.force corpus)
  in
  Corpus.build e

(* A copy whose zero-fill sections are held as ordinary zero bytes. *)
let materialized bin =
  let c = Binary.copy bin in
  List.iter (fun s -> ignore (Section.bytes s)) c.Binary.sections;
  c

let bigdata bin = Binary.section_exn bin ".bigdata"

(* ------------------------------------------------------------------ *)
(* Representation                                                      *)
(* ------------------------------------------------------------------ *)

let representation_is_content () =
  let z = Bytes.make 4096 '\000' in
  let mk ~perm = Section.make ~name:".d" ~vaddr:0x1000 ~perm in
  Alcotest.(check bool) "all-zero data is zero-fill" true
    (Section.is_zero (mk ~perm:Section.r_w z));
  Alcotest.(check bool) "all-zero code keeps its bytes" false
    (Section.is_zero (mk ~perm:Section.r_x z));
  Bytes.set z 4095 '\001';
  Alcotest.(check bool) "one non-zero byte keeps the bytes" false
    (Section.is_zero (mk ~perm:Section.r_w z));
  let buf = Bytes.make 100 '\007' in
  Bytes.fill buf 10 50 '\000';
  let sub = Section.of_sub ~name:".d" ~vaddr:0x1000 ~perm:Section.r_w buf 10 50 in
  Alcotest.(check bool) "of_sub = zeros" true
    (sub = Section.zeros ~name:".d" ~vaddr:0x1000 ~perm:Section.r_w 50);
  Alcotest.(check bool) "of_sub = make over the copy" true
    (Section.of_sub ~name:".d" ~vaddr:0x1000 ~perm:Section.r_w buf 5 20
    = Section.make ~name:".d" ~vaddr:0x1000 ~perm:Section.r_w (Bytes.sub buf 5 20))

let starved_roundtrip () =
  let bin = starved () in
  Alcotest.(check bool) ".bigdata is zero-fill" true (Section.is_zero (bigdata bin));
  let s = Binfile.to_string bin in
  let back = Binfile.of_string s in
  Alcotest.(check bool) "decoded container = in-process binary" true (back = bin);
  Alcotest.(check bool) "re-encoded bytes identical" true
    (String.equal (Binfile.to_string back) s);
  Alcotest.(check bool) "zero-fill encodes as the zeros it stands for" true
    (String.equal (Binfile.to_string (materialized bin)) s);
  Alcotest.(check bool) "to_bytes = to_string" true
    (String.equal (Bytes.to_string (Binfile.to_bytes bin)) s)

let write_materializes () =
  let bin = starved () in
  let sec = bigdata bin in
  let addr = sec.Section.vaddr + 4096 in
  let before = Binary.copy bin in
  let c = Binary.copy bin in
  Alcotest.(check int) "zero-fill reads 0" 0 (Binary.read64 c addr);
  Binary.write32 c addr 0x5a5a;
  Alcotest.(check bool) "written copy materialized" false
    (Section.is_zero (bigdata c));
  Alcotest.(check int) "written value reads back" 0x5a5a (Binary.read32 c addr);
  Alcotest.(check int) "rest still zero" 0 (Binary.read64 c (addr + 8));
  Alcotest.(check bool) "original untouched" true (Section.is_zero (bigdata bin));
  Alcotest.(check bool) "earlier copy untouched" true
    (Section.is_zero (bigdata before));
  Alcotest.(check int) "original reads 0" 0 (Binary.read32 bin addr);
  let c2 = Binary.copy c in
  Binary.write8 c2 addr 0x11;
  Alcotest.(check int) "copy of a materialized section is independent" 0x5a5a
    (Binary.read32 c addr)

(* Every slot of a zero-fill section reads 0, and 0 is never a function
   entry, so the value-match pointer scan can skip such a section. *)
let zero_is_never_an_entry () =
  let bins =
    List.map Corpus.build (Lazy.force corpus)
    @ List.concat_map
        (fun arch -> List.map (fun b -> fst (Spec.compile arch b)) (Spec.benchmarks arch))
        Arch.all
  in
  List.iter
    (fun bin ->
      if List.exists (fun (s : Symbol.t) -> s.Symbol.addr = 0) (Binary.func_symbols bin)
      then Alcotest.failf "%s has a function entry at 0" bin.Binary.name)
    bins

(* ------------------------------------------------------------------ *)
(* VM demand-zero                                                      *)
(* ------------------------------------------------------------------ *)

let hand_binary () =
  let r0 = Reg.r0 and r1 = Reg.r1 and r3 = Reg.r3 in
  let insns : Insn.t list =
    [
      Mov (r1, Imm 0x500000);
      Load (W64, r0, BReg r1, 8);
      Out r0;
      Mov (r0, Imm 7);
      Store (W64, BReg r1, 8, r0);
      Load (W64, r3, BReg r1, 8);
      Out r3;
      Load (W32, r3, BReg r1, 12);
      Out r3;
      Mov (r1, Imm 0x501000);
      Store (W64, BReg r1, 0, r0);
      Halt;
    ]
  in
  let buf = Bytes.make 4096 '\000' in
  let pos =
    List.fold_left (fun p i -> p + Encode.encode_into Arch.X86_64 buf ~pos:p i) 0 insns
  in
  Binary.make ~name:"demand-zero" ~arch:Arch.X86_64 ~entry:0x400000
    ~symbols:[ Symbol.make ~name:"f" ~addr:0x400000 ~size:pos Symbol.Func ]
    [
      Section.make ~name:".text" ~vaddr:0x400000 ~perm:Section.r_x (Bytes.sub buf 0 pos);
      Section.zeros ~name:".data" ~vaddr:0x500000 ~perm:Section.r_w 256;
      Section.zeros ~name:".rodata" ~vaddr:0x501000 ~perm:Section.r_only 64;
    ]

let vm_demand_zero () =
  let same name a b =
    Alcotest.(check bool) (name ^ ": same VM result") true (a = b)
  in
  let hand = hand_binary () in
  let r = Vm.run hand in
  Alcotest.(check (list int)) "loads 0, stores, reloads" [ 0; 7; 0 ] r.Vm.output;
  (match r.Vm.outcome with
  | Vm.Crashed _ -> ()
  | Vm.Halted -> Alcotest.fail "store into read-only zero-fill must fault");
  same "hand" r (Vm.run (materialized hand));
  Alcotest.(check bool) "the run left the binary zero-fill" true
    (Section.is_zero (Binary.section_exn hand ".data"));
  let bin = starved () in
  let orig = Runner.run_original bin in
  same "starved original" orig (Runner.run_original (materialized bin));
  match Runner.drive ~approach:"ours/jt" bin with
  | Some (Baseline.Rewritten rw) ->
      let rw' = { rw with Rewriter.rw_binary = materialized rw.Rewriter.rw_binary } in
      same "starved rewritten" (Runner.run_rewritten rw) (Runner.run_rewritten rw')
  | _ -> Alcotest.fail "ours/jt must rewrite the starved binary"

(* ------------------------------------------------------------------ *)
(* Cache and daemon                                                    *)
(* ------------------------------------------------------------------ *)

let outcome_bytes = function
  | Some (Baseline.Rewritten rw) -> "R:" ^ Binfile.to_string rw.Rewriter.rw_binary
  | Some (Baseline.Refused r) -> "F:" ^ r
  | None -> "unknown"

let drive_bytes ?cache approach bin =
  match Runner.drive ?cache ~approach bin with
  | o -> outcome_bytes o
  | exception e -> "X:" ^ Printexc.to_string e

let cached_equals_uncached () =
  let bin = starved () in
  let cache = Cache.create () in
  List.iter
    (fun (approach, _) ->
      let want = drive_bytes approach bin in
      Alcotest.(check bool) (approach ^ " cold = uncached") true
        (String.equal (drive_bytes ~cache approach bin) want);
      Alcotest.(check bool) (approach ^ " warm = uncached") true
        (String.equal (drive_bytes ~cache approach bin) want))
    Baseline.approaches

let with_server f =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "icfg-bulk-%d.sock" (Unix.getpid ()))
  in
  let srv = Server.start ~path () in
  Fun.protect ~finally:(fun () -> Server.stop srv) (fun () -> f path)

let classify c ~approach s =
  match Client.classify_payload c ~approach (Protocol.Full s) with
  | Ok (Protocol.Classified { cls; counters; _ }) -> (cls, counters)
  | _ -> Alcotest.failf "%s: no classification" approach

let counter name counters = Option.value ~default:0 (List.assoc_opt name counters)

let original_run_memo () =
  with_server @@ fun path ->
  Client.with_connection path @@ fun c ->
  List.iter
    (fun bin ->
      let s = Binfile.to_string bin in
      let orig = Runner.run_original bin in
      let hits =
        List.map
          (fun (approach, _) ->
            let cls, counters = classify c ~approach s in
            let want = snd (Matrix.eval_cell ~orig ~approach bin) in
            Alcotest.(check string)
              (bin.Binary.name ^ " " ^ approach ^ " classification")
              (Matrix.cls_to_string want) (Matrix.cls_to_string cls);
            counter "cache.hit:run:original" counters)
          Baseline.approaches
      in
      Alcotest.(check (list int))
        (bin.Binary.name ^ ": original run memo hits 6 of 7")
        [ 0; 1; 1; 1; 1; 1; 1 ] hits)
    [ starved (); plain () ]

let warm_classify_hashes_once () =
  let s = Binfile.to_string (starved ()) in
  with_server @@ fun path ->
  Client.with_connection path @@ fun c ->
  ignore (classify c ~approach:"ours/dir" s);
  let _, counters = classify c ~approach:"ours/jt" s in
  let hashed = counter "cost.bytes_hashed" counters in
  let container = String.length s in
  if hashed < container || hashed >= container + (1 lsl 20) then
    Alcotest.failf "warm starved Classify hashed %d bytes for a %d-byte container"
      hashed container

(* ------------------------------------------------------------------ *)
(* One encoder, two sinks                                              *)
(* ------------------------------------------------------------------ *)

(* Everything [write] puts on one end of a socket pair. *)
let streamed write =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let th =
    Thread.create
      (fun () ->
        Fun.protect ~finally:(fun () -> Unix.close a) (fun () -> write a))
      ()
  in
  let out = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read b chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes out chunk 0 n;
        go ()
  in
  go ();
  Thread.join th;
  Unix.close b;
  Buffer.contents out

let frames_match () =
  let full = Binfile.to_string (starved ()) in
  let digest = String.make 32 'a' and ctrs = [ ("cache.hit", 3); ("x", -1) ] in
  let patch =
    Protocol.Patch
      { base = digest; total_len = 9000; ranges = [ (0, "ab"); (10, String.make 5000 'q') ] }
  in
  let requests =
    Protocol.
      [
        Ping;
        Rewrite { approach = "ours/jt"; reserved = 0; payload = Full full };
        Classify { approach = "srbi"; reserved = 0; payload = Full full };
        Classify { approach = "ours/dir"; reserved = 0; payload = Ref digest };
        Rewrite { approach = "ours/func-ptr"; reserved = 0; payload = patch };
        Stats { flight = true };
        Stats { flight = false };
        Register { bin = full };
      ]
  in
  let snap =
    {
      Icfg_core.Metrics.s_counters = ctrs;
      s_gauges = [ ("g", 2) ];
      s_histos =
        [ ("h", { Icfg_core.Metrics.h_count = 2; h_sum = 9; h_buckets = [ (3, 2) ] }) ];
    }
  in
  let responses =
    Protocol.
      [
        Pong;
        Rewritten { bin = full; digest; counters = ctrs };
        Refused { reason = "no"; digest; counters = [] };
        Classified { cls = Matrix.Verified; ns = 1.5; digest; counters = ctrs };
        Error { message = String.make 5000 'e'; counters = ctrs };
        Overloaded;
        StatsSnapshot { snap; flight = None };
        StatsSnapshot { snap; flight = Some "{}" };
        Registered { digest };
        NeedFull { digest };
        Rejected { reason = "too big" };
      ]
  in
  List.iteri
    (fun i r ->
      Alcotest.(check bool) (Printf.sprintf "request %d streams as its frame" i) true
        (String.equal
           (streamed (fun fd -> Protocol.write_request fd r))
           (streamed (fun fd -> Protocol.write_frame fd (Protocol.request_to_payload r)))))
    requests;
  List.iteri
    (fun i r ->
      Alcotest.(check bool) (Printf.sprintf "response %d streams as its frame" i) true
        (String.equal
           (streamed (fun fd -> Protocol.write_response fd r))
           (streamed (fun fd -> Protocol.write_frame fd (Protocol.response_to_payload r)))))
    responses

let suite =
  [
    ( "bulk",
      [
        Alcotest.test_case "zero-fill is a function of content" `Quick
          representation_is_content;
        Alcotest.test_case "starved binary = decoded container, same bytes" `Quick
          starved_roundtrip;
        Alcotest.test_case "a write materializes, copies untouched" `Quick
          write_materializes;
        Alcotest.test_case "address 0 is never a function entry" `Quick
          zero_is_never_an_entry;
        Alcotest.test_case "VM demand-zero = materialized" `Quick vm_demand_zero;
        Alcotest.test_case "starved: cached = uncached, 7 approaches" `Quick
          cached_equals_uncached;
        Alcotest.test_case "original-run memo: 6 of 7 hits, same classes" `Quick
          original_run_memo;
        Alcotest.test_case "warm starved Classify hashes the container once" `Quick
          warm_classify_hashes_once;
        Alcotest.test_case "streamed frames = write_frame of the payload" `Quick
          frames_match;
      ] );
  ]
