(* Each workload's inputs, built from the corpus seed, with the
   reference answers every response is checked against. Everything here
   runs in-process and off the timed clock. *)

module Corpus = Icfg_workloads.Corpus
module Binary = Icfg_obj.Binary
module Binfile = Icfg_obj.Binfile
module Runner = Icfg_harness.Runner
module Matrix = Icfg_harness.Matrix
module Baseline = Icfg_baselines.Baseline
module Rewriter = Icfg_core.Rewriter
module Parse = Icfg_analysis.Parse
module Store = Icfg_service.Store
module Protocol = Icfg_service.Protocol

let roster = List.map fst Baseline.approaches
let ours = List.filter (String.starts_with ~prefix:"ours/") roster

(* Entries per (shape, ISA): two. Starved entries: three, one in
   thirteen, so their 35 MB requests are the slowest 7.7% and set the
   p95 while the median comes from the rest. Classify-stream's 39
   entries x 7 approaches give 273 requests per pass and oneshot's 39 x
   3 modes give 117 rewrites; a run of either has at least 10 samples
   beyond its p95. *)
let per_arch = 2
let starved = 3

type binary = {
  b_bin : Binary.t;
  b_str : string;  (** container bytes, as uploaded or written *)
  b_orig : Runner.run;  (** the original's VM run: the output reference *)
  b_starved : bool;
}

(* What a correct answer is. *)
type expect =
  | Cls of string  (** [Matrix.cls_to_string] of the in-process cell *)
  | Bin of string  (** container bytes of the in-process rewrite *)
  | Refusal of string

type item = {
  it_bin : int;  (** index into [binaries] *)
  it_approach : string;
  it_req : Protocol.request;  (** what the client sends *)
  it_req_bytes : int Lazy.t;
      (** its frame on the wire; lazy, so that encoding the 35 MB
          uploads stays out of set-up *)
  it_expect : expect;
}

let item it_bin it_approach it_req it_expect =
  {
    it_bin;
    it_approach;
    it_req;
    it_req_bytes = lazy (4 + String.length (Protocol.request_to_payload it_req));
    it_expect;
  }

type t = {
  binaries : binary array;
  items : item array;  (** one pass, in stream order *)
  bases : string list;  (** registered with the daemon before a pass *)
}

let binary_of ?(starved = false) bin =
  {
    b_bin = bin;
    b_str = Binfile.to_string bin;
    b_orig = Runner.run_original bin;
    b_starved = starved;
  }

(* A sample of the seed's corpus with the same profile for every seed.
   Within a shape, binary sizes vary severalfold from seed to seed (a
   huge-jt entry draws 32 to 128 cases per table) and the ISA is drawn
   at random, so a corpus prefix made every figure follow the luck of
   the draw. So for each shape and ISA, the first [pool] distinct
   entries (twins left out) are ranked by loaded size and [per_arch] of
   them are kept at evenly spaced quantiles. Starved entries (always
   ppc64le, all dominated by the same bulk section) are taken in corpus
   order. The sample is returned in corpus order. *)
let pool = 6 * per_arch

let sample ~seed ~shapes =
  let arches = Icfg_isa.Arch.all in
  let cell shape arch (e : Corpus.entry) =
    e.Corpus.e_shape = shape && (shape = Corpus.Starved || e.Corpus.e_arch = arch)
  in
  let cells =
    List.concat_map
      (fun shape ->
        if shape = Corpus.Starved then [ (shape, List.hd arches, starved) ]
        else List.map (fun arch -> (shape, arch, pool)) arches)
      shapes
  in
  let rec draw count =
    let es =
      List.filter (fun e -> e.Corpus.e_twin_of = None) (Corpus.generate ~seed ~count)
    in
    let enough (shape, arch, n) = List.length (List.filter (cell shape arch) es) >= n in
    if List.for_all enough cells then es else draw (2 * count)
  in
  let es = draw (32 * pool) in
  let pick (shape, arch, n) =
    let cands = List.filteri (fun i _ -> i < n) (List.filter (cell shape arch) es) in
    let built = List.map (fun e -> (e, Corpus.build e)) cands in
    if shape = Corpus.Starved then built
    else
      let ranked =
        Array.of_list
          (List.stable_sort
             (fun (_, a) (_, b) -> Int.compare a b)
             (List.map (fun (e, bin) -> ((e, bin), Binary.loaded_size bin)) built))
      in
      List.init per_arch (fun j -> fst ranked.((((2 * j) + 1) * pool) / (2 * per_arch)))
  in
  List.concat_map pick cells
  |> List.sort (fun (a, _) (b, _) -> compare a.Corpus.e_id b.Corpus.e_id)

let load ~seed ~shapes =
  Array.of_list
    (List.map
       (fun (e, bin) -> binary_of ~starved:(e.Corpus.e_shape = Corpus.Starved) bin)
       (sample ~seed ~shapes))

let all_shapes = Array.to_list Corpus.all_shapes

(* Every entry x every approach, each shipped in full and checked
   against its in-process matrix cell. *)
let grid ~approaches ~request binaries =
  List.concat
    (List.mapi
       (fun i b ->
         List.map
           (fun a ->
             item i a
               (request ~approach:a (Protocol.Full b.b_str))
               (Cls
                  (Matrix.cls_to_string
                     (snd (Matrix.eval_cell ~orig:b.b_orig ~approach:a b.b_bin)))))
           approaches)
       (Array.to_list binaries))
  |> Array.of_list

(* classify-stream: every entry x every roster approach, corpus-major. *)
let classify_stream ~seed =
  let binaries = load ~seed ~shapes:all_shapes in
  { binaries; items = grid ~approaches:roster ~request:Wire.classify binaries; bases = [] }

(* oneshot-rewrite: every entry x every ours/* mode, rewritten
   in-process; the request is what [icfg submit] would send. *)
let oneshot ~seed =
  let binaries = load ~seed ~shapes:all_shapes in
  { binaries; items = grid ~approaches:ours ~request:Wire.rewrite binaries; bases = [] }

(* edit-loop: per non-starved entry and ours/* mode, rewrite the
   registered base by reference, then three single edits shipped as
   sparse patches against it, then revert to the base (a replay the
   response memo answers). Requests whose in-process rewrite raises are
   left out, so every request has a reference answer. *)
let edit_loop ~seed =
  let shapes = List.filter (fun s -> s <> Corpus.Starved) all_shapes in
  (* Each group: a base, then its edited copies. *)
  let groups =
    List.map
      (fun (_, base) ->
        let p = Parse.parse base in
        base
        :: List.filter_map
             (fun perturb -> Option.map fst (perturb p))
             [ Runner.perturb_function; Runner.perturb_data; Runner.perturb_symbol ])
      (sample ~seed ~shapes)
  in
  let binaries = Array.of_list (List.map (fun b -> binary_of b) (List.concat groups)) in
  let session i0 group =
    let base = binaries.(i0).b_str in
    let digest = Store.digest base in
    let payload i =
      if i = i0 then Protocol.Ref digest
      else
        let str = binaries.(i).b_str in
        Protocol.Patch
          { base = digest; total_len = String.length str; ranges = Protocol.diff_ranges ~base str }
    in
    let request a i =
      let expect =
        match Runner.drive ~approach:a binaries.(i).b_bin with
        | Some (Baseline.Rewritten rw) -> Some (Bin (Binfile.to_string rw.Rewriter.rw_binary))
        | Some (Baseline.Refused reason) -> Some (Refusal reason)
        | None | (exception _) -> None
      in
      Option.to_list
        (Option.map (item i a (Wire.rewrite ~approach:a (payload i))) expect)
    in
    let edits = List.init (List.length group - 1) (fun k -> i0 + 1 + k) in
    List.concat_map
      (fun a ->
        let base_item = request a i0 in
        base_item @ List.concat_map (request a) edits @ base_item)
      ours
  in
  (* Index of each group's base in [binaries]. *)
  let starts = List.rev (snd (List.fold_left (fun (i, acc) g -> (i + List.length g, i :: acc)) (0, []) groups)) in
  {
    binaries;
    items = Array.of_list (List.concat (List.map2 session starts groups));
    bases = List.map (fun i -> binaries.(i).b_str) starts;
  }

(* One ours/* (binary, mode) cell of a workload, run in the VM against
   the original: what verified_pct, run_overhead_pct and
   size_increase_pct aggregate. Computed once per run, off the clock. *)
type verdict = {
  v_approach : string;
  v_cls : string;  (** [Matrix.cls_to_string] of the cell *)
  v_cycles : float option;  (** rewritten / original VM cycles *)
  v_size : float option;  (** rewritten / original loaded size *)
}

let verdicts inp =
  let seen = Hashtbl.create 64 in
  List.filter_map
    (fun it ->
      let key = (it.it_bin, it.it_approach) in
      if (not (List.mem it.it_approach ours)) || Hashtbl.mem seen key then None
      else begin
        Hashtbl.add seen key ();
        let b = inp.binaries.(it.it_bin) in
        let orig = b.b_orig in
        let rw =
          match Runner.drive ~approach:it.it_approach b.b_bin with
          | Some (Baseline.Rewritten rw) -> Some rw
          | Some (Baseline.Refused _) | None | (exception _) -> None
        in
        let ratio a b = Some (float_of_int a /. float_of_int (max 1 b)) in
        Some
          {
            v_approach = it.it_approach;
            v_cls =
              (match (it.it_expect, rw) with
              | Cls c, _ -> c
              | _, Some rw ->
                  Matrix.cls_to_string
                    (Matrix.classify ~orig (Baseline.Rewritten rw))
              | _, None -> "not rewritten");
            v_cycles =
              Option.bind rw (fun rw ->
                  ratio (Runner.run_rewritten rw).Runner.r_cycles
                    orig.Runner.r_cycles);
            v_size =
              Option.bind rw (fun rw ->
                  let st = rw.Rewriter.rw_stats in
                  ratio st.Rewriter.s_new_size st.Rewriter.s_orig_size);
          }
      end)
    (Array.to_list inp.items)
