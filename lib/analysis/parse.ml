open Icfg_isa
module Binary = Icfg_obj.Binary
module Symbol = Icfg_obj.Symbol
module Section = Icfg_obj.Section

type jt_site =
  | Js_resolved of Jump_table.bound_cause
  | Js_tail_call
  | Js_unresolved of Jump_table.unres * string

type func_analysis = {
  fa_sym : Symbol.t;
  fa_cfg : Cfg.t;
  fa_tables : Jump_table.table list;
  fa_tail_jumps : int list;
  fa_jt_sites : (int * jt_site) list;
  fa_instrumentable : bool;
  fa_fail_reason : string option;
  fa_liveness : Liveness.t;
}

type t = {
  bin : Binary.t;
  fm : Failure_model.t;
  funcs : func_analysis list;
  fptrs : Func_ptr.site list;
  pointer_targets : int list;
}

(* Do the bytes of [lo, hi) decode as pure nop padding? *)
let nop_only bin lo hi =
  let rec go a =
    if a >= hi then true
    else
      match Binary.decode_at bin a with
      | Insn.Nop, len -> go (a + len)
      | _ -> false
      | exception Invalid_argument _ -> false
  in
  go lo

(* SRBI-era tail-call heuristic: frame-teardown instructions appear right
   before the indirect jump. *)
let teardown_before_jump (cfg : Cfg.t) jump =
  match Cfg.block_containing cfg jump with
  | None -> false
  | Some b ->
      List.exists
        (fun (a, insn, _) ->
          a < jump && (match insn with Insn.AddSp n -> n > 0 | _ -> false))
        b.Cfg.b_insns

let analyze_function bin fm (sym : Symbol.t) =
  (* Pass 1: initial CFG and jump-table slices. *)
  let cfg0 = Cfg.build bin sym in
  let slices = List.map (fun j -> (j, Jump_table.slice_jump bin fm cfg0 j)) cfg0.Cfg.ind_jumps in
  let pres =
    List.filter_map
      (fun (_, s) -> match s with Jump_table.S_table p -> Some p | _ -> None)
      slices
  in
  (cfg0, slices, pres)

let finalize_function bin (fm : Failure_model.t) ~known_data fptr_targets
    ((sym : Symbol.t), (cfg0 : Cfg.t), slices) =
  let results =
    List.map
      (fun (j, s) ->
        match s with
        | Jump_table.S_table p ->
            (j, Jump_table.finalize bin fm ~known_data cfg0 p)
        | Jump_table.S_pointer_load ->
            (j, Jump_table.Unresolved (Jump_table.U_pointer_load, "pointer-load"))
        | Jump_table.S_unresolved (u, m) -> (j, Jump_table.Unresolved (u, m)))
      slices
  in
  let tables =
    List.filter_map
      (fun (_, r) ->
        match r with Jump_table.Resolved t -> Some t | _ -> None)
      results
  in
  let unresolved =
    List.filter_map
      (fun (j, r) ->
        match r with Jump_table.Unresolved (u, m) -> Some (j, (u, m)) | _ -> None)
      results
  in
  let jump_table_edges =
    List.map (fun (t : Jump_table.table) -> (t.t_jump, t.t_targets)) tables
  in
  let extra_targets =
    List.filter
      (fun a -> a >= sym.Symbol.addr && a < sym.Symbol.addr + sym.Symbol.size)
      fptr_targets
  in
  let cfg1 = Cfg.build ~extra_targets ~jump_table_edges bin sym in
  (* Classify unresolved jumps. *)
  let table_ranges =
    List.map
      (fun (t : Jump_table.table) ->
        ( t.Jump_table.t_table,
          t.Jump_table.t_table
          + (t.Jump_table.t_count * Insn.width_bytes t.Jump_table.t_width) ))
      (List.filter (fun (t : Jump_table.table) -> t.Jump_table.t_in_code) tables)
  in
  let gap_is_benign (lo, hi) =
    (* Known in-code table data is not a gap; nop padding is benign. *)
    List.exists (fun (tlo, thi) -> lo >= tlo && hi <= thi) table_ranges
    || nop_only bin lo hi
  in
  let tail_jumps, fail_reason =
    if unresolved = [] then ([], None)
    else if fm.layout_tail_call_heuristic then
      if List.for_all gap_is_benign (Cfg.gaps cfg1) then
        (List.map fst unresolved, None)
      else
        ( [],
          Some (snd (snd (List.hd unresolved)) ^ " (function has code gaps)") )
    else
      (* Baseline heuristic: frame tear-down right before the jump. *)
      let tails, fails =
        List.partition (fun (j, _) -> teardown_before_jump cfg1 j) unresolved
      in
      if fails = [] then (List.map fst tails, None)
      else ([], Some (snd (snd (List.hd fails))))
  in
  let instrumentable = fail_reason = None in
  (* Per-site outcome record for coverage attribution: every indirect jump
     resolves to a table (with its bound grading), is accepted as a tail
     call, or stays unresolved with its typed cause. *)
  let jt_sites =
    List.map
      (fun (j, r) ->
        match r with
        | Jump_table.Resolved t -> (j, Js_resolved t.Jump_table.t_bound)
        | Jump_table.Unresolved (u, m) ->
            if List.mem j tail_jumps then (j, Js_tail_call)
            else (j, Js_unresolved (u, m)))
      results
  in
  {
    fa_sym = sym;
    fa_cfg = cfg1;
    fa_tables = tables;
    fa_tail_jumps = tail_jumps;
    fa_jt_sites = jt_sites;
    fa_instrumentable = instrumentable;
    fa_fail_reason = fail_reason;
    fa_liveness = Liveness.analyze cfg1;
  }

(* Observability hooks injected by the caller (the core library's Trace sits
   above this one, so it cannot be named here).
   The default probe is pass-through, so unprobed parses cost nothing. *)
type probe = {
  pspan : 'a. string -> (unit -> 'a) -> 'a;
  pcount : string -> int -> unit;
}

let no_probe = { pspan = (fun _ f -> f ()); pcount = (fun _ _ -> ()) }

(* Memoizing mapper injected by the caller (the content-addressed cache
   lives in the core library, above this one — same inversion as
   [probe]). [mmap ~stage ~key f xs] must be observation-equivalent to
   [List.map f xs] whenever [f] is a pure function of what [key] digests. *)
type memo = {
  mmap :
    'a 'b.
    stage:string -> key:('a -> string) -> ('a -> 'b) -> 'a list -> 'b list;
}

(* ------------------------------------------------------------------ *)
(* Cache keys (computed only when a [memo] is injected)                *)
(* ------------------------------------------------------------------ *)

(* Canonical bytes of a structural value; [No_sharing] so equal values
   digest equally regardless of sharing history. *)
let mdig v = Marshal.to_string v [ Marshal.No_sharing ]

(* Injective (length-prefixed) join of key parts. *)
let kjoin parts =
  let b = Buffer.create 256 in
  List.iter
    (fun p ->
      Buffer.add_string b (string_of_int (String.length p));
      Buffer.add_char b ':';
      Buffer.add_string b p)
    parts;
  Buffer.contents b

(* Whole-binary context, split into per-section digests compared
   piecewise: each stage's key mixes in only the digests of what that
   stage actually reads, so an edit invalidates the stages that depend
   on it and nothing else.

   - [cd_common]: arch/ABI facts, the failure model, the nameless symbol
     map (addresses/sizes/kinds — what CFG building and entry detection
     consume), per-section metadata, and the text bytes before the first
     function. Read by every per-function text stage.
   - [cd_eh]: the eh_frame tables ([Cfg.build] reads landing pads).
   - [cd_data]: every non-text section's bytes. Only jump-table
     finalization dereferences data words, so a data-only edit costs the
     finalize stage and keeps every other text-stage hit.

   Symbol {e names} are deliberately excluded from [cd_common]: no
   per-function analysis of function [f] reads another function's name,
   and [f]'s own name is already in its per-function key — so renaming
   one symbol costs exactly that function's entries instead of flushing
   the store. Relocations are excluded entirely: their only cached
   consumers are the function-pointer scans, whose keys digest the
   reloc-derived slot-target map directly (the [extra] computed inside
   {!Func_ptr.analyze}). The binary's [name] is excluded too — renaming
   a file must not invalidate its entries.

   Each digest is collapsed to 16 bytes here: the raw marshals can be
   tens of MiB for bulk-data binaries, and these strings are copied into
   every per-function key of every stage — digesting once per parse
   keeps key construction O(function size), not O(binary size). *)
type context_digests = {
  cd_common : string;
  cd_eh : string;
  cd_data : string;
}

let context_digests bin fm syms =
  let text = Binary.text bin in
  let first_func =
    List.fold_left
      (fun acc (s : Symbol.t) -> min acc s.Symbol.addr)
      (Section.end_vaddr text) syms
  in
  let head_len = max 0 (first_func - text.Section.vaddr) in
  let head = Bytes.sub_string text.Section.data 0 head_len in
  let section_meta =
    List.map
      (fun (s : Section.t) ->
        ( s.Section.name,
          s.Section.vaddr,
          s.Section.perm,
          s.Section.loaded,
          Bytes.length s.Section.data ))
      bin.Binary.sections
  in
  let nameless_symbols =
    List.map
      (fun (s : Symbol.t) ->
        (s.Symbol.addr, s.Symbol.size, s.Symbol.kind, s.Symbol.global, s.Symbol.version))
      bin.Binary.symbols
  in
  let data_bodies =
    List.filter_map
      (fun (s : Section.t) ->
        if s.Section.name = text.Section.name then None
        else Some (s.Section.name, Bytes.to_string s.Section.data))
      bin.Binary.sections
  in
  {
    cd_common =
      Digest.string
        (mdig
           ( bin.Binary.arch,
             bin.Binary.pie,
             bin.Binary.entry,
             bin.Binary.toc_base,
             bin.Binary.dynsyms,
             bin.Binary.features,
             fm,
             nameless_symbols,
             section_meta,
             head ));
    cd_eh = Digest.string (mdig bin.Binary.eh_frame);
    cd_data = Digest.string (mdig data_bodies);
  }

(* A function's content slice: its text bytes extended to the next
   function start (clamped to the text section), so the padding bytes that
   gap classification and trampoline-region discovery read are part of the
   owning function's key. *)
let func_slices bin syms =
  let text = Binary.text bin in
  let tlo = text.Section.vaddr in
  let thi = Section.end_vaddr text in
  let starts =
    List.sort_uniq compare (List.map (fun (s : Symbol.t) -> s.Symbol.addr) syms)
  in
  let next = Hashtbl.create 64 in
  let rec link = function
    | a :: (b :: _ as rest) ->
        Hashtbl.replace next a b;
        link rest
    | _ -> ()
  in
  link starts;
  fun (sym : Symbol.t) ->
    let lo = max tlo (min thi sym.Symbol.addr) in
    let stop =
      match Hashtbl.find_opt next sym.Symbol.addr with
      | Some nxt -> nxt
      | None -> thi
    in
    let hi = max lo (min thi (max stop (sym.Symbol.addr + sym.Symbol.size))) in
    Bytes.sub_string text.Section.data (lo - tlo) (hi - lo)

let parse ?(fm = Failure_model.ours) ?(probe = no_probe) ?memo bin =
  probe.pspan "parse" @@ fun () ->
  let syms = Binary.func_symbols bin in
  (* Key machinery is forced only when a memo is injected, so the default
     path costs (and does) exactly what it did before memoization. *)
  let keys =
    lazy
      (let cd = context_digests bin fm syms in
       let slice = func_slices bin syms in
       fun pieces (sym : Symbol.t) ->
         kjoin
           (pieces cd
           @ [
               mdig (sym.Symbol.addr, sym.Symbol.size, sym.Symbol.name);
               slice sym;
             ]))
  in
  (* [pieces] selects which context digests this stage's key mixes in —
     the piecewise comparison that keeps unrelated edits from flushing
     the stage. *)
  let fkey pieces sym = (Lazy.force keys) pieces sym in
  let mmap ~stage ~key f l =
    match memo with None -> List.map f l | Some m -> m.mmap ~stage ~key f l
  in
  (* The per-CFG function-pointer scans are keyed on exactly their
     inputs: the scanned CFG's content plus the [extra] digest
     {!Func_ptr.analyze} computes from its frozen cross-CFG state
     (failure model, TOC base, entry set, slot-target map). No context
     digest is needed — everything the scan reads is in those two
     parts. *)
  let scan_map stage =
    Option.map
      (fun m ~extra scan cfgs ->
        m.mmap ~stage
          ~key:(fun (cfg : Cfg.t) -> kjoin [ extra; mdig cfg ])
          scan cfgs)
      memo
  in
  (* Pass 1 over every function: slices for global known-data collection. *)
  let pass1 =
    probe.pspan "pass1" (fun () ->
        mmap ~stage:"parse/pass1"
          ~key:(fkey (fun cd -> [ cd.cd_common; cd.cd_eh ]))
          (fun sym ->
            let cfg0, slices, pres = analyze_function bin fm sym in
            ((sym, cfg0, slices), pres))
          syms)
  in
  let all_pres = List.concat_map snd pass1 in
  let known_data =
    probe.pspan "known-data" (fun () -> Jump_table.known_data bin all_pres)
  in
  (* Function pointers need CFGs; use the pass-1 CFGs (pointer creation
     sites live in code reachable without jump-table edges, and case-body
     sites are found after the final CFG rebuild below if needed). *)
  let cfg0s = List.map (fun ((_, c, _), _) -> c) pass1 in
  let fptrs =
    probe.pspan "func-ptr" (fun () ->
        Func_ptr.analyze
          ?scan_map:(scan_map "parse/fptr")
          bin fm cfg0s)
  in
  let pointer_targets = Func_ptr.derived_block_targets fptrs in
  (* Finalization also reads the cross-function results of round 1 and —
     alone among the text stages — dereferences data words (resolved
     table entries), so its key adds [round1] and [cd_data]. *)
  let round1 = lazy (mdig (known_data, pointer_targets)) in
  let funcs =
    probe.pspan "finalize" (fun () ->
        mmap ~stage:"parse/finalize"
          ~key:(fun ((sym, _, _), _) ->
            fkey
              (fun cd ->
                [ cd.cd_common; cd.cd_eh; cd.cd_data; Lazy.force round1 ])
              sym)
          (fun ((sym, cfg0, slices), _) ->
            finalize_function bin fm ~known_data pointer_targets
              (sym, cfg0, slices))
          pass1)
  in
  (* Second function-pointer pass over the final CFGs (covers pointer
     materializations inside switch-case blocks). The per-CFG keys digest
     the finalized CFGs themselves, which already embed every round-1
     influence (jump-table edges, pointer-target leaders) — so no extra
     round-1 digest is needed, and an unchanged CFG hits even when a
     distant function's analysis moved. *)
  let fptrs =
    probe.pspan "func-ptr-2" (fun () ->
        Func_ptr.analyze
          ?scan_map:(scan_map "parse/fptr2")
          bin fm
          (List.map (fun f -> f.fa_cfg) funcs))
  in
  let pointer_targets = Func_ptr.derived_block_targets fptrs in
  let t = { bin; fm; funcs; fptrs; pointer_targets } in
  probe.pcount "parse/funcs" (List.length t.funcs);
  probe.pcount "parse/instrumentable"
    (List.length (List.filter (fun f -> f.fa_instrumentable) t.funcs));
  probe.pcount "parse/jump-tables"
    (List.fold_left (fun n f -> n + List.length f.fa_tables) 0 t.funcs);
  probe.pcount "parse/tail-jumps"
    (List.fold_left (fun n f -> n + List.length f.fa_tail_jumps) 0 t.funcs);
  probe.pcount "parse/known-data-addrs" (List.length known_data);
  probe.pcount "parse/fptr-sites" (List.length t.fptrs);
  probe.pcount "parse/pointer-targets" (List.length t.pointer_targets);
  t

let func t name =
  List.find_opt (fun f -> f.fa_sym.Symbol.name = name) t.funcs

let func_at t addr =
  List.find_opt
    (fun f ->
      addr >= f.fa_sym.Symbol.addr
      && addr < f.fa_sym.Symbol.addr + f.fa_sym.Symbol.size)
    t.funcs

let instrumentable_count t =
  List.length (List.filter (fun f -> f.fa_instrumentable) t.funcs)

let total_funcs t = List.length t.funcs

let coverage t =
  if t.funcs = [] then 1.0
  else float_of_int (instrumentable_count t) /. float_of_int (total_funcs t)

let pp_summary ppf t =
  Format.fprintf ppf "%s: %d/%d functions instrumentable (%.2f%%), %d fptr sites@."
    t.bin.Binary.name (instrumentable_count t) (total_funcs t)
    (100. *. coverage t)
    (List.length t.fptrs);
  List.iter
    (fun f ->
      match f.fa_fail_reason with
      | Some r ->
          Format.fprintf ppf "  uninstrumentable %s: %s@." f.fa_sym.Symbol.name r
      | None -> ())
    t.funcs
