(** Whole-binary parsing: the driver that produces everything the rewriter
    consumes.

    Per function: a CFG built by traversal, jump-table analysis results,
    indirect-tail-call classification via the function-layout gap heuristic
    (section 5.1), instrumentability, and register liveness. Per binary:
    function-pointer sites and the pointer-derived block targets that every
    rewriting mode must treat as potential control-flow landing points. *)

type jt_site =
  | Js_resolved of Jump_table.bound_cause
      (** resolved table, graded by how its bound relates to the guard *)
  | Js_tail_call  (** unresolved jump accepted as an indirect tail call *)
  | Js_unresolved of Jump_table.unres * string
      (** unresolved: typed cause plus human-readable message *)

(** Per-indirect-jump analysis outcome, for coverage attribution. *)

type func_analysis = {
  fa_sym : Icfg_obj.Symbol.t;
  fa_cfg : Cfg.t;  (** final CFG (jump-table edges and pointer targets added) *)
  fa_tables : Jump_table.table list;  (** resolved jump tables *)
  fa_tail_jumps : int list;  (** unresolved jumps classified as tail calls *)
  fa_jt_sites : (int * jt_site) list;
      (** outcome of every indirect jump, keyed by jump address *)
  fa_instrumentable : bool;
  fa_fail_reason : string option;
  fa_liveness : Liveness.t;
}

type t = {
  bin : Icfg_obj.Binary.t;
  fm : Failure_model.t;
  funcs : func_analysis list;
  fptrs : Func_ptr.site list;
  pointer_targets : int list;
      (** addresses that unrewritten pointers may reach (adjusted-entry
          targets, Listing 1) *)
}

type probe = {
  pspan : 'a. string -> (unit -> 'a) -> 'a;
  pcount : string -> int -> unit;
}
(** Observability hooks injected by the caller (the tracing layer lives
    above this library): [pspan name f] times [f] as a nested span,
    [pcount name n] bumps a named counter. Probes must be observation-only —
    [parse] output does not depend on them. *)

val no_probe : probe
(** Pass-through — the default. *)

type memo = {
  mmap :
    'a 'b.
    stage:string -> key:('a -> string) -> ('a -> 'b) -> 'a list -> 'b list;
}
(** A memoizing order-preserving map, injected like [probe] (the
    content-addressed cache lives in the core library, above this one).
    [mmap ~stage ~key f xs] must be observation-equivalent to
    [List.map f xs]; [key x] digests every input [f x] reads, so the
    memoizer may serve a stored result for an equal key. *)

val parse :
  ?fm:Failure_model.t ->
  ?probe:probe ->
  ?memo:memo ->
  Icfg_obj.Binary.t ->
  t
(** Whole-binary parse: two per-function passes (initial CFG + jump-table
    slicing, then finalization + liveness) around the cross-function
    known-data collection, each followed by function-pointer analysis
    ({!Func_ptr.analyze}). [probe] wraps each
    stage in a span ([pass1], [known-data], [func-ptr], [finalize],
    [func-ptr-2] under [parse]) and reports whole-binary counters
    ([parse/funcs], [parse/instrumentable], [parse/jump-tables], ...).

    [memo] memoizes the four per-function stages (stage tags
    [parse/pass1], [parse/fptr], [parse/finalize], [parse/fptr2]). The
    whole-binary context is digested per section kind and compared
    piecewise: every stage key carries the common digest (ABI facts,
    failure model, nameless symbol map, section metadata, pre-function
    text bytes) plus the eh_frame digest; only [parse/finalize] — the
    one stage that dereferences data words — adds the non-text section
    bytes and the round-1 results, so a data-only edit keeps every other
    text-stage hit and a one-symbol rename costs exactly that function's
    entries. Per-function stages additionally key on the function's
    symbol and content slice (extended to the next function start so
    padding is owned); the per-CFG pointer scans key on the scanned
    CFG's content plus the scan-input digest computed inside
    {!Func_ptr.analyze}. Without [memo] the key machinery is never even
    forced, so the default path is bit- and cost-identical to an
    unmemoized parse. *)

val func : t -> string -> func_analysis option
val func_at : t -> int -> func_analysis option
val instrumentable_count : t -> int
val total_funcs : t -> int
val coverage : t -> float
(** Fraction of functions that are instrumentable (the paper's
    instrumentation-coverage metric). *)

val pp_summary : Format.formatter -> t -> unit
