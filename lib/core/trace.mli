(** Pipeline observability: hierarchical timed spans + named counters.

    A [Trace.t] collects a tree of wall-clock spans (monotonic-clock
    start/stop, nestable) and a flat bag of named integer counters. The
    pipeline is instrumented against an *ambient* trace installed with
    [with_current]: when none is installed every probe below is a no-op, so
    tracing is strictly observation-only — rewriting with tracing on and off
    produces byte-identical output (enforced by [test/test_trace.ml]).

    Domain-safety: span nesting is tracked per-domain ([Domain.DLS]), and
    attaching finished spans / bumping counters takes the trace's mutex, so
    a trace may be read from another domain while its request records.
    Instrumentation counts properties of the input/output only, so counter
    totals are identical across runs of the same input; span timings may
    differ, totals may not. *)

type t

val create : unit -> t

val with_current : t -> (unit -> 'a) -> 'a
(** Install [t] as {e this domain's} ambient trace for the duration of [f]
    (restoring the previous ambient trace on exit, exceptional or not).
    Spans and counters recorded by the pipeline anywhere under [f] land
    in [t].

    The ambient trace is per-domain ([Domain.DLS]), so concurrent requests
    running on distinct domains (the [icfg serve] executors) each observe
    only their own trace: no cross-request counter bleed. Note that
    sys-threads share their domain's slot — request bodies that record
    must run on dedicated domains, not threads of a shared domain. *)

val active : unit -> bool
(** Is an ambient trace installed? Lets instrumentation skip work whose only
    purpose is feeding a counter. *)

(** {1 Recording} *)

val span : string -> (unit -> 'a) -> 'a
(** Time [f] as a child of the innermost open span on this domain (or as a
    root span). No-op wrapper when no trace is ambient. *)

val add : string -> int -> unit
(** Add [n] to the named counter (created at 0). No-op when no trace is
    ambient. *)

val incr : string -> unit

(** {1 Reading} *)

val counters : t -> (string * int) list
(** Sorted by name. *)

val find_counter : t -> string -> int option

type row = { r_path : string; r_count : int; r_ns : int }
(** Flattened span tree: ["rewrite/place:plan"]-style slash-joined path,
    number of spans merged into the row, summed wall time in ns. *)

val rows : t -> row list
(** First-seen (chronological) order. *)

val to_json : t -> string
(** Schema ["icfg-trace/1"]: [{"schema", "counters": {name: total},
    "spans": [{"name", "ns", "children": [...]}]}]. Counters sorted by
    name; spans in completion order. *)

val with_file : string -> (unit -> 'a) -> 'a
(** Run [f] under a fresh ambient trace and write the {!to_json} report to
    [path] — {e also when [f] raises} (the exception is re-raised after the
    file is written), so failed pipelines stay diagnosable. *)

(** {1 Pipeline adapters} *)

val add_vm : prefix:string -> Icfg_runtime.Vm.result -> unit
(** Record a finished VM run's runtime counters under [prefix] (e.g.
    ["vm/rewritten"]): cycles (total and per cost bucket), steps, traps
    delivered, RA translations, icache hits/misses, unwind steps. *)

val parse_probe : unit -> Icfg_analysis.Parse.probe
(** Probe record wired to the ambient trace, for injection into
    [Parse.parse] (the analysis layer sits below this library and cannot
    call [span]/[add] directly). *)
