(** Small numeric/formatting helpers shared by the rewriter's statistics
    output and the harness's experiment reports, so both layers render
    percentages identically. *)

val mean : float list -> float
val max_f : float list -> float
val min_f : float list -> float

val pct : float -> string
(** Format as a signed percentage with two decimals ("+1.35%"); non-finite
    values (a ratio over an empty bench) render as ["n/a"]. *)

val ratio_pct : base:int -> value:int -> float
(** [(value - base) / base * 100], or [0.] when [base <= 0] (an empty bench
    has no meaningful growth ratio). *)

val ratio : den:int -> num:int -> float
(** [num / den], or [0.] when [den <= 0]. *)

val share : total:int -> part:int -> float
(** [part] as a percentage of [total], or [0.] when [total <= 0]. *)
