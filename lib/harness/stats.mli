(** Aggregates for the performance tables. *)

val average : float list -> float

val geomean_overhead : float list -> float
(** Geometric mean of overhead percentages, computed over the slowdown
    factors (1 + x/100) as SPEC-style geomeans are. *)

val percent_overhead : base:int -> measured:int -> float

(** {1 Nearest rank}

    The [q]-th percentile of [n] samples is the value at sorted index
    [ceil (q/100 * n)] (1-based) — an actual sample, never an
    interpolation. *)

val rank : q:float -> int -> int
(** [rank ~q n] is the 1-based nearest-rank index into [n] sorted
    samples, clamped to [\[1, n\]]; [0] when [n = 0]. *)
