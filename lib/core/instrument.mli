(** CECSan compile-time instrumentation, run over the fully linked module
    (the LTO model of the paper: external functions are known).

    Phases: the shared {!Sanitizer.Skeleton} over {!Opt.policy}
    (safety-flag downgrade for accesses rooted at protected objects,
    Global Pointer Table rewriting, stack object protection,
    allocation-family rewriting, tag stripping at external calls,
    dereference-check insertion) with CECSan's sub-object narrowing
    between allocation rewriting and tag stripping, and the section II.F
    optimizations. *)

val instrument : ?config:Config.t -> Tir.Ir.modul -> unit
(** Check/metadata insertion phases only (no check optimization). *)

val optimize : ?config:Config.t -> Tir.Ir.modul -> unit
(** The section II.F check optimizations (redundant elimination, loop
    hoisting/grouping), gated by the config's [opt_*] switches. *)

val run : ?config:Config.t -> Tir.Ir.modul -> unit
(** [instrument] then [optimize]: the full pass in one step. *)
