(** CECSan's instantiation of the shared check optimizer (section II.F).
    Unlike redzone tools, CECSan hoists checks on stores as well as
    loads: a store cannot corrupt the disjoint metadata table. *)

val policy : Sanitizer.Skeleton.t
(** CECSan's instrumentation policy under the default config. *)

val spec : Sanitizer.Checkopt.spec
(** The verifier/optimizer view of [policy]. *)

val model : Tir.Absint.model
(** Abstract-interpretation model of the CECSan intrinsics, also
    carried inside [spec.absint]. *)

val purity : Tir.Ir.modul -> string -> bool
(** Memoized [Tir.Analysis.pure_callees] closure over [spec]'s hazard
    set; share one closure across the passes of a pipeline run. *)

val redundant : ?pure:(string -> bool) -> Tir.Ir.modul -> Tir.Ir.func -> unit
val loops :
  ?pure:(string -> bool) -> Tir.Ir.modul -> Config.t -> Tir.Ir.func -> unit

val absint : Tir.Ir.modul -> Sanitizer.Checkopt.absint_stats
(** Certified check elision over the whole module (DESIGN.md section
    16); run after {!redundant} and {!loops}. *)
