(** End-to-end driver: MiniC source -> checked AST -> Tir -> promoted IR
    -> sanitizer instrumentation -> VM run. *)

type run_result = {
  outcome : Vm.Machine.outcome;
  cycles : int;            (** deterministic cost-model cycles *)
  resident : int;          (** bytes: all touched pages *)
  output : string;         (** captured stdout *)
  heap_allocs : int;
  instrumented_size : int; (** static instruction count after the pass *)
  reports : Vm.Report.t list;
      (** findings recorded by a [Recover] sink, in submission order;
          empty under [Halt] (the finding is in [outcome]) *)
  suppressed : int;        (** findings deduplicated or over the cap *)
  snapshot : Telemetry.Snapshot.t;
      (** the run's full telemetry: per-check-site counters, named
          counters, the gauges (metadata-table degradation, injected
          faults, allocator peaks; sorted by key), the bounded event
          ring *)
  site_labels : (int * string) list;
      (** site id -> IR origin ("func.bN\[i\] intrinsic"), sorted — the
          labels behind the [--profile] hot-site report *)
}

val compile : ?optimize:bool -> ?fuel:Tir.Fuel.t -> string -> Tir.Ir.modul
(** Parse, check, lower; [optimize] (default true) runs the -O2 model
    (slot promotion).  Raises [Minic.Sema.Error] or [Tir.Lower.Error].
    Always runs the front end (no caching).  [fuel] burns the produced
    module's size (may raise [Tir.Fuel.Exhausted]). *)

val compile_cached : optimize:bool -> ?fuel:Tir.Fuel.t -> string -> Tir.Ir.modul
(** Like [compile], but parse/check/lower/promote run once per
    (source, optimize) pair; the result is a deep clone ([Tir.Ir.clone])
    of the cached pristine module, safe to mutate.  Thread-safe: the
    cache is shared across Harness.Pool workers.  Fuel burn is
    cache-state independent: a hit burns exactly what the miss would
    have. *)

val clear_compile_cache : unit -> unit
(** Drops every cached module (tests, memory pressure). *)

type verify_mode =
  | Warn    (** report rejections on stderr, keep going *)
  | Strict  (** raise [Verifier_reject] *)

val verify_mode : verify_mode ref
(** What the gate does with a rejected stage when its caller passes no
    [on_reject].  [Strict] by default; the bench switches to [Warn] so a
    verifier regression cannot void a measurement run. *)

exception
  Verifier_reject of { tool : string; stage : string; errors : string list }
(** [stage] is ["preopt"] or ["postopt"]; [errors] are rendered
    [Tir.Verify.error]s (or the coverage-shrink violation). *)

type reports = { pre : Tir.Verify.report; post : Tir.Verify.report }
(** The verifier's reports before and after the check optimizations. *)

val gate :
  ?fuel:Tir.Fuel.t ->
  ?on_reject:(stage:string -> string list -> unit) ->
  Spec.t ->
  Tir.Ir.modul ->
  reports
(** The compile pipeline's one sequencing point: instrument, burn the
    instrumented size from [fuel], verify, optimize, verify again, and
    require the covered-obligation count non-shrinking across the
    optimization.  [build], [build_link] and the static CLI/bench modes
    all run it.  [on_reject] is called for each rejected stage, in
    order: ["preopt"] before the optimization runs, then ["postopt"]
    with the verifier's errors, then ["postopt"] with the coverage
    shrink.  By default it follows [verify_mode]: [Strict] raises
    [Verifier_reject] at the first rejected stage, [Warn] prints to
    stderr.  [fuel] also bounds the verifier dataflow fixpoints.  May
    raise [Spec.Unsupported] or [Tir.Fuel.Exhausted]. *)

val absint_summaries : Spec.t -> Tir.Ir.modul -> Tir.Absint.summary list option
(** The whole-program abstract interpretation over [md] (the state
    [Tir.Verify] replays elision witnesses against): one summary per
    defined function, in module order.  [None] when the sanitizer
    carries no absint model. *)

val build : Spec.t -> ?optimize:bool -> ?fuel:Tir.Fuel.t -> string -> Tir.Ir.modul
(** [compile_cached], then instrument + optimize under the verification
    gate.  May raise [Spec.Unsupported], [Verifier_reject] or
    [Tir.Fuel.Exhausted]. *)

val build_link :
  Spec.t ->
  ?optimize:bool ->
  (string * [ `Instrumented | `Uninstrumented ]) list ->
  Tir.Ir.modul
(** Multi-translation-unit build: compile each unit, link (LTO model),
    then instrument the whole program.  [`Uninstrumented] units model
    precompiled legacy libraries (paper section II.E). *)

val run_module :
  Spec.t ->
  ?lines:string list ->
  ?packets:string list ->
  ?externs:(string * (Vm.State.t -> int array -> int)) list ->
  ?budget:int ->
  ?seed:int ->
  ?policy:Vm.Report.policy ->
  ?fault:Vm.Fault.t ->
  ?backend:Vm.Machine.backend ->
  ?fuel:Tir.Fuel.t ->
  Tir.Ir.modul ->
  run_result
(** Runs an instrumented module.  [lines]/[packets] feed the dummy input
    server; [externs] resolve body-less external functions.  [policy]
    overrides the sanitizer's [default_policy]; [fault] threads a fault
    injector into the run (see {!Vm.Fault}).  [backend] (default
    [Interp]) selects the interpreter or the threaded-code jit; [fuel]
    meters jit compilation (burned identically whether the jit's compile
    cache hits or misses). *)

val pipeline_fuel :
  ?fuel:Tir.Fuel.t -> ?fault:Vm.Fault.t -> unit -> Tir.Fuel.t option
(** The fuel a build and its jit compile burn: [fuel] when given, else a
    compile-phase fuel of [n] steps when [fault] carries a [Fuel n]
    injection (the ["fuel:N"] fault surface), else none.  [run] and the
    static CLI modes both derive their fuel here. *)

val run :
  Spec.t ->
  ?lines:string list ->
  ?packets:string list ->
  ?externs:(string * (Vm.State.t -> int array -> int)) list ->
  ?budget:int ->
  ?seed:int ->
  ?policy:Vm.Report.policy ->
  ?fault:Vm.Fault.t ->
  ?fuel:Tir.Fuel.t ->
  ?backend:Vm.Machine.backend ->
  ?optimize:bool ->
  string ->
  run_result
(** [build] + [run_module] in one step, under the fuel
    [pipeline_fuel ?fuel ?fault ()] (jit compilation included). *)
