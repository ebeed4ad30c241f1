(** The common sanitizer interface: an instrumentation pass over Tir
    plus a fresh-per-run VM runtime. *)

exception Unsupported of string
(** A SoftBound-style "compilation error": the tool cannot handle a
    construct in the program, so the case is excluded from its evaluated
    subset (as the paper does for SoftBound+CETS). *)

type t = {
  name : string;
  instrument : Tir.Ir.modul -> unit;
      (** inserts checks/metadata in the linked module in place; may
          raise [Unsupported]; must leave the module verifiable *)
  optimize : Tir.Ir.modul -> unit;
      (** the check-optimization phase (section II.F), separated so the
          driver can run [Tir.Verify] both before and after it;
          identity for tools without check optimizations *)
  verify : Tir.Verify.spec option;
      (** how [Tir.Verify] certifies this tool's output; [None] skips
          the coverage half (well-formedness is always checked) *)
  fresh_runtime : unit -> Vm.Runtime.t;
  default_policy : Vm.Report.policy;
      (** what the driver does with findings unless its [?policy]
          argument overrides it; [Halt] for every stock sanitizer *)
}

val none : t
(** The uninstrumented baseline: plain `clang -O2`. *)

val alloc_family : string list
(** malloc/free/calloc/realloc: the callees sanitizers rewrite or wrap. *)

val is_alloc_family : string -> bool
(** Membership in {!alloc_family}. *)
