(** The instrumentation skeleton shared by every tool: the rewrite
    phases at the paper's instrumentation points (section II.B-E),
    parameterized by a per-tool policy.

    Phases, in [instrument]'s order:
    + safe-flag downgrade of accesses rooted at unsafe slots/globals;
    + protected-global references loaded from a tagged-pointer table;
    + unsafe stack slots made in the prologue, released in epilogues;
    + allocation-family calls renamed to the tool's intrinsics;
    + pointer arguments stripped at calls to external user code;
    + dereference checks;
    and, after the per-function loop, the protected globals' registration
    at the top of [main].

    Tools whose phase order differs (HWASan, SoftBound/CETS) compose the
    phase functions themselves.  Every phase mints registers and sites
    in a fixed order, which site-keyed telemetry and HWASan's tag draws
    depend on. *)

type t = {
  check_load : string;
  check_store : string;
  produces_addr : bool;
      (** the check returns the address the access then uses: pointers
          stay tagged until checked, so [instrument] also runs phase 1 *)
  check_safe : bool;
      (** statically in-bounds ([safe]) accesses are checked too *)
  gpt_load : string option;
      (** protected globals are referenced through this table load
          (phase 2); their registration then names the table entry *)
  global_make : string option;
      (** registers each unsafe global in [main]'s prologue; [None]
          leaves globals to the tool *)
  stack : (string * string) option;
      (** make/release intrinsics of unsafe stack slots (phase 3) *)
  alloc_prefix : string option;
      (** malloc/free/calloc/realloc become [prefix ^ callee] (phase 4) *)
  extcall_strip : string option;
      (** strips pointer arguments of external user calls (phase 5) *)
}

val checks :
  load:string -> store:string -> produces_addr:bool -> check_safe:bool -> t
(** A policy that only inserts checks; the other phases are off. *)

(** {1 Phases}

    For tools that compose the phases themselves; each is a no-op when
    its policy field is off. *)

type globals
(** The unsafe globals with their table entries, in module order. *)

val protected_globals : Tir.Ir.modul -> globals

val rewrite_globals : t -> Tir.Ir.modul -> globals -> Tir.Ir.func -> unit
(** Phase 2: every operand naming a protected global becomes the result
    of a [gpt_load] intrinsic minted just before its instruction. *)

val insert_global_init : t -> Tir.Ir.modul -> globals -> unit
(** Prepends [global_make (g, size[, entry])] for each global to [main];
    the entry is passed when the policy has a [gpt_load]. *)

val protect_stack :
  ?sized_release:bool -> t -> Tir.Ir.modul -> Tir.Ir.func -> unit
(** Phase 3: [make (slot, size)] in the prologue yields the pointer that
    replaces every slot-address instruction; [release (ptr)] (plus the
    size with [sized_release]) runs before every return. *)

val rename_allocs : t -> Tir.Ir.modul -> Tir.Ir.func -> unit
(** Phase 4. *)

val insert_checks :
  ?after:(Tir.Ir.instr -> Tir.Ir.instr list) -> t -> Tir.Ir.modul ->
  Tir.Ir.func -> unit
(** Phase 6: a [check_load]/[check_store (addr, size)] before each
    access the policy checks; [after i] is appended behind each
    instruction's expansion (SoftBound's metadata propagation). *)

(** {1 Driver} *)

val instrument : ?per_func:(Tir.Ir.func -> unit) -> t -> Tir.Ir.modul -> unit
(** Runs [Tir.Analysis] and the enabled phases over every non-external
    function, then the global registration.  [per_func] runs between
    phases 4 and 5 (CECSan's sub-object narrowing, ASan's redzones). *)

val verify_spec :
  ?strip_mask:int -> ?may_hoist_stores:bool -> ?absint:Tir.Absint.model ->
  ?hazards:string list -> t -> Tir.Verify.spec
(** The verifier's description of the same policy: check names,
    [produces_addr] and [extcall_strip] come from it, and the hazard
    intrinsics are its allocation family, stack make/release and global
    registration plus [hazards].  [strip_mask] defaults to [-1] and
    [may_hoist_stores] to [false]. *)
