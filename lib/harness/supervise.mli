(** Crash quarantine for pool tasks: catch and classify escaped
    exceptions (including [Stack_overflow]/[Out_of_memory] and the
    injected [Vm.Fault.Injected_crash]/[Tir.Fuel.Exhausted] classes),
    retry under a deterministic count-based policy, and convert
    exhausted tasks into quarantine ledger entries instead of aborting
    the campaign.  No wall clock anywhere, so ledgers are byte-identical
    at any [-j] and across checkpoint/resume. *)

type entry = {
  q_task : int;        (** task id within its campaign/grid *)
  q_seed : int;        (** the task's derived seed *)
  q_class : string;    (** exception class, from {!classify} *)
  q_phase : string;    (** pipeline phase the failure escaped from *)
  q_attempts : int;    (** attempts made before quarantining *)
  q_detail : string;   (** printable exception payload *)
}

type policy = {
  max_retries : int;   (** extra attempts after the first failure *)
  retry_seed : int;    (** folded into attempt-varying derived seeds *)
}

val default_policy : policy
(** [{ max_retries = 1; retry_seed = 0x5EED }]. *)

val classify : exn -> string * string
(** Exception to (class, phase): ["crash"], ["fuel"] (phase = the
    exhausted stage), ["stack-overflow"], ["out-of-memory"],
    ["failure"], or ["exn"]. *)

type 'a outcome = {
  result : ('a, entry) result;
  retries : int;       (** re-attempts actually made *)
}

val run :
  ?policy:policy -> task:int -> seed:int -> (attempt:int -> 'a) ->
  'a outcome
(** Runs [f ~attempt:0], retrying with increasing [attempt] up to
    [policy.max_retries] times on any exception; on exhaustion returns
    the classified quarantine [entry] instead of raising. *)

val entry_to_line : entry -> string
(** One-line form, for the write-only quarantine ledger. *)

val entry_to_value : entry -> Json.t
val entry_of_value : Json.t -> entry option
(** The campaign checkpoint's form (DESIGN.md section 13);
    [entry_of_value] is its strict inverse, [None] on any other
    shape. *)

val render : Format.formatter -> entry list -> unit
(** Human-readable quarantine table. *)
