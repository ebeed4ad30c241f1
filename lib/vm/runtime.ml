(* The interface a sanitizer runtime presents to the VM.

   A sanitizer is a pair (instrumentation pass, runtime); the pass
   rewrites the IR inserting [Iintrin] calls, and this record supplies
   their implementations plus the runtime-level hooks:

   - [intrinsic]: an implementation by name.  Each machine looks every
     name up once, when it binds its intrinsic slots;
   - [malloc]/[free_]: replace the default allocator (ASan does; CECSan
     pointedly does not);
   - [intercept]: checking wrappers around libc builtins.  A builtin with
     no interceptor runs raw -- which is precisely how overflows through
     functions like wcsncpy escape sanitizers that lack wide-char
     wrappers;
   - [tbi_bits]: bits of top-byte-ignore the runtime asks the hardware
     for (HWASan); addresses are masked accordingly before translation;
   - [at_exit]: runs at program end (leak-style checks, statistics). *)

type intrinsic = State.t -> int array -> int

(* [raw] runs the uninstrumented builtin; an interceptor may check
   arguments, call it, and post-process the result. *)
type interceptor = State.t -> raw:(int array -> int) -> int array -> int

type t = {
  rt_name : string;
  intrinsic : string -> intrinsic option;
  malloc : (State.t -> int -> int) option;
  free_ : (State.t -> int -> unit) option;
  intercept : string -> interceptor option;
  (* size of a live block under this runtime's allocator (for realloc) *)
  usable_size : (State.t -> int -> int option) option;
  tbi_bits : int;
  (* called when a frame with protected stack objects returns is handled
     via intrinsics; this hook runs at program end for leak-style checks *)
  at_exit : State.t -> unit;
}

(* The uninstrumented baseline: no checks at all. *)
let none = {
  rt_name = "none";
  intrinsic = (fun _ -> None);
  malloc = None;
  free_ = None;
  intercept = (fun _ -> None);
  usable_size = None;
  tbi_bits = 0;
  at_exit = (fun _ -> ());
}
