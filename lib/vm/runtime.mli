(** The interface a sanitizer runtime presents to the VM: intrinsic
    implementations, optional allocator replacement, libc interceptors,
    and top-byte-ignore configuration. *)

type intrinsic = State.t -> int array -> int
(** Implementation of an [Iintrin]; the machine appends the site id as a
    trailing argument. *)

type interceptor = State.t -> raw:(int array -> int) -> int array -> int
(** A checking wrapper around a libc builtin.  [raw] runs the
    uninstrumented implementation (with TBI masking already applied when
    the runtime asked for it). *)

type t = {
  rt_name : string;
  intrinsic : string -> intrinsic option;
      (** the implementation of an intrinsic, by name; each machine
          looks every name up once, when it binds its slots *)
  malloc : (State.t -> int -> int) option;
      (** replaces the default allocator (ASan does; CECSan does not) *)
  free_ : (State.t -> int -> unit) option;
  intercept : string -> interceptor option;
      (** a builtin with no interceptor runs raw -- which is precisely
          how overflows through un-wrapped functions escape detection *)
  usable_size : (State.t -> int -> int option) option;
      (** block size under a replaced allocator (for realloc) *)
  tbi_bits : int;
      (** bits of top-byte-ignore requested from the "hardware" *)
  at_exit : State.t -> unit;
}

val none : t
(** The uninstrumented baseline: no intrinsics, no hooks. *)
