(** Machine-checkable elision certificates.

    Checkopt's absint phase attaches one witness per elided or
    downgraded check, plus one {!cert} per function holding a witness:
    the block-entry states of its fixpoint.  [Verify] checks the
    certificate in one pass over the post-optimization IR, replays each
    witness against the checked states, and rejects the build in Strict
    mode if either fails. *)

type kind =
  | Welide      (** check removed outright *)
  | Wdowngrade  (** check renamed to its spatial-only variant *)

type t = {
  w_site : int;
  w_func : string;
  w_kind : kind;
  w_reg : int;
  w_dst : int option;
  w_size : int;
  w_obj : string;
  w_lo : int;
  w_hi : int;
  w_objsize : int;
  w_temporal : bool;
  w_escapes : bool;
}

val kind_to_string : kind -> string
val pp : Format.formatter -> t -> unit

(** {1 Certificates}

    The abstract domains of {!Absint}, defined here so a certificate can
    ride on the module ([Ir.m_certs]). *)

module Int_map : Map.S with type key = int
module Int_set : Set.S with type elt = int

(** Abstract value of a register. *)
type aval =
  | Vtop  (** unknown *)
  | Vint of int * int  (** integer in [lo, hi] *)
  | Vptr of { obj : int; lo : int; hi : int }
      (** pointer into object [obj] at byte offset in [lo, hi] *)

type state = {
  s_regs : aval Int_map.t;  (** missing register = [Vtop] *)
  s_freed : Int_set.t;      (** objects a free may have released *)
}

(** A function's claimed fixpoint. *)
type cert = {
  c_func : string;
  c_objs : (string * int) array;
      (** descriptor and size of each object id the states index; must
          equal what the checker rediscovers on the function *)
  c_block_in : state option array;
      (** claimed state at each block entry; [None] = unreachable *)
}
