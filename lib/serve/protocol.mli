(** Wire protocol of the analysis service: line-delimited JSON, one
    value per line, printed by {!Json.to_string} (fixed key order,
    integers only on the wire) so equal messages are byte-identical. *)

type value = Json.t =
  | Null
  | Bool of bool
  | Int of int
  | Str of string
  | List of value list
  | Obj of (string * value) list

val to_string : value -> string
(** {!Json.to_string}. *)

val parse : string -> (value, string) result
(** {!Json.parse}: rejects floats and trailing garbage. *)

val member : string -> value -> value option
(** {!Json.member}. *)

(** {1 Requests} *)

type op =
  | Analyze of { source : string; sanitizer : string; optimize : bool }
      (** compile + run one MiniC source under one sanitizer *)
  | Fuzz of { fz_seed : int; inject : bool }
      (** generate the seeded program and run it under CECSan(-O2) *)
  | Bench of { kernel : string; sanitizer : string }
      (** run one SPEC-like kernel under one sanitizer *)

type request = {
  id : int;                            (** echoed in the response *)
  op : op;
  backend : Vm.Machine.backend option;
      (** [None]: the engine's default backend *)
}

val encode_request : request -> value
val decode_request : value -> (request, string) result

(** {1 Responses} *)

type response = {
  rs_id : int;
  rs_ok : bool;
  rs_outcome : string;   (** rendered [Vm.Machine.outcome]; [""] on error *)
  rs_detected : bool;    (** the sanitizer reported at least one bug *)
  rs_cycles : int;       (** deterministic cost-model cycles (0 on error) *)
  rs_reports : int;      (** findings recorded by a [Recover] sink *)
  rs_error : string;     (** error class + detail; [""] when ok *)
}

val encode_response : response -> value
val decode_response : value -> (response, string) result

(** {1 Stream framing} *)

type line =
  | Request of request
  | Flush      (** process everything queued, in submission order *)
  | Snapshot   (** flush, then emit the session aggregate *)
  | Shutdown   (** flush, respond, stop *)

val decode_line : string -> (line, string) result
(** One wire line: a request object, or a control object whose [op] is
    [flush], [snapshot] or [shutdown].  A blank line decodes to
    [Flush]. *)

val backend_name : Vm.Machine.backend -> string
val backend_of_name : string -> Vm.Machine.backend option
