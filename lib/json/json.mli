(** The one JSON layer: an integer-only value type, a canonical printer
    and a strict parser, shared by the serve wire protocol, telemetry
    snapshots, the campaign checkpoint and every BENCH_*.json artifact.

    Dependency-free, so it sits at the bottom of the library graph. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Str of string
  | List of t list
  | Obj of (string * t) list  (** printed in the order given *)

val to_string : t -> string
(** The canonical form: a single line, [", "] between items, [": "]
    after keys, object keys in the order stored.  Strings escape quotes,
    backslashes and control characters, so equal values render
    byte-identically. *)

val parse : string -> (t, string) result
(** Strict parser for what {!to_string} emits (plus any whitespace
    between tokens); rejects floats, trailing garbage and nesting deeper
    than 256 arrays/objects.  Duplicate keys are NOT rejected (the first
    binding wins on {!member}). *)

val member : string -> t -> t option
(** First binding of the key in an [Obj]. *)
