(** Atomic file emission for benchmark and campaign artifacts
    (tmp + same-directory rename, so readers never see a torn file; on
    exception the temp file is removed and the target left untouched). *)

val write_json : path:string -> Json.t -> unit
(** [write_json ~path v] writes [Json.to_string v] plus a newline. *)

val write_lines : path:string -> string list -> unit
(** Each line is written with a trailing newline. *)
