(** Atomic file emission for benchmark and campaign artifacts
    (tmp + same-directory rename, so readers never see a torn file). *)

val with_file : path:string -> (out_channel -> unit) -> unit
(** [with_file ~path emit] opens [path ^ ".tmp"], hands the channel to
    [emit], then renames over [path].  On exception the temp file is
    removed and [path] is left untouched. *)

val write : path:string -> string -> unit
(** [write ~path contents] atomically replaces [path] with [contents]. *)

val write_json : path:string -> Json.t -> unit
(** [write_json ~path v] writes [Json.to_string v] plus a newline. *)

val write_lines : path:string -> string list -> unit
(** Each line is written with a trailing newline. *)
