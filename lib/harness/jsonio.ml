(* Atomic artifact emission, shared by every machine-readable output
   (the BENCH_*.json artifacts, --telemetry-json snapshots, the serve
   aggregate, campaign checkpoints and ledgers).  Writing goes to a
   same-directory temp file which is then renamed over the target:
   rename is atomic on POSIX, so a concurrent reader -- or a reader
   after a SIGKILL mid-write -- never observes a torn file, only the
   previous complete one (or none).  On exception the temp file is
   removed and the target is left untouched. *)

let with_file ~path emit =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  match emit oc with
  | () ->
    close_out oc;
    Sys.rename tmp path
  | exception e ->
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    raise e

let write_json ~path v =
  with_file ~path (fun oc -> output_string oc (Json.to_string v ^ "\n"))

let write_lines ~path lines =
  with_file ~path (fun oc ->
      List.iter (fun l -> output_string oc (l ^ "\n")) lines)
