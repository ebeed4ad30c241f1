(* In-memory span recorder for the traced run.

   A span is one call the benchmark makes into a layer: its name
   ("<layer>.<what>"), start and end, the span that was open when it
   started (its parent), and the id of the program or request it belongs
   to, shared by every span of that program.  Spans are only recorded
   from the benchmark's own thread; with tracing off [span] is a plain
   call.  Everything stays in memory until [write] at exit. *)

type span = {
  id : int;
  name : string;
  layer : string;
  req : int;          (* program/request id, -1 when none *)
  parent : int;       (* -1 for a root span *)
  t0 : float;
  t1 : float;
}

let enabled = ref false
let recorded : span list ref = ref []   (* newest first *)
let open_spans : (int * int) list ref = ref []  (* (id, req), innermost first *)
let next_id = ref 0
let started = ref (Util.now ())

(* Starts a fresh recording (called again after a workload's set-up,
   so the traced wall time is the measurement's alone). *)
let reset ~on =
  enabled := on;
  recorded := [];
  open_spans := [];
  next_id := 0;
  started := Util.now ()

let restart () = reset ~on:!enabled

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

(* Runs [f] inside a span and returns its result with its wall time in
   ms.  [req] defaults to the enclosing span's request id. *)
let timed ?req name f =
  if not !enabled then Util.timed_ms f
  else begin
    let id = !next_id in
    incr next_id;
    let parent, inherited =
      match !open_spans with (p, r) :: _ -> (p, r) | [] -> (-1, -1)
    in
    let req = match req with Some r -> r | None -> inherited in
    open_spans := (id, req) :: !open_spans;
    let close t0 =
      let t1 = Util.now () in
      open_spans := List.tl !open_spans;
      recorded :=
        { id; name; layer = layer_of name; req; parent; t0; t1 } :: !recorded;
      (t1 -. t0) *. 1000.
    in
    let t0 = Util.now () in
    match f () with
    | v -> (v, close t0)
    | exception e ->
      ignore (close t0);
      raise e
  end

let span ?req name f = fst (timed ?req name f)

(* Every timed call starts from the same heap state: a full major
   collection from the benchmark's side, so garbage left by the previous
   measurement is not collected on the next one's clock.  Traced, it is
   the benchmark's own time (layer "bench"). *)
let pin_heap () = span "bench.pin_heap" Gc.full_major

let spans () = List.rev !recorded

(* Self time of each span: its duration minus the time its direct
   children cover (children of one span never overlap: the recorder is
   single-threaded). *)
let self_times (ss : span list) : (span * float) list =
  let child_time = Hashtbl.create 1024 in
  List.iter
    (fun s ->
       if s.parent >= 0 then
         Hashtbl.replace child_time s.parent
           ((try Hashtbl.find child_time s.parent with Not_found -> 0.)
            +. (s.t1 -. s.t0)))
    ss;
  List.map
    (fun s ->
       let c = try Hashtbl.find child_time s.id with Not_found -> 0. in
       (s, Float.max 0. (s.t1 -. s.t0 -. c)))
    ss

(* Per-layer self time in seconds, and the seconds of [wall] no root
   span covers. *)
let attribution ~wall : (string * float) list * float =
  let ss = spans () in
  let by_layer = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
       Hashtbl.replace by_layer s.layer
         ((try Hashtbl.find by_layer s.layer with Not_found -> 0.) +. self))
    (self_times ss);
  let covered =
    List.fold_left
      (fun acc s -> if s.parent < 0 then acc +. (s.t1 -. s.t0) else acc)
      0. ss
  in
  let layers =
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_layer []
    |> List.sort compare
  in
  (layers, Float.max 0. (wall -. covered))

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (fun c ->
       match c with
       | '"' -> Buffer.add_string b "\\\""
       | '\\' -> Buffer.add_string b "\\\\"
       | c when Char.code c < 0x20 ->
         Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
       | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

(* One JSON object per line: a header, the caller's extra lines (per
   operation rows, summaries), then every span with times in ms from
   the start of the run. *)
let write ~path ~header ~extra =
  let dir = Filename.dirname path in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  Out_channel.with_open_text path (fun oc ->
      output_string oc header;
      output_char oc '\n';
      List.iter
        (fun l ->
           output_string oc l;
           output_char oc '\n')
        extra;
      List.iter
        (fun s ->
           Printf.fprintf oc
             "{\"span\":%d,\"name\":%s,\"layer\":%s,\"req\":%d,\"parent\":%d,\
              \"start_ms\":%.4f,\"end_ms\":%.4f}\n"
             s.id (json_string s.name) (json_string s.layer) s.req s.parent
             ((s.t0 -. !started) *. 1000.) ((s.t1 -. !started) *. 1000.))
        (spans ()))
