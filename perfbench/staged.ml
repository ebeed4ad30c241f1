(* The pipeline one stage at a time, for the traced run.

   [Sanitizer.Driver.build] + [run_module] is one opaque call.  Here the
   same steps are made one public call each -- Parser.parse_program ->
   Sema.check -> Lower.lower -> Promote.run -> instrument -> Verify.check
   -> optimize -> Verify.check -> Vcode.resolve -> Jit.compile ->
   run_module -- with a span around each, so the traced run can say
   which layer the time went to.  [same] checks that the staged program
   is the program the driver builds: equal instrumented size, outcome
   and cycles, or the trace would measure something else. *)

type stages = {
  parse : float;        (* ms, each *)
  sema : float;
  lower : float;
  promote : float;
  instrument : float;
  verify_pre : float;
  optimize : float;
  verify_post : float;
  resolve : float;
  jit_compile : float;  (* 0 on the interpreter *)
  exec : float;
  size_lowered : int;   (* module size entering the sanitizer pass *)
  size_instrumented : int;
  size_optimized : int;
  run : Sanitizer.Driver.run_result;
}

(* The layer that owns a sanitizer's instrument pass. *)
let instrument_layer (san : Sanitizer.Spec.t) =
  match san.Sanitizer.Spec.name with
  | "CECSan" -> "core"
  | "none" -> "sanitizer"
  | _ -> "baselines"

(* Front end: parse, check, lower, promote (the -O2 model), each in its
   own span.  With [optimize = false] the analysis runs instead of
   promotion, as in [Driver.compile]. *)
let front ~optimize src =
  let prog, parse =
    Trace.timed "minic.parse" (fun () -> Minic.Parser.parse_program src)
  in
  let checked, sema =
    Trace.timed "minic.sema" (fun () -> Minic.Sema.check prog)
  in
  let md, lower =
    Trace.timed "tir.lower" (fun () -> Tir.Lower.lower checked)
  in
  let (), promote =
    Trace.timed "tir.promote" (fun () ->
        if optimize then ignore (Tir.Promote.run md)
        else Tir.Analysis.run md)
  in
  (md, parse, sema, lower, promote)

(* Pristine front-end results keyed like the driver's compile cache
   (optimize, source); a hit hands out a clone, as [compile_cached]
   does.  Used by the serve replay, whose repeated sources hit the
   daemon's cache. *)
type cache = (bool * string, Tir.Ir.modul) Hashtbl.t

let reject (san : Sanitizer.Spec.t) stage errors =
  raise
    (Sanitizer.Driver.Verifier_reject
       { tool = san.Sanitizer.Spec.name; stage; errors })

(* Build and run [src] under [san] on [backend], stage by stage.  Raises
   what [Driver.build]/[run_module] raise, with the verifier in Strict
   mode, the driver's default. *)
let run ?cache ?(optimize = true) ?externs ?budget ?seed
    ~(san : Sanitizer.Spec.t) ~backend src : stages =
  let md, parse, sema, lower, promote =
    match cache with
    | None -> front ~optimize src
    | Some tbl ->
      (match Hashtbl.find_opt tbl (optimize, src) with
       | Some pristine ->
         let md =
           Trace.span "sanitizer.compile_cached" (fun () ->
               Tir.Ir.clone pristine)
         in
         (md, 0., 0., 0., 0.)
       | None ->
         let md, a, b, c, d = front ~optimize src in
         Hashtbl.replace tbl (optimize, src) md;
         (Tir.Ir.clone md, a, b, c, d))
  in
  let size_lowered = Tir.Ir.module_size md in
  let lay = instrument_layer san in
  let (), instrument =
    Trace.timed (lay ^ ".instrument") (fun () -> san.Sanitizer.Spec.instrument md)
  in
  let size_instrumented = Tir.Ir.module_size md in
  let spec = san.Sanitizer.Spec.verify in
  let errors (r : Tir.Verify.report) =
    List.map Tir.Verify.error_to_string r.Tir.Verify.r_errors
  in
  let pre, verify_pre =
    Trace.timed "tir.verify_pre" (fun () -> Tir.Verify.check ?spec md)
  in
  if errors pre <> [] then reject san "preopt" (errors pre);
  let (), optimize_ms =
    Trace.timed "sanitizer.optimize" (fun () -> san.Sanitizer.Spec.optimize md)
  in
  let post, verify_post =
    Trace.timed "tir.verify_post" (fun () -> Tir.Verify.check ?spec md)
  in
  if errors post <> [] then reject san "postopt" (errors post);
  if post.Tir.Verify.r_covered < pre.Tir.Verify.r_covered then
    reject san "postopt" [ "coverage shrank across optimization" ];
  let size_optimized = Tir.Ir.module_size md in
  let vc, resolve =
    Trace.timed "vm.resolve" (fun () -> Vm.Vcode.resolve_cached md)
  in
  let jit_compile =
    match backend with
    | Vm.Machine.Jit ->
      snd (Trace.timed "vm.jit_compile" (fun () -> Vm.Jit.compile_cached vc))
    | Vm.Machine.Interp -> 0.
  in
  (* resolution and compilation are memoized on the module, so the run
     below reuses both instead of redoing them *)
  let run, exec =
    Trace.timed "vm.exec" (fun () ->
        Sanitizer.Driver.run_module san ?externs ?budget ?seed ~backend md)
  in
  { parse; sema; lower; promote; instrument; verify_pre;
    optimize = optimize_ms; verify_post; resolve; jit_compile; exec;
    size_lowered; size_instrumented; size_optimized; run }

(* The untraced twin: the public entry points as a user calls them. *)
let driver ?(optimize = true) ?externs ?budget ?seed
    ~(san : Sanitizer.Spec.t) ~backend src : Sanitizer.Driver.run_result =
  Sanitizer.Driver.run_module san ?externs ?budget ?seed ~backend
    (Sanitizer.Driver.build san ~optimize src)

(* The staged run measured the driver's program: same instrumented
   size, outcome and cycles.  [None] when they agree. *)
let same (a : Sanitizer.Driver.run_result) (b : Sanitizer.Driver.run_result)
  : string option =
  let oa = Util.outcome_string a.Sanitizer.Driver.outcome
  and ob = Util.outcome_string b.Sanitizer.Driver.outcome in
  if a.Sanitizer.Driver.instrumented_size <> b.Sanitizer.Driver.instrumented_size
  then
    Some
      (Printf.sprintf "instrumented size %d vs %d"
         a.Sanitizer.Driver.instrumented_size
         b.Sanitizer.Driver.instrumented_size)
  else if not (String.equal oa ob) then
    Some (Printf.sprintf "outcome %s vs %s" oa ob)
  else if a.Sanitizer.Driver.cycles <> b.Sanitizer.Driver.cycles then
    Some
      (Printf.sprintf "cycles %d vs %d" a.Sanitizer.Driver.cycles
         b.Sanitizer.Driver.cycles)
  else None

(* Check-site counters of a run, summed over sites. *)
let checks (r : Sanitizer.Driver.run_result) : int * int * int =
  List.fold_left
    (fun (e, l, c) (row : Telemetry.Snapshot.site_row) ->
       ( e + row.Telemetry.Snapshot.s_executed,
         l + row.Telemetry.Snapshot.s_elided,
         c + row.Telemetry.Snapshot.s_covered ))
    (0, 0, 0) r.Sanitizer.Driver.snapshot.Telemetry.Snapshot.sites
