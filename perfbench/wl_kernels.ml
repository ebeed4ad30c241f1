(* Workload [kernels]: the 16 SPEC2006/2017-like kernels, source to
   verdict through Sanitizer.Driver, single-threaded.  Each kernel runs
   under CECSan on the jit and on the interpreter, and uninstrumented on
   the jit; the compile cache is cleared before every build, so every
   verdict includes a cold compile.  Execute-bound: changes to the Vm,
   the jit or the check intrinsics show here.

   Checks: every run exits with the kernel's hand-written [w_expected];
   the jit reproduces the interpreter's outcome and cycles. *)

let all () = Workloads.Spec2006.all @ Workloads.Spec2017.all

(* The kernels a smoke run uses: the three smallest. *)
let smoke_names = [ "600.perlbench_s"; "602.gcc_s"; "623.xalancbmk_s" ]

let kernels ~smoke =
  if smoke then
    List.filter
      (fun (w : Workloads.Spec2006.t) ->
         List.mem w.Workloads.Spec2006.w_name smoke_names)
      (all ())
  else all ()

(* The generated input: the order the kernels run in, reshuffled for
   every round from the seed. *)
let order ~seed ~smoke round =
  let rng = Random.State.make [| seed; round |] in
  Util.shuffle rng (kernels ~smoke)

let inputs ~seed ~smoke =
  String.concat "\n"
    (List.init 4 (fun round ->
         String.concat " "
           (List.map
              (fun (w : Workloads.Spec2006.t) -> w.Workloads.Spec2006.w_name)
              (order ~seed ~smoke round))))

let legs = Probe.legs

(* One source -> verdict: cold build, then run.  Returns the run with
   its total and build wall times in ms. *)
let verdict (leg : Probe.leg) (w : Workloads.Spec2006.t) =
  let san = leg.Probe.l_san () in
  Sanitizer.Driver.clear_compile_cache ();
  Trace.pin_heap ();
  let t0 = Util.now () in
  let md = Sanitizer.Driver.build san w.Workloads.Spec2006.w_source in
  let build_ms = Util.ms_since t0 in
  let r = Sanitizer.Driver.run_module san ~backend:leg.Probe.l_backend md in
  (r, Util.ms_since t0, build_ms)

(* Set-up: generate the inputs, compile every kernel once cold and run
   the smallest on each leg, so code paths are warm before timing. *)
let setup ~seed ~smoke =
  ignore (inputs ~seed ~smoke);
  let ks = kernels ~smoke in
  List.iter
    (fun (w : Workloads.Spec2006.t) ->
       Sanitizer.Driver.clear_compile_cache ();
       ignore (Sanitizer.Driver.build (Cecsan.sanitizer ())
                 w.Workloads.Spec2006.w_source))
    ks;
  let small =
    List.find
      (fun (w : Workloads.Spec2006.t) ->
         w.Workloads.Spec2006.w_name = "602.gcc_s")
      (all ())
  in
  List.iter (fun leg -> ignore (verdict leg small)) legs

let program_of i (w : Workloads.Spec2006.t) : Probe.program =
  { Probe.p_id = i; p_name = w.Workloads.Spec2006.w_name;
    p_src = w.Workloads.Spec2006.w_source;
    p_expected = Some w.Workloads.Spec2006.w_expected; p_externs = [];
    p_budget = None }

(* Per-kernel spread of the untraced verdict times, one row per
   (kernel, leg), for the trace output. *)
let spread_rows (samples : (string * string, float list) Hashtbl.t) =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) samples []
  |> List.sort compare
  |> List.map (fun ((kernel, leg), xs) ->
      let med = Util.median xs in
      Printf.sprintf
        "{\"row\":\"kernel\",\"kernel\":%S,\"leg\":%S,\"n\":%d,\
         \"median_ms\":%.3f,\"q1_ms\":%.3f,\"q3_ms\":%.3f,\"min_ms\":%.3f,\
         \"max_ms\":%.3f,\"iqr_share\":%.4f}"
        kernel leg (List.length xs) med (Util.quantile 0.25 xs)
        (Util.quantile 0.75 xs) (List.fold_left Float.min infinity xs)
        (List.fold_left Float.max neg_infinity xs)
        ((Util.quantile 0.75 xs -. Util.quantile 0.25 xs) /. med))

let add tbl key x =
  Hashtbl.replace tbl key (x :: (try Hashtbl.find tbl key with Not_found -> []))

(* The untraced measurement: rounds over every kernel and leg until the
   deadline (at least one full round). *)
let measure ~seed ~smoke ~deadline (tally : Util.tally) =
  let total = Hashtbl.create 64 and build = Hashtbl.create 64 in
  let verdicts = ref 0 and busy_ms = ref 0. in
  let speed = Util.Speed.create () in
  let rec round r =
    List.iter
      (fun (w : Workloads.Spec2006.t) ->
         if r = 0 || Util.now () < deadline then begin
           Util.Speed.sample speed;
           let name = w.Workloads.Spec2006.w_name in
           let runs =
             List.filter_map
               (fun (leg : Probe.leg) ->
                  Util.attempt tally;
                  match verdict leg w with
                  | exception e ->
                    Util.fail tally
                      (Printf.sprintf "%s %s: %s" name leg.Probe.l_name
                         (Printexc.to_string e));
                    None
                  | r, ms, build_ms ->
                    incr verdicts;
                    busy_ms := !busy_ms +. ms;
                    (match Probe.expect_exit (program_of 0 w) leg r with
                     | Some note -> Util.fail tally note
                     | None ->
                       add total (name, leg.Probe.l_name) ms;
                       (* compile_ms: the cold CECSan builds *)
                       if leg.Probe.l_name <> Probe.none_jit.Probe.l_name then
                         add build name build_ms);
                    Some (leg.Probe.l_name, r))
               legs
           in
           Probe.check_backends tally name runs
         end)
      (order ~seed ~smoke r);
    if Util.now () < deadline then round (r + 1)
  in
  round 0;
  let geo_leg leg =
    Util.geomean
      (Hashtbl.fold
         (fun (_, l) xs acc ->
            if l = leg.Probe.l_name then Util.median xs :: acc else acc)
         total [])
  in
  let f = Util.Speed.factor speed in
  let raw =
    [ ("verdict_ms", "ms", geo_leg Probe.cecsan_jit, f);
      ("verdict_interp_ms", "ms", geo_leg Probe.cecsan_interp, f);
      ( "compile_ms", "ms",
        Util.geomean
          (Hashtbl.fold (fun _ xs acc -> Util.median xs :: acc) build []),
        f );
      (* verdicts per second of verdict time (heap pins and speed
         references excluded) *)
      ( "throughput_per_s", "1/s",
        float_of_int !verdicts /. (!busy_ms /. 1000.), f ) ]
  in
  (Util.at_nominal_speed raw, Util.raw_row raw :: spread_rows total)

let run ~seed ~seconds ~smoke ~trace : Util.result =
  let setup_s =
    Util.median
      (List.init 3 (fun _ ->
           snd (Util.timed_ms (fun () -> setup ~seed ~smoke)) /. 1000.))
  in
  Trace.restart ();
  let tally = Util.tally () in
  let deadline = Util.now () +. seconds in
  let metrics, rows =
    if not trace then measure ~seed ~smoke ~deadline tally
    else begin
      let progs = List.mapi program_of (order ~seed ~smoke 0) in
      let acc = Probe.create () in
      Probe.run_until ~deadline tally acc progs;
      let named = Hashtbl.create 64 in
      Hashtbl.iter
        (fun (id, leg) xs ->
           Hashtbl.replace named ((List.nth progs id).Probe.p_name, leg) xs)
        acc.Probe.twins;
      (Probe.metrics acc, spread_rows named)
    end
  in
  { Util.attempted = tally.Util.t_attempted; failed = tally.Util.t_failed;
    failures = Util.notes tally;
    metrics =
      (if trace then metrics
       else
         Util.metric "setup_s" "s" setup_s :: metrics
         @ [ Util.metric "peak_rss_mb" "MB" (Util.peak_rss_mb ()) ]);
    rows }
