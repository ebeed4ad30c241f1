(* Workload [fuzz]: in-process guided [Fuzz.Campaign.run] at -j 2 on the
   interpreter over all seven tools (CECSan plus the six baselines), no
   checkpoint directory, in back-to-back campaigns of [chunk] programs.
   The only workload that runs the baselines' instrument passes and
   runtimes, [Fuzz.Gen], [Mutate] and [Corpus], and [Harness.Pool]
   across domains.

   Checks: every campaign satisfies [Campaign.passed] (the differential
   oracle against each program's generated ground truth) and leaves
   nothing quarantined. *)

let jobs = 2

let tools = [ "asan"; "asan--"; "hwasan"; "softbound"; "pacmem"; "cryptsan" ]

let chunk ~smoke = if smoke then 8 else 100

let shard_size ~smoke = if smoke then 4 else 20

(* The generated input: one campaign seed per chunk. *)
let chunk_seed ~seed k = Fuzz.Tape.mix seed (0xF022 + k)

(* Program [i] of the campaign with seed [cs], exactly as the
   campaign's generation shards make it. *)
let program cs i =
  Fuzz.Gen.generate ~inject:(Fuzz.Campaign.inject_of_index i)
    (Fuzz.Tape.fresh ~seed:(Fuzz.Tape.mix cs i))

let inputs ~seed ~smoke =
  String.concat "\n"
    (List.init 4 (fun k ->
         let cs = chunk_seed ~seed k in
         Printf.sprintf "%d %s" cs
           (Digest.to_hex
              (Digest.string
                 (String.concat "\x00"
                    (List.init (chunk ~smoke) (fun i -> (program cs i).Fuzz.Gen.src)))))))

let campaign ?pool ~smoke cs =
  Fuzz.Campaign.run ?pool ~tool_names:tools ~backend:Vm.Machine.Interp
    ~guided:true ~shard_size:(shard_size ~smoke) ~seed:cs ~n:(chunk ~smoke) ()

(* One campaign counted against the tally: every program is an
   operation; one with an oracle failure, or quarantined, fails. *)
let checked_campaign ?pool ~smoke (tally : Util.tally) cs =
  (* each campaign starts from an empty compile cache, as a separate
     cecsan_fuzz run would: no hits from an earlier campaign, and a
     bounded heap *)
  Sanitizer.Driver.clear_compile_cache ();
  let s, ms = Util.timed_ms (fun () -> campaign ?pool ~smoke cs) in
  for _ = 1 to chunk ~smoke do Util.attempt tally done;
  List.iter
    (fun (r : Fuzz.Campaign.row) ->
       if r.Fuzz.Campaign.failures <> [] then
         Util.fail tally
           (Printf.sprintf "campaign %d program %d: %s" cs r.Fuzz.Campaign.index
              (String.concat "," r.Fuzz.Campaign.failures)))
    s.Fuzz.Campaign.rows;
  List.iter
    (fun _ -> Util.fail tally (Printf.sprintf "campaign %d: quarantined task" cs))
    s.Fuzz.Campaign.quarantine;
  if List.length s.Fuzz.Campaign.rows + List.length s.Fuzz.Campaign.quarantine
     <> chunk ~smoke
  then Util.fail tally (Printf.sprintf "campaign %d: programs missing" cs)
  else if not (Fuzz.Campaign.passed s) then
    Util.fail tally (Printf.sprintf "campaign %d: oracle failed" cs);
  (s, ms)

(* Cold CECSan builds of the first [n] programs of the first campaign,
   in process. *)
let compile_sample ~seed ~n (speed : Util.Speed.t) =
  let cs = chunk_seed ~seed 0 in
  Util.geomean
    (List.init n (fun i ->
         if i mod 10 = 0 then Util.Speed.sample speed;
         let src = (program cs i).Fuzz.Gen.src in
         Sanitizer.Driver.clear_compile_cache ();
         Trace.pin_heap ();
         snd
           (Util.timed_ms (fun () ->
                Sanitizer.Driver.build (Cecsan.sanitizer ()) src))))

(* Set-up: spawn the pool's domains and run a small warm-up campaign. *)
let setup ~smoke =
  let pool = Harness.Pool.create ~jobs in
  ignore
    (Fuzz.Campaign.run ~pool ~tool_names:tools ~backend:Vm.Machine.Interp
       ~guided:true ~shard_size:(shard_size ~smoke:true) ~seed:0x5EED
       ~n:(if smoke then 4 else 8) ());
  pool

let summary_row (s : Fuzz.Campaign.summary) ms =
  let programs = s.Fuzz.Campaign.gen_programs + s.Fuzz.Campaign.mut_programs in
  Printf.sprintf
    "{\"row\":\"fuzz\",\"campaign\":%d,\"n\":%d,\"ms\":%.3f,\"gen\":%d,\
     \"mutate\":%d,\"admitted\":%d,\"admit_ratio\":%.4f,\"sites\":%d,\
     \"bits\":%d}"
    s.Fuzz.Campaign.campaign_seed s.Fuzz.Campaign.n ms
    s.Fuzz.Campaign.gen_programs s.Fuzz.Campaign.mut_programs
    (s.Fuzz.Campaign.gen_admitted + s.Fuzz.Campaign.mut_admitted)
    (float_of_int (s.Fuzz.Campaign.gen_admitted + s.Fuzz.Campaign.mut_admitted)
     /. float_of_int (max 1 programs))
    (Fuzz.Coverage.sites s.Fuzz.Campaign.coverage)
    (Fuzz.Coverage.cardinal s.Fuzz.Campaign.coverage)

(* --- traced decomposition ----------------------------------------------- *)

(* Each tool's own leg, as [Oracle.run_tool] runs it, with the layer
   that owns its instrument pass. *)
let tool_legs () =
  ("none", "sanitizer", Sanitizer.Spec.none)
  :: ("cecsan", "core", Cecsan.sanitizer ())
  :: List.filter_map
    (fun n ->
       Option.map (fun s -> (n, "baselines", s)) (Fuzz.Oracle.baseline_of_name n))
    tools

(* One program under spans: generate, the full oracle verdict, then
   each tool's run on its own.  Returns (tool, ms) pairs. *)
let decompose (tally : Util.tally) cs i =
  Trace.span ~req:i "fuzz.program" (fun () ->
      let p, gen_ms = Trace.timed "fuzz.gen" (fun () -> program cs i) in
      let tools_sans =
        List.filter_map Fuzz.Oracle.baseline_of_name tools
      in
      Util.attempt tally;
      let (fs, _, _), oracle_ms =
        Trace.timed "fuzz.oracle" (fun () ->
            Fuzz.Oracle.evaluate_cov ~tools:tools_sans
              ~backend:Vm.Machine.Interp p)
      in
      if fs <> [] then
        Util.fail tally
          (Printf.sprintf "program %d: %s" i
             (String.concat "," (List.map Fuzz.Oracle.failure_name fs)));
      ("gen", gen_ms) :: ("oracle", oracle_ms)
      :: List.map
        (fun (name, layer, san) ->
           let _, ms =
             Trace.timed (layer ^ ".run_tool." ^ name) (fun () ->
                 Fuzz.Oracle.run_tool san ~backend:Vm.Machine.Interp
                   ~optimize:true p.Fuzz.Gen.src)
           in
           ("tool_ms." ^ name, ms))
        (tool_legs ()))

(* --- the workload ------------------------------------------------------- *)

let run ~seed ~seconds ~smoke ~trace : Util.result =
  let tally = Util.tally () in
  let pools =
    List.init 3 (fun _ -> Util.timed_ms (fun () -> setup ~smoke))
  in
  let setup_s = Util.median (List.map (fun (_, ms) -> ms /. 1000.) pools) in
  let pool =
    match List.rev pools with
    | (p, _) :: older ->
      List.iter (fun (p, _) -> Harness.Pool.shutdown p) older;
      p
    | [] -> assert false
  in
  Trace.restart ();
  let t0 = Util.now () in
  let result =
    if not trace then begin
      let deadline = t0 +. (0.9 *. seconds) in
      let speed = Util.Speed.create () and cspeed = Util.Speed.create () in
      let rec go k acc =
        if k > 0 && Util.now () > deadline then List.rev acc
        else
          let () = Util.Speed.sample speed in
          let s, ms =
            checked_campaign ~pool ~smoke tally (chunk_seed ~seed k)
          in
          go (k + 1) ((s, ms) :: acc)
      in
      let runs = go 0 [] in
      let total_ms = List.fold_left (fun a (_, ms) -> a +. ms) 0. runs in
      let n = chunk ~smoke in
      let per_program =
        Util.median
          (List.map (fun (_, ms) -> ms *. float_of_int jobs /. float_of_int n) runs)
      in
      let compile_ms =
        compile_sample ~seed ~n:(if smoke then 4 else 300) cspeed
      in
      let f = Util.Speed.factor speed in
      let raw =
        [ ("verdict_ms", "ms", per_program, f);
          ("verdict_interp_ms", "ms", per_program, f);
          ("compile_ms", "ms", compile_ms, Util.Speed.factor cspeed);
          ( "throughput_per_s", "1/s",
            float_of_int (n * List.length runs) /. (total_ms /. 1000.), f ) ]
      in
      { Util.attempted = 0; failed = 0; failures = [];
        metrics =
          Util.metric "setup_s" "s" setup_s :: Util.at_nominal_speed raw
          @ [ Util.metric "peak_rss_mb" "MB" (Util.peak_rss_mb ()) ];
        rows = Util.raw_row raw :: List.map (fun (s, ms) -> summary_row s ms) runs }
    end
    else begin
      (* Pool efficiency: the same campaign at -j1 and -j2 *)
      let deadline = t0 +. (0.3 *. seconds) in
      let rec pairs k acc =
        if k > 0 && Util.now () > deadline then List.rev acc
        else begin
          let cs = chunk_seed ~seed k in
          let s1, ms1 =
            Trace.span "fuzz.campaign_j1" (fun () ->
                checked_campaign ~smoke tally cs)
          in
          let _, ms2 =
            Trace.span "fuzz.campaign_j2" (fun () ->
                checked_campaign ~pool ~smoke tally cs)
          in
          pairs (k + 1) ((s1, ms1, ms2) :: acc)
        end
      in
      let ps = pairs 0 [] in
      let eff =
        Util.median
          (List.map
             (fun (_, ms1, ms2) -> ms1 /. (float_of_int jobs *. ms2))
             ps)
      in
      (* per-program decomposition *)
      let deadline = Util.now () +. (0.35 *. seconds) in
      let cs = chunk_seed ~seed 0 in
      let rec dec i acc =
        if i > 0 && Util.now () > deadline then acc
        else dec (i + 1) (decompose tally cs i @ acc)
      in
      let parts = dec 0 [] in
      let keys = List.sort_uniq compare (List.map fst parts) in
      let part_rows =
        List.map
          (fun k ->
             let xs = List.filter_map (fun (k', v) -> if k = k' then Some v else None) parts in
             Printf.sprintf
               "{\"row\":\"fuzz\",\"part\":%S,\"n\":%d,\"mean_ms\":%.4f}"
               k (List.length xs) (Util.mean xs))
          keys
      in
      let acc = Probe.create () in
      Probe.run_until ~deadline:(Util.now () +. (0.3 *. seconds)) tally acc
        (List.init (if smoke then 2 else 12) (fun i ->
             { Probe.p_id = i; p_name = Printf.sprintf "program-%d" i;
               p_src = (program cs i).Fuzz.Gen.src; p_expected = None;
               p_externs = Fuzz.Oracle.externs; p_budget = None }));
      { Util.attempted = 0; failed = 0; failures = [];
        metrics = Probe.metrics acc;
        rows =
          Printf.sprintf
            "{\"row\":\"fuzz\",\"pool_efficiency_j%d\":%.4f,\"pairs\":%d}" jobs
            eff (List.length ps)
          :: part_rows
          @ List.map (fun (s, ms, _) -> summary_row s ms) ps }
    end
  in
  Harness.Pool.shutdown pool;
  { result with
    Util.attempted = tally.Util.t_attempted; failed = tally.Util.t_failed;
    failures = Util.notes tally }
