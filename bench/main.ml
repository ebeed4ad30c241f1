(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation section (DESIGN.md experiment index), plus the
   optimization ablation, the fuzz/resilience/verify grids that write
   the BENCH_*.json artifacts, and bechamel microbenchmarks of the core
   runtime data structures.

     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe -- --table N    -- one table (1-5)
     dune exec bench/main.exe -- --smoke      -- <30 s validation subset
     dune exec bench/main.exe -- --help       -- every experiment and modifier

   One experiment runs per invocation (the first selected, in the order
   [main] tests them); -j, --seed and --backend modify it, and results
   are bit-for-bit identical at any -j and on either backend.  An
   unknown flag or an out-of-range value exits 2. *)

let fmt = Format.std_formatter

(* Every experiment header carries the run seed: a report is
   reproducible from its own text. *)
let run_seed = ref 0x5EED

let section title =
  let title = Printf.sprintf "%s [seed=0x%x]" title !run_seed in
  Format.printf "@.%s@.%s@.@." title (String.make (String.length title) '=')

(* --- per-phase wall-clock accounting (--timings) --------------------------- *)

let timings : (string * float) list ref = ref []

let timed name f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  timings := (name, Unix.gettimeofday () -. t0) :: !timings;
  r

let report_timings ~jobs =
  Format.printf "@.Timings (wall clock, -j %d)@.%s@." jobs
    (String.make 44 '-');
  let total = ref 0.0 in
  List.iter
    (fun (name, t) ->
       total := !total +. t;
       Format.printf "  %-30s %9.2f s@." name t)
    (List.rev !timings);
  Format.printf "%s@.  %-30s %9.2f s@." (String.make 44 '-') "total" !total

(* --- telemetry aggregation (--profile / --telemetry-json) ------------------ *)

let profile_on = ref false

(* Snapshots merge in the order rows come back from the pool (submission
   order) and measurements appear in a row (lineup order) -- so the
   merged snapshot, and its JSON, are identical at any -j. *)
let merged_telemetry = ref Telemetry.Snapshot.empty

let absorb snap =
  merged_telemetry := Telemetry.Snapshot.merge !merged_telemetry snap

(* Folds every measurement's snapshot into the session aggregate and,
   under --profile, prints each kernel's top-10 hottest CECSan check
   sites with their IR origins. *)
let profile_rows (rows : Harness.Overhead.row list) =
  List.iter
    (fun (r : Harness.Overhead.row) ->
       List.iter
         (fun (m : Harness.Overhead.measurement) ->
            absorb m.Harness.Overhead.m_snapshot)
         r.Harness.Overhead.r_measurements;
       if !profile_on then
         match
           List.find_opt
             (fun (m : Harness.Overhead.measurement) ->
                String.equal m.Harness.Overhead.m_tool "CECSan")
             r.Harness.Overhead.r_measurements
         with
         | None -> ()
         | Some m ->
           Format.printf "@.  %s: hottest check sites (CECSan)@."
             r.Harness.Overhead.r_workload;
           let label site =
             List.assoc_opt site m.Harness.Overhead.m_labels
           in
           Telemetry.Snapshot.report ~top:10 ~label fmt
             m.Harness.Overhead.m_snapshot)
    rows

(* --- experiments ----------------------------------------------------------- *)

let run_table1 () =
  section "Experiment: Table I";
  timed "table1" (fun () -> Harness.Tables.table1 fmt ())

let run_table2 ?pool ?backend () =
  section "Experiment: Table II (985 cases x 6 sanitizers, bad+good)";
  let d =
    timed "table2/run" (fun () ->
        Harness.Tables.run_table2 ?pool ?backend ())
  in
  Harness.Tables.table2 fmt d

let run_table3 ?backend () =
  section "Experiment: Table III (Linux-Flaw models under CECSan)";
  timed "table3" (fun () -> Harness.Tables.table3 ?backend fmt ())

let run_table4 ?pool ?backend () =
  section "Experiment: Table IV (SPEC2006-like kernels)";
  let rows =
    timed "table4/run" (fun () ->
        Harness.Overhead.measure ?pool ?backend Workloads.Spec2006.all)
  in
  Harness.Tables.table4 fmt rows;
  profile_rows rows

let run_table5 ?pool ?backend () =
  section "Experiment: Table V (SPEC2017-like kernels)";
  let rows =
    timed "table5/run" (fun () ->
        Harness.Overhead.measure ?pool ?backend Workloads.Spec2017.all)
  in
  Harness.Tables.table5 fmt rows;
  profile_rows rows

let run_fig3 ?backend () =
  section "Experiment: Figure 3";
  timed "fig3" (fun () -> Harness.Figures.fig3 ?backend fmt ())

let run_fig4 ?backend () =
  section "Experiment: Figure 4";
  timed "fig4" (fun () -> Harness.Figures.fig4 ?backend fmt ())

let run_ablation ?pool ?backend () =
  section "Experiment: optimization ablation (section II.F)";
  timed "ablation" (fun () ->
      Harness.Tables.ablation ?pool ?backend fmt Workloads.Spec2006.all)

let run_faults ?pool ?backend () =
  section "Experiment: graceful degradation under injected faults";
  let d =
    timed "faults/run" (fun () -> Harness.Faults.run ?pool ?backend ())
  in
  Harness.Faults.render fmt d

(* --resilience: the supervised-execution degradation table -- the same
   seeded campaign under none / crash / fuel injection scenarios, with
   the ledger written as a machine-readable artifact for CI. *)
let run_resilience ?pool ?backend () =
  section "Experiment: resilience under injected harness faults";
  let rows =
    timed "resilience" (fun () ->
        Fuzz.Campaign.resilience ?pool ?backend ~seed:!run_seed ())
  in
  Fuzz.Campaign.render_resilience fmt rows;
  let file = "BENCH_resilience.json" in
  Harness.Jsonio.write_json ~path:file (Fuzz.Campaign.resilience_json rows);
  Format.printf "@.Resilience table written to %s@." file;
  if not (List.for_all (fun r -> r.Fuzz.Campaign.rs_pass) rows) then exit 1

let run_fuzz ?pool ?backend ~jobs n =
  section "Experiment: differential fuzz campaign";
  let s =
    timed "fuzz" (fun () ->
        Fuzz.Campaign.run ?pool ?backend ~seed:!run_seed ~n ())
  in
  absorb s.Fuzz.Campaign.snapshot;
  Fuzz.Campaign.render fmt ~jobs s;
  if not (Fuzz.Campaign.passed s) then exit 1

(* --fuzz-guided N: the coverage-guided campaign against the blind
   baseline at the same program budget.  Shard size is pinned at 10 so
   the feedback cadence (and hence the artifact) does not depend on the
   default; BENCH_fuzzcov.json carries no wall clock and is
   byte-identical at any -j, including after kill-and-resume. *)
let run_fuzz_guided ?pool ?backend ~jobs n =
  section "Experiment: coverage-guided fuzz campaign";
  let s =
    timed "fuzz-guided" (fun () ->
        Fuzz.Campaign.run ?pool ?backend ~guided:true ~shard_size:10
          ~seed:!run_seed ~n ())
  in
  absorb s.Fuzz.Campaign.snapshot;
  Fuzz.Campaign.render fmt ~jobs s;
  let blind =
    timed "fuzz-blind" (fun () ->
        Fuzz.Campaign.blind_coverage ?pool ?backend ~seed:!run_seed ~n ())
  in
  Format.printf "  blind baseline    : %d bits over %d sites@."
    (Fuzz.Coverage.cardinal blind) (Fuzz.Coverage.sites blind);
  let file = "BENCH_fuzzcov.json" in
  Harness.Jsonio.write_json ~path:file (Fuzz.Campaign.fuzzcov_json ~blind s);
  Format.printf "@.Coverage artifact written to %s@." file;
  if not (Fuzz.Campaign.passed s) then exit 1

(* --verify: run every SPEC kernel under every sanitizer through the
   Driver's verification gate and report how many unsafe accesses it
   proved covered (the translation-validation half of the section II.F
   story).  For tools carrying an absint model the table adds the
   abstract-interpretation facts proved over the optimized IR and the
   elision witnesses replayed; the grid lands in BENCH_verify.json.
   The gate's per-phase wall time is perfbench's
   [tir.verify_pre_ms]/[tir.verify_post_ms]. *)
let run_verify () =
  section "Experiment: static verification (Tir.Verify, SPEC kernels)";
  let tools =
    [ Cecsan.sanitizer ();
      Baselines.Asan.sanitizer ();
      Baselines.Asan_minus.sanitizer ();
      Baselines.Hwasan.sanitizer ();
      Baselines.Softbound_cets.sanitizer ();
      Baselines.Pacmem.sanitizer ();
      Baselines.Cryptsan.sanitizer () ]
  in
  let rows = ref [] in
  Format.printf "  %-14s %-14s %9s %9s %9s %7s@." "kernel" "tool"
    "accesses" "covered" "witnesses" "facts";
  timed "verify" (fun () ->
      List.iter
        (fun (w : Workloads.Spec2006.t) ->
           List.iter
             (fun (san : Sanitizer.Spec.t) ->
                (* every rejected error, and a coverage shrink, is one
                   issue *)
                let issues = ref 0 in
                match
                  let md =
                    Sanitizer.Driver.compile_cached ~optimize:true
                      w.Workloads.Spec2006.w_source
                  in
                  let { Sanitizer.Driver.post; _ } =
                    Sanitizer.Driver.gate san md
                      ~on_reject:(fun ~stage:_ errors ->
                          issues := !issues + List.length errors)
                  in
                  let facts =
                    match Sanitizer.Driver.absint_summaries san md with
                    | Some sums ->
                      List.fold_left
                        (fun n su -> n + su.Tir.Absint.su_facts) 0 sums
                    | None -> 0
                  in
                  (post, facts)
                with
                | exception Sanitizer.Spec.Unsupported _ ->
                  Format.printf "  %-14s %-14s %9s@."
                    w.Workloads.Spec2006.w_name san.Sanitizer.Spec.name
                    "excluded"
                | post, facts ->
                  rows :=
                    (w.Workloads.Spec2006.w_name, san.Sanitizer.Spec.name,
                     post.Tir.Verify.r_accesses, post.Tir.Verify.r_covered,
                     post.Tir.Verify.r_witnesses, facts, !issues)
                    :: !rows;
                  Format.printf "  %-14s %-14s %9d %9d %9d %7d%s@."
                    w.Workloads.Spec2006.w_name san.Sanitizer.Spec.name
                    post.Tir.Verify.r_accesses post.Tir.Verify.r_covered
                    post.Tir.Verify.r_witnesses facts
                    (if !issues = 0 then ""
                     else Printf.sprintf "  (%d issue(s))" !issues))
             tools)
        (Workloads.Spec2006.all @ Workloads.Spec2017.all));
  let rows = List.rev !rows in
  let file = "BENCH_verify.json" in
  Harness.Jsonio.write_json ~path:file
    (Json.Obj
       [ ("schema", Json.Str "cecsan-bench-verify/1");
         ("rows",
          Json.List
            (List.map
               (fun (k, s, acc, cov, wit, facts, issues) ->
                  Json.Obj
                    [ ("kernel", Json.Str k); ("sanitizer", Json.Str s);
                      ("accesses", Json.Int acc); ("covered", Json.Int cov);
                      ("witnesses", Json.Int wit);
                      ("absint_facts", Json.Int facts);
                      ("issues", Json.Int issues) ])
               rows)) ]);
  Format.printf "@.Verification grid written to %s@." file

(* --smoke: a quick validation subset -- one overhead-table row, a few
   Juliet families -- for local sanity checks and CI. *)
let run_smoke ?pool ?backend () =
  section "Smoke: Table I";
  timed "smoke/table1" (fun () -> Harness.Tables.table1 fmt ());
  section "Smoke: Table II subset (CWE415 + CWE416 families)";
  let cases =
    Juliet.Suite.cases_for Juliet.Case.C415
    @ Juliet.Suite.cases_for Juliet.Case.C416
  in
  let d =
    timed "smoke/table2" (fun () ->
        Harness.Tables.run_table2 ?pool ~cases ?backend ())
  in
  Harness.Tables.table2 fmt d;
  section "Smoke: Table IV row (mcf)";
  let rows =
    timed "smoke/table4" (fun () ->
        Harness.Overhead.measure ?pool ?backend
          [ Workloads.Spec2006.mcf ])
  in
  Harness.Tables.table4 fmt rows;
  profile_rows rows

(* --- bechamel microbenchmarks of the core data structures ----------------- *)

let microbenches () =
  let open Bechamel in
  let open Toolkit in
  (* one Test.make per experiment family: the core operation dominating
     that experiment's inner loop *)
  let st = Vm.State.create () in
  let tbl = Cecsan.Meta_table.create st in
  let t_meta_alloc_release =
    (* Tables I-III: metadata entry create/release (Figure 2 free list) *)
    Test.make ~name:"meta_table.alloc+release (tables 1-3)"
      (Staged.stage (fun () ->
           let p = Cecsan.Meta_table.alloc tbl ~base:0x2000_0000 ~size:64 in
           Cecsan.Meta_table.release tbl (Vm.Layout46.tag_of p)))
  in
  let st_check = Vm.State.create () in
  let rt, _vrt = Cecsan.Runtime.create () in
  let tagged = Cecsan.Runtime.cecsan_malloc rt st_check 64 in
  let t_check =
    (* Table IV: Algorithm 1 dereference check *)
    Test.make ~name:"cecsan.check_deref (table 4)"
      (Staged.stage (fun () ->
           ignore
             (Cecsan.Runtime.check_deref rt st_check ~write:false ~size:8
                ~site:(-1) ~cost:Cecsan.Costs.check tagged)))
  in
  let st2 = Vm.State.create () in
  let shadow_addr = Vm.Layout46.heap_base in
  Baselines.Shadow.unpoison st2 shadow_addr 64;
  let t_shadow =
    (* Table IV baseline: ASan shadow check *)
    Test.make ~name:"asan.shadow_check (table 4)"
      (Staged.stage (fun () ->
           ignore (Baselines.Shadow.access_ok st2 shadow_addr 8)))
  in
  let quick_md =
    Sanitizer.Driver.build (Cecsan.sanitizer ())
      "int main() { int s = 0; for (int i = 0; i < 100; i++) s += i; \
       return s & 255; }"
  in
  let t_vm =
    (* Table V: end-to-end instrumented execution throughput *)
    Test.make ~name:"vm.run instrumented loop (table 5)"
      (Staged.stage (fun () ->
           ignore
             (Sanitizer.Driver.run_module (Cecsan.sanitizer ()) quick_md)))
  in
  let tests = [ t_meta_alloc_release; t_check; t_shadow; t_vm ] in
  section "Microbenchmarks (bechamel, ns/run)";
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.25) ~kde:None ()
  in
  List.iter
    (fun test ->
       let results = Benchmark.all cfg instances test in
       let results = Analyze.all ols Instance.monotonic_clock results in
       Hashtbl.iter
         (fun name ols_result ->
            match Analyze.OLS.estimates ols_result with
            | Some [ est ] ->
              Format.printf "  %-42s %10.1f ns/run@." name est
            | _ -> Format.printf "  %-42s (no estimate)@." name)
         results)
    tests

(* --- command line ---------------------------------------------------------- *)

open Cmdliner

(* Integer options parse with [int_of_string_opt], so [--seed 0x5EED]
   works as before. *)
let int_where what ok =
  Arg.conv
    ( (fun s ->
        match int_of_string_opt s with
        | Some v when ok v -> Ok v
        | _ -> Error (`Msg (Printf.sprintf "%S: expected %s" s what))),
      Format.pp_print_int )

let positive = int_where "a positive integer" (fun v -> v > 0)
let non_negative = int_where "a non-negative integer" (fun v -> v >= 0)
let numbered ns = Arg.enum (List.map (fun n -> (string_of_int n, n)) ns)

let flag name doc = Arg.(value & flag & info [ name ] ~doc)

let opt ?docv kind name doc =
  Arg.(value & opt (some kind) None & info [ name ] ?docv ~doc)

let main jobs seed backend table fig ablation faults resilience micro fuzz
    fuzz_guided verify smoke profile telemetry_json timings =
  (* Measurement runs report verifier findings instead of failing on
     them (the tests keep the Strict default). *)
  Sanitizer.Driver.verify_mode := Sanitizer.Driver.Warn;
  let jobs =
    match jobs with
    | Some 0 -> Domain.recommended_domain_count ()
    | Some n -> n
    | None -> Harness.Pool.default_jobs ()
  in
  Option.iter (fun s -> run_seed := s) seed;
  profile_on := profile;
  Harness.Pool.with_pool ~jobs (fun p ->
      let pool = if jobs > 1 then Some p else None in
      (* one experiment per invocation, picked in this order *)
      (match (table, fig) with
       | Some 1, _ -> run_table1 ()
       | Some 2, _ -> run_table2 ?pool ?backend ()
       | Some 3, _ -> run_table3 ?backend ()
       | Some 4, _ -> run_table4 ?pool ?backend ()
       | Some _, _ -> run_table5 ?pool ?backend ()
       | None, Some 3 -> run_fig3 ?backend ()
       | None, Some _ -> run_fig4 ?backend ()
       | None, None ->
         if ablation then run_ablation ?pool ?backend ()
         else if faults then run_faults ?pool ?backend ()
         else if resilience then run_resilience ?pool ?backend ()
         else if micro then microbenches ()
         else
           match (fuzz, fuzz_guided) with
           | Some n, _ -> run_fuzz ?pool ?backend ~jobs n
           | None, Some n -> run_fuzz_guided ?pool ?backend ~jobs n
           | None, None ->
             if verify then run_verify ()
             else if smoke then run_smoke ?pool ?backend ()
             else if profile then begin
               (* bare --profile: the overhead tables, with hot-site
                  tables *)
               run_table4 ?pool ?backend ();
               run_table5 ?pool ?backend ()
             end
             else begin
               run_table1 ();
               run_table2 ?pool ?backend ();
               run_table3 ?backend ();
               run_table4 ?pool ?backend ();
               run_table5 ?pool ?backend ();
               run_fig3 ?backend ();
               run_fig4 ?backend ();
               run_ablation ?pool ?backend ();
               run_faults ?pool ?backend ();
               microbenches ();
               Format.printf "@.All experiments completed.@."
             end);
      Option.iter
        (fun file ->
           Harness.Jsonio.write_json ~path:file
             (Telemetry.Snapshot.to_value !merged_telemetry);
           Format.printf "@.Telemetry snapshot written to %s@." file)
        telemetry_json;
      if timings then report_timings ~jobs)

let cmd =
  let run_count = opt ~docv:"N" positive in
  let term =
    Term.(
      const main
      $ opt ~docv:"N" non_negative "j"
          "Run the grid on N domains (0: one per core).  Default \
           $(b,CECSAN_JOBS), else 1.  Results are identical at any -j."
      $ opt ~docv:"S" non_negative "seed"
          "Run seed (default 0x5EED), echoed in every section header."
      $ opt ~docv:"B"
          (Arg.enum
             [ ("interp", Vm.Machine.Interp); ("jit", Vm.Machine.Jit) ])
          "backend"
          "Execute every run on $(b,interp) or $(b,jit); results are \
           identical, only wall clock moves."
      $ opt ~docv:"N" (numbered [ 1; 2; 3; 4; 5 ]) "table" "Table N (1-5)."
      $ opt ~docv:"N" (numbered [ 3; 4 ]) "fig" "Figure 3 or 4."
      $ flag "ablation" "Optimization ablation."
      $ flag "faults" "Fault-injection degradation table."
      $ flag "resilience"
          "Supervised-campaign degradation table (BENCH_resilience.json)."
      $ flag "micro" "Bechamel microbenchmarks."
      $ run_count "fuzz" "N-program differential fuzz campaign."
      $ run_count "fuzz-guided"
          "Coverage-guided campaign vs the blind baseline at the same \
           budget (BENCH_fuzzcov.json)."
      $ flag "verify"
          "Tir.Verify coverage per SPEC kernel (BENCH_verify.json)."
      $ flag "smoke" "Quick validation subset."
      $ flag "profile"
          "Print each kernel's hottest CECSan check sites; on its own, \
           runs the overhead tables."
      $ opt ~docv:"FILE" Arg.string "telemetry-json"
          "Write the session's merged telemetry snapshot as JSON \
           (identical across reruns and -j)."
      $ flag "timings" "Print wall clock per phase.")
  in
  Cmd.v
    (Cmd.info "bench"
       ~doc:"regenerate the paper's tables and figures (default: all)")
    term

(* Cmdliner reports a bad command line with its own code (124); this
   harness keeps the conventional 2. *)
let () =
  match Cmd.eval_value ~catch:false cmd with
  | Ok _ -> exit 0
  | Error _ -> exit 2
