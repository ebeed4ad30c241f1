(* Golden regression tests: the headline numbers EXPERIMENTS.md pins are
   regenerated in-process and compared against the checked-in
   expectations, so any drift in detection rates or check-elimination
   effectiveness fails `dune runtest` instead of silently rotting the
   docs.

   UPDATING THE EXPECTATIONS: when an intentional change shifts one of
   these numbers, rerun

     dune exec bench/main.exe -- --table 2 -j 4
     dune exec bench/main.exe -- --table 4 -j 4
     dune exec bench/main.exe -- --table 5 -j 4
     dune exec bench/main.exe -- --ablation -j 4

   and update BOTH the tables below and the matching tables in
   EXPERIMENTS.md (sections "Table II", "Table IV", "Table V" and
   "Ablation") in the same commit.  A mismatch between this file and
   EXPERIMENTS.md is itself a bug. *)

let jobs = max 1 (min 4 (Domain.recommended_domain_count ()))

let check_close ~what ~expected actual =
  (* expectations carry one decimal, like the rendered tables *)
  if Float.abs (actual -. expected) > 0.05 then
    Alcotest.failf "%s: expected %.1f, measured %.1f (update this table \
                    AND EXPERIMENTS.md together if the change is \
                    intentional)" what expected actual

(* --- Table II: detection rates over each tool's evaluated subset --------- *)

(* Rows follow Juliet.Suite.targets order:
   CWE121 CWE122 CWE124 CWE126 CWE127 CWE415 CWE416 CWE761. *)
let expected_rates =
  [
    "CECSan", [ 100.0; 100.0; 100.0; 100.0; 100.0; 100.0; 100.0; 100.0 ];
    "PACMem", [ 93.5; 92.0; 100.0; 87.5; 100.0; 100.0; 100.0; 100.0 ];
    "CryptSan", [ 93.5; 92.0; 100.0; 87.5; 100.0; 100.0; 100.0; 100.0 ];
    "HWASan", [ 79.4; 75.0; 82.4; 75.0; 78.4; 100.0; 60.0; 0.0 ];
    "ASan", [ 83.7; 79.2; 82.2; 76.0; 85.6; 100.0; 80.0; 100.0 ];
    "SoftBound/CETS", [ 96.6; 95.6; 100.0; 94.1; 100.0; 100.0; 100.0;
                        100.0 ];
  ]

let expected_subsets =
  [ "CECSan", 985; "PACMem", 888; "CryptSan", 788; "HWASan", 788;
    "ASan", 985; "SoftBound/CETS", 959 ]

let expected_false_positives =
  [ "CECSan", 0; "PACMem", 0; "CryptSan", 0; "HWASan", 0; "ASan", 0;
    "SoftBound/CETS", 5 ]

let table2_golden () =
  let d =
    Harness.Pool.with_pool ~jobs (fun p ->
        Harness.Tables.run_table2 ~pool:p ())
  in
  List.iter
    (fun (tr : Juliet.Runner.tool_results) ->
       let tool = tr.Juliet.Runner.tool in
       Alcotest.(check int)
         (tool ^ " evaluated subset")
         (List.assoc tool expected_subsets)
         tr.Juliet.Runner.evaluated;
       Alcotest.(check int)
         (tool ^ " false positives")
         (List.assoc tool expected_false_positives)
         (Juliet.Runner.false_positives tr);
       List.iter2
         (fun (cwe, _) expected ->
            match Juliet.Runner.rate tr cwe with
            | None ->
              Alcotest.failf "%s: no evaluated cases for %s" tool
                (Juliet.Case.cwe_name cwe)
            | Some r ->
              check_close
                ~what:
                  (Printf.sprintf "%s rate on %s" tool
                     (Juliet.Case.cwe_name cwe))
                ~expected r)
         Juliet.Suite.targets
         (List.assoc tool expected_rates))
    d.Harness.Tables.t2_tools

(* --- Ablation: average runtime overheads per configuration --------------- *)

(* Same measurement as Harness.Tables.ablation: average percent runtime
   overhead over the SPEC2006-like kernels vs the uninstrumented
   baseline. *)
let expected_ablation =
  [
    "CECSan (full)", Cecsan.Config.default, 173.6;
    "no loop opt",
    { Cecsan.Config.default with Cecsan.Config.opt_loop = false }, 185.2;
    "no redundant elim",
    { Cecsan.Config.default with Cecsan.Config.opt_redundant = false },
    174.0;
    "no type-info elim",
    { Cecsan.Config.default with Cecsan.Config.opt_typeinfo = false },
    183.1;
    (* absint off reproduces the pre-certified-elision full pipeline *)
    "no absint",
    { Cecsan.Config.default with Cecsan.Config.opt_absint = false }, 181.1;
    "no optimizations", Cecsan.Config.no_opts, 222.9;
    "no sub-object", Cecsan.Config.no_subobject, 172.2;
  ]

let ablation_golden () =
  Harness.Pool.with_pool ~jobs (fun pool ->
      let workloads = Workloads.Spec2006.all in
      let bases =
        Harness.Pool.map pool
          (fun (w : Workloads.Spec2006.t) ->
             (Sanitizer.Driver.run Sanitizer.Spec.none
                ~budget:Harness.Overhead.default_budget w.w_source)
               .Sanitizer.Driver.cycles)
          workloads
      in
      let pairs = List.combine workloads bases in
      List.iter
        (fun (name, config, expected) ->
           let san = Cecsan.sanitizer ~config () in
           let rts =
             Harness.Pool.map pool
               (fun ((w : Workloads.Spec2006.t), base_cycles) ->
                  let r =
                    Sanitizer.Driver.run san
                      ~budget:Harness.Overhead.default_budget w.w_source
                  in
                  Harness.Stats.percent_overhead ~base:base_cycles
                    ~measured:r.Sanitizer.Driver.cycles)
               pairs
           in
           check_close ~what:("ablation avg: " ^ name) ~expected
             (Harness.Stats.average rts))
        expected_ablation)

(* --- Tables IV and V: aggregate runtime and memory overheads -------------- *)

(* The aggregate rows EXPERIMENTS.md publishes, as
   [(tool, runtime (avg, geo), memory (avg, geo))]; ASan-- shares ASan's
   allocator, so only its runtime row is published.  The memory rows
   move whenever a sanitizer page becomes resident that did not before. *)
let expected_table4 =
  [
    "ASan", (99.6, 96.0), Some (189.9, 138.8);
    "ASan--", (75.1, 70.1), None;
    "CECSan", (173.6, 161.0), Some (1.4, 1.3);
  ]

let expected_table5 =
  [
    "ASan", (102.3, 97.9), Some (852.7, 106.9);
    "ASan--", (80.2, 75.1), None;
    "CECSan", (166.4, 157.3), Some (5.1, 4.9);
  ]

let perf_golden ~table workloads expected () =
  let rows =
    Harness.Pool.with_pool ~jobs (fun pool ->
        Harness.Overhead.measure ~pool workloads)
  in
  List.iter
    (fun (tool, (rt_avg, rt_geo), memory) ->
       let (rta, rtg), (mea, meg) = Harness.Overhead.aggregates rows tool in
       let what stat = Printf.sprintf "%s %s %s" table tool stat in
       check_close ~what:(what "runtime avg") ~expected:rt_avg rta;
       check_close ~what:(what "runtime geo") ~expected:rt_geo rtg;
       Option.iter
         (fun (me_avg, me_geo) ->
            check_close ~what:(what "memory avg") ~expected:me_avg mea;
            check_close ~what:(what "memory geo") ~expected:me_geo meg)
         memory)
    expected

let () =
  Alcotest.run "golden"
    [
      ( "golden",
        [
          Alcotest.test_case "table2 detection rates pinned" `Slow
            table2_golden;
          Alcotest.test_case "ablation percentages pinned" `Slow
            ablation_golden;
          Alcotest.test_case "table IV aggregates pinned" `Slow
            (perf_golden ~table:"Table IV" Workloads.Spec2006.all
               expected_table4);
          Alcotest.test_case "table V aggregates pinned" `Slow
            (perf_golden ~table:"Table V" Workloads.Spec2017.all
               expected_table5);
        ] );
    ]
