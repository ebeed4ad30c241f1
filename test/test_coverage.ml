(* Tests of the coverage-guided fuzzing layer (DESIGN.md section 17):
   bitmap packing and determinism, mutation-schedule determinism,
   corpus admission/minimization properties, and the pinned
   guided-beats-blind golden inequality. *)

let cov = Alcotest.testable Fuzz.Coverage.render Fuzz.Coverage.equal

(* --- bitmap packing -------------------------------------------------------- *)

let packing_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"key packs and unpacks" ~count:500
         QCheck.(triple (int_bound (Fuzz.Coverage.max_legs - 1))
                   (int_bound 5000) (int_bound 3))
         (fun (leg, site, ki) ->
            let kind = List.nth Fuzz.Coverage.all_kinds ki in
            let k = Fuzz.Coverage.key ~leg ~site kind in
            Fuzz.Coverage.key_leg k = leg
            && Fuzz.Coverage.key_site k = site
            && Fuzz.Coverage.key_kind k = kind));
    Alcotest.test_case "to_value/of_value round-trips" `Quick (fun () ->
        let c =
          Fuzz.Coverage.of_keys
            [ Fuzz.Coverage.key ~leg:0 ~site:3 Fuzz.Coverage.Executed;
              Fuzz.Coverage.key ~leg:2 ~site:0 Fuzz.Coverage.Instrumented;
              Fuzz.Coverage.key ~leg:1 ~site:17 Fuzz.Coverage.Covered ]
        in
        let text = Json.to_string (Fuzz.Coverage.to_value c) in
        (match Result.map Fuzz.Coverage.of_value (Json.parse text) with
         | Ok (Some c') ->
           Alcotest.check cov "round trip" c c';
           Alcotest.(check string) "same bytes" text
             (Json.to_string (Fuzz.Coverage.to_value c'))
         | _ -> Alcotest.fail "of_value failed");
        Alcotest.(check string) "empty is []" "[]"
          (Json.to_string (Fuzz.Coverage.to_value Fuzz.Coverage.empty));
        Alcotest.(check bool) "negative keys rejected" true
          (Fuzz.Coverage.of_value (Json.List [ Json.Int (-1) ]) = None));
    Alcotest.test_case "instrumented-only sites carry a bit" `Quick
      (fun () ->
         (* all-zero rows (sites_full's contribution) must be visible in
            the bitmap, else "new site instrumented" is not novelty *)
         let rows =
           [ { Telemetry.Snapshot.s_site = 0; s_executed = 1; s_elided = 0;
               s_covered = 0 };
             { Telemetry.Snapshot.s_site = 5; s_executed = 0; s_elided = 0;
               s_covered = 0 } ]
         in
         let c = Fuzz.Coverage.of_rows ~leg:0 rows in
         Alcotest.(check int) "bits" 3 (Fuzz.Coverage.cardinal c);
         Alcotest.(check int) "sites" 2 (Fuzz.Coverage.sites c));
  ]

(* --- accumulated-bitmap determinism over a guided shard -------------------- *)

let corpus_json c = Json.to_string (Fuzz.Corpus.to_value c)

let guided ?pool ?stop_after_shards ?(resume = false) ?checkpoint ~seed ~n
    () =
  Fuzz.Campaign.run ?pool ?checkpoint ~resume ?stop_after_shards
    ~guided:true ~shard_size:10 ~seed ~n ()

let determinism_tests =
  [
    Alcotest.test_case
      "accumulated bitmap and corpus byte-identical at -j1 and -j4" `Quick
      (fun () ->
         let s1 = guided ~seed:0xC0FFEE ~n:200 () in
         let s4 =
           Harness.Pool.with_pool ~jobs:4 (fun p ->
               guided ~pool:p ~seed:0xC0FFEE ~n:200 ())
         in
         Alcotest.(check string) "bitmap"
           (Json.to_string (Fuzz.Coverage.to_value s1.Fuzz.Campaign.coverage))
           (Json.to_string (Fuzz.Coverage.to_value s4.Fuzz.Campaign.coverage));
         Alcotest.(check string) "corpus"
           (corpus_json s1.Fuzz.Campaign.corpus)
           (corpus_json s4.Fuzz.Campaign.corpus);
         Alcotest.(check (list string)) "mismatch ledger"
           (Fuzz.Campaign.mismatch_ledger_lines s1)
           (Fuzz.Campaign.mismatch_ledger_lines s4));
    Alcotest.test_case "mutation schedule is a pure function of its seed"
      `Quick
      (fun () ->
         (* the same (seed, corpus) produces the same (op, tape) stream
            no matter how often or in what interleaving it is derived *)
         let base = [| 3; 1; 4; 1; 5; 9; 2; 6 |] in
         let partner = [| 2; 7; 1; 8; 2; 8 |] in
         let schedule seed =
           List.init 64 (fun i ->
               let rng =
                 Fuzz.Tape.fresh ~seed:(Fuzz.Tape.mix seed i)
               in
               Fuzz.Mutate.mutate ~rng ~partner base)
         in
         let ops l = List.map (fun (op, _) -> Fuzz.Mutate.op_name op) l in
         let tapes l = List.map snd l in
         let a = schedule 0xFEED and b = schedule 0xFEED in
         Alcotest.(check (list string)) "ops" (ops a) (ops b);
         Alcotest.(check (list (array int))) "tapes" (tapes a) (tapes b);
         (* and a different seed gives a different schedule *)
         let c = schedule 0xBEEF in
         Alcotest.(check bool) "seed-dependent" true
           (tapes a <> tapes c));
  ]

(* --- corpus admission and minimization ------------------------------------- *)

let key l s k = Fuzz.Coverage.key ~leg:l ~site:s k

let corpus_tests =
  [
    Alcotest.test_case "admission strictly grows the bitmap" `Quick
      (fun () ->
         let covs =
           [ Fuzz.Coverage.of_keys [ key 0 0 Fuzz.Coverage.Executed ];
             Fuzz.Coverage.of_keys [ key 0 0 Fuzz.Coverage.Executed ];
             (* duplicate: rejected *)
             Fuzz.Coverage.of_keys
               [ key 0 0 Fuzz.Coverage.Executed;
                 key 0 1 Fuzz.Coverage.Elided ];
             Fuzz.Coverage.empty (* nothing novel: rejected *) ]
         in
         let _, admits =
           List.fold_left
             (fun (c, acc) cv ->
                let before =
                  Fuzz.Coverage.cardinal (Fuzz.Corpus.accumulated c)
                in
                let c', admitted =
                  Fuzz.Corpus.admit c ~seed:0 ~phase:"gen" ~tape:[| 1 |]
                    ~cov:cv
                in
                let after =
                  Fuzz.Coverage.cardinal (Fuzz.Corpus.accumulated c')
                in
                Alcotest.(check bool) "admitted iff bitmap grew" admitted
                  (after > before);
                (c', acc @ [ admitted ]))
             (Fuzz.Corpus.empty, [])
             covs
         in
         Alcotest.(check (list bool)) "admission pattern"
           [ true; false; true; false ] admits);
    Alcotest.test_case
      "minimize is idempotent and coverage-preserving on a guided corpus"
      `Quick
      (fun () ->
         let s = guided ~seed:0x5EED ~n:100 () in
         let c = s.Fuzz.Campaign.corpus in
         Alcotest.(check bool) "corpus is nonempty" true
           (Fuzz.Corpus.size c > 0);
         let m = Fuzz.Corpus.minimize c in
         let m2 = Fuzz.Corpus.minimize m in
         Alcotest.(check string) "fixed point" (corpus_json m)
           (corpus_json m2);
         Alcotest.check cov "same accumulated bitmap"
           (Fuzz.Corpus.accumulated c) (Fuzz.Corpus.accumulated m);
         Alcotest.(check bool) "no larger" true
           (Fuzz.Corpus.size m <= Fuzz.Corpus.size c));
    Alcotest.test_case "corpus JSON round-trips byte for byte" `Quick
      (fun () ->
         let s = guided ~seed:0x5EED ~n:60 () in
         let text = corpus_json s.Fuzz.Campaign.corpus in
         match Result.map Fuzz.Corpus.of_value (Json.parse text) with
         | Ok (Some c') ->
           Alcotest.(check string) "round trip" text (corpus_json c');
           Alcotest.check cov "accumulated bitmap rebuilt"
             (Fuzz.Corpus.accumulated s.Fuzz.Campaign.corpus)
             (Fuzz.Corpus.accumulated c')
         | _ -> Alcotest.fail "of_value failed");
  ]

(* --- the golden inequality ------------------------------------------------- *)

(* Pinned over the standard seed: the guided campaign reaches strictly
   more distinct check sites (and strictly more bitmap bits) than the
   blind campaign at the same 100-program budget.  Deterministic, so a
   regression here means the feedback loop stopped feeding back. *)
let golden_tests =
  [
    Alcotest.test_case "guided beats blind at the same budget" `Quick
      (fun () ->
         let s = guided ~seed:0x5EED ~n:100 () in
         let blind =
           Fuzz.Campaign.blind_coverage ~seed:0x5EED ~n:100 ()
         in
         let gs = Fuzz.Coverage.sites s.Fuzz.Campaign.coverage in
         let bs = Fuzz.Coverage.sites blind in
         if gs <= bs then
           Alcotest.failf "guided reached %d sites, blind %d" gs bs;
         let gb = Fuzz.Coverage.cardinal s.Fuzz.Campaign.coverage in
         let bb = Fuzz.Coverage.cardinal blind in
         if gb <= bb then
           Alcotest.failf "guided reached %d bits, blind %d" gb bb);
  ]

let () =
  Alcotest.run "coverage"
    [
      "packing", packing_tests;
      "determinism", determinism_tests;
      "corpus", corpus_tests;
      "golden", golden_tests;
    ]
