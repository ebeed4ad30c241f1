(* The supervised execution layer (DESIGN.md section 13): exception
   classification, deterministic retry/quarantine, fuel watchdogs,
   ledger serialization, and checkpoint/resume equivalence. *)

let mismatch_pair = Alcotest.(pair (list string) (list string))

let ledgers (s : Fuzz.Campaign.summary) =
  ( Fuzz.Campaign.mismatch_ledger_lines s,
    Fuzz.Campaign.quarantine_ledger_lines s )

(* --- Supervise.run ------------------------------------------------------- *)

let supervise_tests =
  [
    Alcotest.test_case "classify maps known exception classes" `Quick
      (fun () ->
         let check exn cls phase =
           Alcotest.(check (pair string string))
             cls (cls, phase) (Harness.Supervise.classify exn)
         in
         check (Vm.Fault.Injected_crash { after = 3 }) "crash" "run";
         check
           (Tir.Fuel.Exhausted { phase = "verify"; budget = 9 })
           "fuel" "verify";
         check Stack_overflow "stack-overflow" "run";
         check Out_of_memory "out-of-memory" "run";
         check (Failure "x") "failure" "run";
         check Exit "exn" "run");
    Alcotest.test_case "first success needs no retries" `Quick (fun () ->
        let o =
          Harness.Supervise.run ~task:7 ~seed:0xAB (fun ~attempt ->
              attempt * 10)
        in
        Alcotest.(check int) "retries" 0 o.Harness.Supervise.retries;
        match o.Harness.Supervise.result with
        | Ok v -> Alcotest.(check int) "value" 0 v
        | Error _ -> Alcotest.fail "expected Ok");
    Alcotest.test_case "transient failure is retried deterministically"
      `Quick
      (fun () ->
         let o =
           Harness.Supervise.run
             ~policy:{ Harness.Supervise.default_policy with max_retries = 2 }
             ~task:1 ~seed:0xCD
             (fun ~attempt -> if attempt < 2 then failwith "flaky" else 42)
         in
         Alcotest.(check int) "retries" 2 o.Harness.Supervise.retries;
         match o.Harness.Supervise.result with
         | Ok v -> Alcotest.(check int) "value" 42 v
         | Error _ -> Alcotest.fail "expected Ok after retries");
    Alcotest.test_case "exhausted retries quarantine with full entry"
      `Quick
      (fun () ->
         let o =
           Harness.Supervise.run
             ~policy:{ Harness.Supervise.default_policy with max_retries = 1 }
             ~task:5 ~seed:0xEF
             (fun ~attempt:_ ->
                raise (Vm.Fault.Injected_crash { after = 11 }))
         in
         Alcotest.(check int) "retries" 1 o.Harness.Supervise.retries;
         match o.Harness.Supervise.result with
         | Ok _ -> Alcotest.fail "expected quarantine"
         | Error e ->
           Alcotest.(check int) "task" 5 e.Harness.Supervise.q_task;
           Alcotest.(check int) "seed" 0xEF e.Harness.Supervise.q_seed;
           Alcotest.(check string) "class" "crash" e.Harness.Supervise.q_class;
           Alcotest.(check int) "attempts" 2 e.Harness.Supervise.q_attempts);
    Alcotest.test_case "entry_to_value round-trips" `Quick (fun () ->
        let e =
          { Harness.Supervise.q_task = 12; q_seed = 0xBEEF;
            q_class = "fuel"; q_phase = "verify"; q_attempts = 3;
            q_detail = "Exhausted {phase=\"verify\"; budget=600}\n" }
        in
        let text = Json.to_string (Harness.Supervise.entry_to_value e) in
        match Result.map Harness.Supervise.entry_of_value (Json.parse text) with
        | Ok (Some e') -> Alcotest.(check bool) "round trip" true (e = e')
        | _ -> Alcotest.fail "entry_of_value rejected its own value");
    Alcotest.test_case "entry_of_value rejects other shapes" `Quick
      (fun () ->
         let e =
           { Harness.Supervise.q_task = 1; q_seed = 2; q_class = "crash";
             q_phase = "run"; q_attempts = 2; q_detail = "x" }
         in
         let fields =
           match Harness.Supervise.entry_to_value e with
           | Json.Obj kvs -> kvs
           | _ -> Alcotest.fail "entry_to_value is not an object"
         in
         List.iter
           (fun v ->
              Alcotest.(check bool) (Json.to_string v) true
                (Harness.Supervise.entry_of_value v = None))
           [ Json.Str "not a ledger entry";
             Json.Obj (List.tl fields);
             Json.Obj (List.rev fields);
             Json.Obj
               (List.map
                  (fun (k, v) ->
                     if String.equal k "task" then (k, Json.Str "1")
                     else (k, v))
                  fields) ]);
  ]

(* --- fuel watchdogs ------------------------------------------------------ *)

let fuel_tests =
  [
    Alcotest.test_case "fuel exhaustion is deterministic" `Quick (fun () ->
        let src = "int main() { int s = 0; for (int i = 0; i < 40; i++) \
                   s += i; return s & 255; }" in
        let exhausted_at budget =
          match
            Sanitizer.Driver.compile
              ~fuel:(Tir.Fuel.make ~phase:"compile" ~budget) src
          with
          | (_ : Tir.Ir.modul) -> None
          | exception Tir.Fuel.Exhausted { phase; budget = b } ->
            Some (phase, b)
        in
        (* a tight budget trips, a huge one does not, and reruns agree *)
        Alcotest.(check bool) "tiny budget trips" true
          (exhausted_at 1 <> None);
        Alcotest.(check bool) "huge budget passes" true
          (exhausted_at 1_000_000 = None);
        Alcotest.(check bool) "deterministic" true
          (exhausted_at 1 = exhausted_at 1));
    Alcotest.test_case "compile_cached burns fuel on cache hits too"
      `Quick
      (fun () ->
         let src = "int main() { return 7; }" in
         Sanitizer.Driver.clear_compile_cache ();
         (* miss, then hit: both must burn the same amount *)
         let burn () =
           let fuel = Tir.Fuel.make ~phase:"compile" ~budget:1_000_000 in
           ignore
             (Sanitizer.Driver.compile_cached ~optimize:true ~fuel src);
           1_000_000 - Tir.Fuel.remaining fuel
         in
         let miss = burn () in
         let hit = burn () in
         Alcotest.(check int) "cache-state independent burn" miss hit;
         Alcotest.(check bool) "burn is positive" true (miss > 0));
    Alcotest.test_case "fault parse round-trips crash and fuel specs"
      `Quick
      (fun () ->
         List.iter
           (fun s ->
              match Vm.Fault.parse s with
              | Ok spec ->
                Alcotest.(check string) "round trip" s
                  (Vm.Fault.spec_to_string spec)
              | Error m -> Alcotest.fail ("parse " ^ s ^ ": " ^ m))
           [ "crash:25"; "fuel:2500"; "oom:40"; "table:8"; "tagflip:97" ]);
    Alcotest.test_case "snapshot JSON round-trips via of_json" `Quick
      (fun () ->
         let s =
           Fuzz.Campaign.run ~seed:0x5EED ~n:12 ~max_shrink:0
             ~faults:[ Vm.Fault.Crash 1 ] ()
         in
         let json = Telemetry.Snapshot.to_json s.Fuzz.Campaign.snapshot in
         match Telemetry.Snapshot.of_json json with
         | Some snap ->
           Alcotest.(check string) "round trip" json
             (Telemetry.Snapshot.to_json snap)
         | None -> Alcotest.fail "of_json rejected to_json output");
  ]

(* --- supervised campaigns ------------------------------------------------ *)

let campaign_tests =
  [
    Alcotest.test_case "crash faults quarantine instead of aborting"
      `Quick
      (fun () ->
         let s =
           Fuzz.Campaign.run ~seed:0x5EED ~n:40 ~max_shrink:0
             ~faults:[ Vm.Fault.Crash 1 ] ()
         in
         Alcotest.(check bool) "some tasks quarantined" true
           (s.Fuzz.Campaign.quarantine <> []);
         Alcotest.(check bool) "retries happened" true
           (s.Fuzz.Campaign.retries > 0);
         Alcotest.(check int) "every program accounted for"
           s.Fuzz.Campaign.n
           (List.length s.Fuzz.Campaign.rows
            + List.length s.Fuzz.Campaign.quarantine));
    Alcotest.test_case "faulted campaign ledgers identical at -j 1 and -j 4"
      `Quick
      (fun () ->
         let run pool =
           Fuzz.Campaign.run ?pool ~seed:0xFA57 ~n:40 ~max_shrink:0
             ~faults:[ Vm.Fault.Crash 1 ] ()
         in
         let seq = run None in
         let par =
           Harness.Pool.with_pool ~jobs:4 (fun p -> run (Some p))
         in
         Alcotest.check mismatch_pair "ledger lines" (ledgers seq)
           (ledgers par);
         Alcotest.(check int) "retries equal" seq.Fuzz.Campaign.retries
           par.Fuzz.Campaign.retries);
    Alcotest.test_case "fuel faults quarantine with class fuel" `Quick
      (fun () ->
         let s =
           Fuzz.Campaign.run ~seed:0x5EED ~n:20 ~max_shrink:0
             ~faults:[ Vm.Fault.Fuel 400 ] ()
         in
         Alcotest.(check bool) "fuel_exhausted counted" true
           (s.Fuzz.Campaign.fuel_exhausted > 0);
         List.iter
           (fun (e : Harness.Supervise.entry) ->
              Alcotest.(check string) "class" "fuel"
                e.Harness.Supervise.q_class)
           s.Fuzz.Campaign.quarantine);
  ]

(* --- checkpoint / resume ------------------------------------------------- *)

let with_tmp_dir f =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "cecsan_ckpt_%d" (Unix.getpid ()))
  in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  Fun.protect
    ~finally:(fun () ->
        if Sys.file_exists dir then begin
          Array.iter
            (fun f -> Sys.remove (Filename.concat dir f))
            (Sys.readdir dir);
          Sys.rmdir dir
        end)
    (fun () -> f dir)

let bitmap_json (s : Fuzz.Campaign.summary) =
  Json.to_string (Fuzz.Coverage.to_value s.Fuzz.Campaign.coverage)

let corpus_json (s : Fuzz.Campaign.summary) =
  Json.to_string (Fuzz.Corpus.to_value s.Fuzz.Campaign.corpus)

let checkpoint_path dir = Filename.concat dir Fuzz.Campaign.checkpoint_file

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> output_string oc text)

let read_checkpoint dir =
  Result.to_option (Json.parse (read_file (checkpoint_path dir)))

(* An unreadable checkpoint is a fresh start: [corrupt] rewrites the
   one a one-shard run left, and the resumed campaign must recompute
   every shard and still match an uninterrupted run's ledgers. *)
let fresh_start_case name corrupt =
  Alcotest.test_case name `Quick (fun () ->
      with_tmp_dir (fun dir ->
          let seed = 0x5EED and n = 40 in
          let faults = [ Vm.Fault.Crash 1 ] in
          let run ?stop_after_shards ?(resume = false) () =
            Fuzz.Campaign.run ~seed ~n ~max_shrink:0 ~faults
              ~checkpoint:dir ~shard_size:16 ?stop_after_shards ~resume ()
          in
          let uninterrupted =
            Fuzz.Campaign.run ~seed ~n ~max_shrink:0 ~faults ()
          in
          ignore (run ~stop_after_shards:1 ());
          let path = checkpoint_path dir in
          write_file path (corrupt (read_file path));
          let resumed = run ~resume:true () in
          Alcotest.(check int) "no resumed shards" 0
            resumed.Fuzz.Campaign.resumed_shards;
          Alcotest.check mismatch_pair "ledger lines"
            (ledgers uninterrupted) (ledgers resumed)))

(* A one-shard checkpoint of the same campaign in the retired
   line-based v1 format: no v1 reader remains, so it reads as a fresh
   start. *)
let v1_checkpoint =
  String.concat "\n"
    [ "cecsan-campaign-checkpoint v1"; "seed 5eed"; "n 40"; "shard_size 16";
      "tools -"; "faults crash:1"; "shards_done 1"; "resumed_shards 0";
      "retries 0"; "row index=0 seed=3b0bd4f6a6c6c3d4 plan=- failures=-";
      "snapshot {\"sites\": [], \"counters\": {}, \"gauges\": {}, \
       \"dropped\": 0, \"events\": []}";
      "end"; "" ]

let checkpoint_tests =
  [
    fresh_start_case "garbage checkpoint starts fresh" (fun _ ->
        "\x00\xffnot a checkpoint\n");
    fresh_start_case "truncated checkpoint starts fresh" (fun text ->
        String.sub text 0 (String.length text / 2));
    fresh_start_case "v1 checkpoint starts fresh" (fun _ -> v1_checkpoint);
    Alcotest.test_case "state survives the checkpoint file" `Quick
      (fun () ->
         with_tmp_dir (fun dir ->
             ignore
               (Fuzz.Campaign.run ~guided:true ~seed:0x5EED ~n:60
                  ~shard_size:10 ~checkpoint:dir ~stop_after_shards:3 ());
             let text = read_file (checkpoint_path dir) in
             let st =
               match Json.parse text with
               | Ok v -> Fuzz.Campaign.state_of_value v
               | Error m -> Alcotest.fail m
             in
             match st with
             | Some st ->
               Alcotest.(check string) "same document" text
                 (Json.to_string (Fuzz.Campaign.state_to_value st) ^ "\n")
             | None -> Alcotest.fail "state_of_value rejected a checkpoint"));
    Alcotest.test_case "interrupt + resume reproduces the ledgers" `Quick
      (fun () ->
         with_tmp_dir (fun dir ->
             let seed = 0x5EED and n = 40 in
             let faults = [ Vm.Fault.Crash 1 ] in
             let uninterrupted =
               Fuzz.Campaign.run ~seed ~n ~max_shrink:0 ~faults ()
             in
             (* run one shard, "die", resume from the checkpoint *)
             let partial =
               Fuzz.Campaign.run ~seed ~n ~max_shrink:0 ~faults
                 ~checkpoint:dir ~shard_size:16 ~stop_after_shards:1 ()
             in
             Alcotest.(check bool) "partial really is partial" true
               (List.length partial.Fuzz.Campaign.rows
                + List.length partial.Fuzz.Campaign.quarantine
                < n);
             let resumed =
               Fuzz.Campaign.run ~seed ~n ~max_shrink:0 ~faults
                 ~checkpoint:dir ~shard_size:16 ~resume:true ()
             in
             Alcotest.(check bool) "shards were restored" true
               (resumed.Fuzz.Campaign.resumed_shards > 0);
             Alcotest.check mismatch_pair "ledger lines"
               (ledgers uninterrupted) (ledgers resumed)));
    Alcotest.test_case "resume at a different -j is byte-identical" `Quick
      (fun () ->
         with_tmp_dir (fun dir ->
             let seed = 0xFA57 and n = 32 in
             let faults = [ Vm.Fault.Crash 1 ] in
             let uninterrupted =
               Fuzz.Campaign.run ~seed ~n ~max_shrink:0 ~faults ()
             in
             ignore
               (Fuzz.Campaign.run ~seed ~n ~max_shrink:0 ~faults
                  ~checkpoint:dir ~shard_size:8 ~stop_after_shards:2 ());
             let resumed =
               Harness.Pool.with_pool ~jobs:4 (fun p ->
                   Fuzz.Campaign.run ~pool:p ~seed ~n ~max_shrink:0
                     ~faults ~checkpoint:dir ~shard_size:8 ~resume:true ())
             in
             Alcotest.check mismatch_pair "ledger lines"
               (ledgers uninterrupted) (ledgers resumed)));
    Alcotest.test_case "config mismatch on resume is rejected" `Quick
      (fun () ->
         with_tmp_dir (fun dir ->
             ignore
               (Fuzz.Campaign.run ~seed:0x5EED ~n:16 ~max_shrink:0
                  ~checkpoint:dir ~shard_size:8 ~stop_after_shards:1 ());
             match
               Fuzz.Campaign.run ~seed:0xBAD ~n:16 ~max_shrink:0
                 ~checkpoint:dir ~shard_size:8 ~resume:true ()
             with
             | (_ : Fuzz.Campaign.summary) ->
               Alcotest.fail "expected Invalid_argument"
             | exception Invalid_argument _ -> ()));
    Alcotest.test_case
      "guided interrupt + resume reproduces corpus, bitmap and ledger"
      `Quick
      (fun () ->
         with_tmp_dir (fun dir ->
             let seed = 0x5EED and n = 60 in
             let uninterrupted =
               Fuzz.Campaign.run ~guided:true ~seed ~n ~shard_size:10 ()
             in
             (* die after two shards, resume at a different -j *)
             ignore
               (Fuzz.Campaign.run ~guided:true ~seed ~n ~shard_size:10
                  ~checkpoint:dir ~stop_after_shards:2 ());
             let resumed =
               Harness.Pool.with_pool ~jobs:4 (fun p ->
                   Fuzz.Campaign.run ~pool:p ~guided:true ~seed ~n
                     ~shard_size:10 ~checkpoint:dir ~resume:true ())
             in
             Alcotest.(check bool) "shards were restored" true
               (resumed.Fuzz.Campaign.resumed_shards > 0);
             Alcotest.(check string) "accumulated bitmap"
               (bitmap_json uninterrupted) (bitmap_json resumed);
             Alcotest.(check string) "corpus"
               (corpus_json uninterrupted) (corpus_json resumed);
             Alcotest.check mismatch_pair "ledger lines"
               (ledgers uninterrupted) (ledgers resumed);
             (* the checkpoint's corpus matches the in-memory one *)
             match Option.bind (read_checkpoint dir) (Json.member "corpus") with
             | Some c ->
               Alcotest.(check string) "checkpointed corpus"
                 (corpus_json uninterrupted) (Json.to_string c)
             | None -> Alcotest.fail "no corpus in the checkpoint"));
    Alcotest.test_case "guided flag mismatch on resume is rejected" `Quick
      (fun () ->
         with_tmp_dir (fun dir ->
             ignore
               (Fuzz.Campaign.run ~guided:true ~seed:0x5EED ~n:20
                  ~shard_size:10 ~checkpoint:dir ~stop_after_shards:1 ());
             match
               Fuzz.Campaign.run ~seed:0x5EED ~n:20 ~shard_size:10
                 ~checkpoint:dir ~resume:true ()
             with
             | (_ : Fuzz.Campaign.summary) ->
               Alcotest.fail "expected Invalid_argument"
             | exception Invalid_argument _ -> ()));
    Alcotest.test_case "resume without a checkpoint file starts fresh"
      `Quick
      (fun () ->
         with_tmp_dir (fun dir ->
             let s =
               Fuzz.Campaign.run ~seed:0x5EED ~n:8 ~max_shrink:0
                 ~checkpoint:dir ~resume:true ()
             in
             Alcotest.(check int) "no resumed shards" 0
               s.Fuzz.Campaign.resumed_shards;
             Alcotest.(check int) "all rows present" 8
               (List.length s.Fuzz.Campaign.rows)));
  ]

let () =
  Alcotest.run "supervise"
    [
      "supervise", supervise_tests;
      "fuel", fuel_tests;
      "campaign", campaign_tests;
      "checkpoint", checkpoint_tests;
    ]
