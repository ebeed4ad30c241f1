(* The sanitizer-as-a-service stack: wire protocol codecs, the batched
   engine's determinism contract (any -j, any batch size, byte-identical
   rows and aggregates) and compile_cached under server-shaped load. *)

let ok_or_fail = function
  | Ok v -> v
  | Error m -> Alcotest.failf "unexpected decode error: %s" m

(* --- protocol -------------------------------------------------------------- *)

let protocol_tests =
  [
    Alcotest.test_case "value printer/parser roundtrip" `Quick (fun () ->
        let v =
          Serve.Protocol.(
            Obj
              [ ("a", Int (-3));
                ("b", Str "line\nbreak \"quoted\" back\\slash\ttab");
                ("c", List [ Null; Bool true; Bool false; Int 0 ]);
                ("d", Obj []); ("e", List []) ])
        in
        let s = Serve.Protocol.to_string v in
        (match Serve.Protocol.parse s with
         | Ok v' -> Alcotest.(check bool) "roundtrip" true (v = v')
         | Error m -> Alcotest.failf "parse failed: %s" m);
        (* printing is deterministic *)
        Alcotest.(check string) "stable bytes" s
          (Serve.Protocol.to_string v));
    Alcotest.test_case "parser rejects floats and trailing garbage"
      `Quick
      (fun () ->
         List.iter
           (fun s ->
              match Serve.Protocol.parse s with
              | Ok _ -> Alcotest.failf "accepted %S" s
              | Error _ -> ())
           [ "1.5"; "{\"a\": 2e3}"; "{} trailing"; "{\"a\":}"; "[1,]";
             "\"unterminated"; "nul" ]);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"string escaping roundtrips any bytes"
         ~count:300 QCheck.string
         (fun s ->
            Serve.Protocol.parse
              (Serve.Protocol.to_string (Serve.Protocol.Str s))
            = Ok (Serve.Protocol.Str s)));
    Alcotest.test_case "request codec roundtrips every op" `Quick
      (fun () ->
         List.iter
           (fun (r : Serve.Protocol.request) ->
              let v = Serve.Protocol.encode_request r in
              let s = Serve.Protocol.to_string v in
              let v' = ok_or_fail (Serve.Protocol.parse s) in
              let r' = ok_or_fail (Serve.Protocol.decode_request v') in
              Alcotest.(check bool) "roundtrip" true (r = r'))
           [ { Serve.Protocol.id = 1;
               op =
                 Serve.Protocol.Analyze
                   { source = "int main() { return 0; }";
                     sanitizer = "cecsan"; optimize = true };
               backend = None };
             { Serve.Protocol.id = 2;
               op = Serve.Protocol.Fuzz { fz_seed = 7; inject = true };
               backend = Some Vm.Machine.Jit };
             { Serve.Protocol.id = 3;
               op =
                 Serve.Protocol.Bench
                   { kernel = "429.mcf"; sanitizer = "none" };
               backend = Some Vm.Machine.Interp } ]);
    Alcotest.test_case "response codec roundtrips" `Quick (fun () ->
        let r =
          { Serve.Protocol.rs_id = 9; rs_ok = false; rs_outcome = "";
            rs_detected = false; rs_cycles = 0; rs_reports = 0;
            rs_error = "unsupported: wchar_t" }
        in
        let s = Serve.Protocol.to_string (Serve.Protocol.encode_response r) in
        let r' =
          ok_or_fail
            (Serve.Protocol.decode_response
               (ok_or_fail (Serve.Protocol.parse s)))
        in
        Alcotest.(check bool) "roundtrip" true (r = r'));
    Alcotest.test_case "line framing: controls, blanks, requests" `Quick
      (fun () ->
         (match Serve.Protocol.decode_line "" with
          | Ok Serve.Protocol.Flush -> ()
          | _ -> Alcotest.fail "blank line should be Flush");
         (match Serve.Protocol.decode_line "{\"op\": \"snapshot\"}" with
          | Ok Serve.Protocol.Snapshot -> ()
          | _ -> Alcotest.fail "snapshot control");
         (match Serve.Protocol.decode_line "{\"op\": \"shutdown\"}" with
          | Ok Serve.Protocol.Shutdown -> ()
          | _ -> Alcotest.fail "shutdown control");
         (match
            Serve.Protocol.decode_line
              "{\"id\": 4, \"op\": \"fuzz\", \"seed\": 11}"
          with
          | Ok (Serve.Protocol.Request
                  { id = 4; op = Serve.Protocol.Fuzz
                        { fz_seed = 11; inject = false }; backend = None })
            -> ()
          | _ -> Alcotest.fail "request line");
         match Serve.Protocol.decode_line "{\"op\": \"analyze\"}" with
         | Error _ -> ()
         | Ok _ -> Alcotest.fail "analyze without fields should fail");
  ]

(* --- engine ---------------------------------------------------------------- *)

(* A seeded synthetic request mix: mostly [analyze] of small generated
   programs, some [fuzz], occasional [bench] kernels; request [i]
   derives its whole shape from [Tape.mix seed i]. *)
let bench_kernels = [ "429.mcf"; "462.libquantum"; "470.lbm"; "619.lbm_s" ]
let bench_sans = [ "cecsan"; "asan--"; "none" ]
let analyze_sans = [ "cecsan"; "asan"; "hwasan"; "none" ]

let gen_request ~seed i : Serve.Protocol.request =
  let t = Fuzz.Tape.fresh ~seed:(Fuzz.Tape.mix seed i) in
  let backend =
    match Fuzz.Tape.draw t 3 with
    | 0 -> None
    | 1 -> Some Vm.Machine.Interp
    | _ -> Some Vm.Machine.Jit
  in
  let op =
    match Fuzz.Tape.draw t 64 with
    | 0 ->
      (* rare: a full SPEC-like kernel (the service's heavy tail) *)
      Serve.Protocol.Bench
        {
          kernel = Fuzz.Tape.pick t bench_kernels;
          sanitizer = Fuzz.Tape.pick t bench_sans;
        }
    | d when d <= 12 ->
      Serve.Protocol.Fuzz
        { fz_seed = Fuzz.Tape.draw t 1_000_000; inject = Fuzz.Tape.bool t }
    | _ ->
      let inject = Fuzz.Tape.bool t in
      let p = Fuzz.Gen.generate ~inject t in
      Serve.Protocol.Analyze
        {
          source = p.Fuzz.Gen.src;
          sanitizer = Fuzz.Tape.pick t analyze_sans;
          optimize = Fuzz.Tape.bool t;
        }
  in
  { Serve.Protocol.id = i; op; backend }

let gen_requests ~seed n : Serve.Protocol.request list =
  List.init n (gen_request ~seed)

let analyze ?backend ?(sanitizer = "cecsan") source : Serve.Engine.row =
  Serve.Engine.execute
    { Serve.Protocol.id = 0;
      op =
        Serve.Protocol.Analyze { source; sanitizer; optimize = true };
      backend }

let engine_tests =
  [
    Alcotest.test_case "analyze: clean program exits ok" `Quick (fun () ->
        let r =
          analyze
            "int main() { int s = 0; for (int i = 0; i < 8; i++) s += i; \
             return s & 255; }"
        in
        Alcotest.(check bool) "ok" true r.r_response.Serve.Protocol.rs_ok;
        Alcotest.(check bool) "not detected" false
          r.r_response.Serve.Protocol.rs_detected;
        Alcotest.(check bool) "cycles counted" true (r.r_cycles > 0));
    Alcotest.test_case "analyze: heap overflow is detected" `Quick
      (fun () ->
         let r =
           analyze
             "int main() { int *p = (int*)malloc(16); p[5] = 1; \
              return 0; }"
         in
         Alcotest.(check bool) "ok" true r.r_response.Serve.Protocol.rs_ok;
         Alcotest.(check bool) "detected" true
           r.r_response.Serve.Protocol.rs_detected);
    Alcotest.test_case "errors become responses, not exceptions" `Quick
      (fun () ->
         let check_prefix prefix (r : Serve.Engine.row) =
           Alcotest.(check bool) "not ok" false
             r.r_response.Serve.Protocol.rs_ok;
           let e = r.r_response.Serve.Protocol.rs_error in
           if not (String.length e >= String.length prefix
                   && String.equal (String.sub e 0 (String.length prefix))
                        prefix)
           then Alcotest.failf "error %S lacks prefix %S" e prefix
         in
         check_prefix "unknown-sanitizer:"
           (analyze ~sanitizer:"nope" "int main() { return 0; }");
         (* the front end funnels parser errors through Sema.Error too *)
         check_prefix "sema:" (analyze "int main( {");
         check_prefix "sema:" (analyze "int main() { return 0 @ }");
         check_prefix "sema:" (analyze "int main() { return x; }");
         check_prefix "unknown-kernel:"
           (Serve.Engine.execute
              { Serve.Protocol.id = 0;
                op =
                  Serve.Protocol.Bench
                    { kernel = "no-such-kernel"; sanitizer = "cecsan" };
                backend = None }));
    Alcotest.test_case "per-request backend wins over engine default"
      `Quick
      (fun () ->
         let src = "int main() { return 7; }" in
         let a = analyze ~backend:Vm.Machine.Jit src in
         let b = analyze src in
         (* backend-invariance: identical response either way *)
         Alcotest.(check bool) "same response" true
           (a.r_response = b.r_response));
    Alcotest.test_case "process: rows identical at any batch size" `Quick
      (fun () ->
         let reqs = gen_requests ~seed:0xA11CE 24 in
         let by_batch b = Serve.Engine.process ~batch:b reqs in
         let r1 = by_batch 1 in
         Alcotest.(check bool) "batch 5" true (r1 = by_batch 5);
         Alcotest.(check bool) "batch 64" true (r1 = by_batch 64));
    Alcotest.test_case "process: rows identical at -j 4" `Quick (fun () ->
        let reqs = gen_requests ~seed:0xA11CE 24 in
        let seq = Serve.Engine.process ~batch:4 reqs in
        let par =
          Harness.Pool.with_pool ~jobs:4 (fun p ->
              Serve.Engine.process ~pool:p ~batch:4 reqs)
        in
        Alcotest.(check bool) "identical rows" true (seq = par));
    Alcotest.test_case "aggregate folds in submission order" `Quick
      (fun () ->
         let reqs = gen_requests ~seed:3 12 in
         let rows = Serve.Engine.process ~batch:3 reqs in
         let agg =
           Serve.Engine.aggregate_rows Serve.Engine.empty_aggregate rows
         in
         Alcotest.(check int) "requests" 12 agg.Serve.Engine.agg_requests;
         Alcotest.(check int) "ok+errors" 12
           (agg.Serve.Engine.agg_ok + agg.Serve.Engine.agg_errors);
         let json =
           Serve.Protocol.to_string (Serve.Engine.aggregate_json agg)
         in
         let par_rows =
           Harness.Pool.with_pool ~jobs:3 (fun p ->
               Serve.Engine.process ~pool:p ~batch:3 reqs)
         in
         let par_json =
           Serve.Protocol.to_string
             (Serve.Engine.aggregate_json
                (Serve.Engine.aggregate_rows Serve.Engine.empty_aggregate
                   par_rows))
         in
         Alcotest.(check string) "aggregate bytes identical across -j"
           json par_json);
  ]

(* --- compile_cached under server-shaped load ------------------------------- *)

let cache_tests =
  [
    Alcotest.test_case
      "concurrent mixed optimize flags match sequential compiles" `Quick
      (fun () ->
         Sanitizer.Driver.clear_compile_cache ();
         let sources =
           List.init 8 (fun i ->
               Printf.sprintf
                 "int main() { int a[%d]; for (int i = 0; i < %d; i++) \
                  a[i] = i; return a[%d] & 255; }"
                 (4 + i) (4 + i) (3 + i))
         in
         (* every (source, optimize) pair, shuffled across workers *)
         let grid =
           List.concat_map
             (fun s -> [ (s, true); (s, false); (s, true) ])
             sources
         in
         let sizes =
           List.map
             (fun (s, o) ->
                Tir.Ir.module_size
                  (Sanitizer.Driver.compile_cached ~optimize:o s))
             grid
         in
         let par_sizes =
           Harness.Pool.with_pool ~jobs:4 (fun p ->
               Harness.Pool.map p
                 (fun (s, o) ->
                    Tir.Ir.module_size
                      (Sanitizer.Driver.compile_cached ~optimize:o s))
                 grid)
         in
         Alcotest.(check (list int)) "sizes identical" sizes par_sizes);
    Alcotest.test_case "clear_compile_cache mid-campaign is invisible"
      `Quick
      (fun () ->
         let reqs = gen_requests ~seed:0xC1EA2 16 in
         let uninterrupted = Serve.Engine.process ~batch:4 reqs in
         let front = List.filteri (fun i _ -> i < 8) reqs in
         let back = List.filteri (fun i _ -> i >= 8) reqs in
         let a = Serve.Engine.process ~batch:4 front in
         Sanitizer.Driver.clear_compile_cache ();
         let b = Serve.Engine.process ~batch:4 back in
         Alcotest.(check bool) "responses unchanged" true
           (uninterrupted = a @ b));
    Alcotest.test_case "fuel burn is cache-state independent" `Quick
      (fun () ->
         let src =
           "int main() { int s = 0; for (int i = 0; i < 9; i++) s += i; \
            return s & 255; }"
         in
         Sanitizer.Driver.clear_compile_cache ();
         let cold = Tir.Fuel.make ~phase:"serve" ~budget:1_000_000 in
         ignore (Sanitizer.Driver.compile_cached ~optimize:true ~fuel:cold src);
         let warm = Tir.Fuel.make ~phase:"serve" ~budget:1_000_000 in
         ignore (Sanitizer.Driver.compile_cached ~optimize:true ~fuel:warm src);
         Alcotest.(check bool) "cold burned something" true
           (Tir.Fuel.remaining cold < 1_000_000);
         Alcotest.(check int) "hit burns exactly what the miss burned"
           (Tir.Fuel.remaining cold) (Tir.Fuel.remaining warm));
  ]

let () =
  Alcotest.run "serve"
    [
      "protocol", protocol_tests;
      "engine", engine_tests;
      "compile-cache", cache_tests;
    ]
