(* Tests of the certified-elision pipeline (DESIGN.md section 16):
   Tir.Absint behavior through the CECSan and ASan-- pipelines, the
   Tir.Scev overflow-guarded endpoint helpers, witness-replay mutation
   kills, the pinned fixpoint results and fuel of the engine, and the
   absint-on/off differential property. *)

let seed_gen = QCheck.(map abs int)

let build_cecsan ?(absint = true) src =
  let config =
    { Cecsan.Config.default with Cecsan.Config.opt_absint = absint }
  in
  Sanitizer.Driver.build (Cecsan.sanitizer ~config ()) src

let count_markers md =
  Tir.Ir.count_intrins md (fun n -> String.equal n Tir.Ir.telemetry_elided)

let count_checks md =
  Tir.Ir.count_intrins md (fun n ->
      List.mem_assoc n Cecsan.Opt.model.Tir.Absint.am_checks)

(* straight-line, non-escaping stack + heap accesses: everything the
   redundant pass leaves behind is certifiably elidable *)
let demo_src =
  "int main() { int a[4]; a[0] = 1; a[1] = 2; a[2] = 3; a[3] = 4; \
   int *p = (int*)malloc(8); p[0] = a[0] + a[2]; p[1] = a[1] + a[3]; \
   int r = p[0] * p[1]; free(p); return r & 0x7f; }"

(* --- elision through the full pipeline ----------------------------------- *)

let absint_tests =
  [
    Alcotest.test_case "in-bounds non-escaping checks elide with witnesses"
      `Quick
      (fun () ->
         (* Strict verify inside [build] already replayed every witness *)
         let md = build_cecsan demo_src in
         Alcotest.(check bool) "elided markers present" true
           (count_markers md > 0);
         Alcotest.(check bool) "witnesses minted" true
           (md.Tir.Ir.m_witnesses <> []);
         List.iter
           (fun w ->
              Alcotest.(check bool) "witness claims non-escaping" false
                w.Tir.Witness.w_escapes)
           md.Tir.Ir.m_witnesses);
    Alcotest.test_case "an escaping pointer blocks elision" `Quick
      (fun () ->
         (* p escapes into the impure callee, so its checks survive *)
         let src =
           "static void sink(int *q) { free(q); } \
            int main() { int *p = (int*)malloc(8); p[0] = 7; \
            int r = p[0]; sink(p); return r; }"
         in
         let md = build_cecsan src in
         Alcotest.(check bool) "checks remain" true (count_checks md > 0));
    Alcotest.test_case "absint strictly increases elided sites" `Quick
      (fun () ->
         (* the acceptance pin: on top of redundant + loop elisions, the
            absint pass must elide or downgrade strictly more sites
            across the kernels (SPEC code mostly earns downgrades: the
            temporal half proves where variable sizes block bounds) *)
         let total absint =
           List.fold_left
             (fun acc (w : Workloads.Spec2006.t) ->
                match build_cecsan ~absint w.Workloads.Spec2006.w_source with
                | md ->
                  acc + count_markers md
                  + Tir.Ir.count_intrins md (fun n ->
                      Filename.check_suffix n "_spatial")
                | exception Sanitizer.Spec.Unsupported _ -> acc)
             0
             Workloads.Spec2006.all
         in
         let on = total true and off = total false in
         Alcotest.(check bool)
           (Printf.sprintf "%d (absint) > %d (scev-only)" on off)
           true (on > off));
    Alcotest.test_case "asan-- rides the same machinery via call models"
      `Quick
      (fun () ->
         (* allocator CALLS (not intrinsics) feed the points-to domain;
            Strict verify replayed the witnesses during build *)
         let md =
           Sanitizer.Driver.build (Baselines.Asan_minus.sanitizer ()) demo_src
         in
         Alcotest.(check bool) "asan-- witnesses minted" true
           (md.Tir.Ir.m_witnesses <> []));
    Alcotest.test_case "downgraded sites keep their site id and detection"
      `Quick
      (fun () ->
         (* every witness must point at a live site of its function *)
         let md = build_cecsan demo_src in
         List.iter
           (fun w ->
              Alcotest.(check bool) "site id minted" true
                (w.Tir.Witness.w_site >= 0))
           md.Tir.Ir.m_witnesses);
  ]

(* --- Tir.Scev endpoint edge cases (overflow-guarded helpers) -------------- *)

let scev_tests =
  [
    Alcotest.test_case "non-positive strides and zero-trip loops reject"
      `Quick
      (fun () ->
         Alcotest.(check (option int)) "negative stride" None
           (Tir.Scev.last_index ~start:0 ~bound:10 ~step:(-2));
         Alcotest.(check (option int)) "zero stride" None
           (Tir.Scev.last_index ~start:0 ~bound:10 ~step:0);
         Alcotest.(check (option int)) "zero-trip (bound = start)" None
           (Tir.Scev.last_index ~start:5 ~bound:5 ~step:1);
         Alcotest.(check (option int)) "zero-trip (bound < start)" None
           (Tir.Scev.last_index ~start:9 ~bound:2 ~step:3);
         Alcotest.(check (option int)) "one-trip" (Some 4)
           (Tir.Scev.last_index ~start:4 ~bound:5 ~step:7));
    Alcotest.test_case "endpoint arithmetic near max_int refuses to wrap"
      `Quick
      (fun () ->
         Alcotest.(check (option int)) "add overflow" None
           (Tir.Scev.add_no_ov max_int 1);
         Alcotest.(check (option int)) "sub underflow" None
           (Tir.Scev.sub_no_ov min_int 1);
         Alcotest.(check (option int)) "mul overflow" None
           (Tir.Scev.mul_no_ov ((max_int / 2) + 1) 2);
         Alcotest.(check (option int)) "min_int * -1" None
           (Tir.Scev.mul_no_ov min_int (-1));
         Alcotest.(check (option (pair int int))) "endpoint mul overflow"
           None
           (Tir.Scev.endpoint_offsets ~start:(max_int / 2)
              ~bound:((max_int / 2) + 2) ~step:1 ~elem_size:4 ~off:0);
         Alcotest.(check (option (pair int int))) "endpoint off overflow"
           None
           (Tir.Scev.endpoint_offsets ~start:(max_int - 8) ~bound:max_int
              ~step:1 ~elem_size:1 ~off:16));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"derived endpoints never overflow or flip sign" ~count:2000
         QCheck.(
           let corner =
             oneofl [ 0; 1; 2; 7; 1000; max_int; max_int - 1; max_int / 2;
                      max_int / 4 * 3 ]
           in
           let small = map abs small_int in
           tup5 (oneof [ small; corner ]) (oneof [ small; corner ])
             (map (fun n -> 1 + abs n) small_int)
             (oneof [ small; oneofl [ 0; 1; 4; 8; max_int / 2 ] ])
             (oneof [ small; corner ]))
         (fun (start, bound, step, elem_size, off) ->
            match
              Tir.Scev.endpoint_offsets ~start ~bound ~step ~elem_size ~off
            with
            | None -> true
            | Some (x, y) ->
              (* all inputs are >= 0 here, so a negative endpoint can
                 only come from silent wraparound *)
              if x < 0 || y < 0 || x > y then
                QCheck.Test.fail_reportf
                  "start=%d bound=%d step=%d es=%d off=%d -> (%d, %d)"
                  start bound step elem_size off x y
              else true));
    Alcotest.test_case "negative-stride loops stay correct end to end"
      `Quick
      (fun () ->
         (* a countdown loop is outside scev's grouping pattern: checks
            stay per-iteration, behavior and detection are unchanged *)
         let clean =
           "int main() { int a[8]; int s = 0; \
            for (int i = 8; i > 0; i--) a[i-1] = i; \
            for (int i = 0; i < 8; i++) s = s + a[i]; return s & 0x7f; }"
         in
         (match
            (Sanitizer.Driver.run (Cecsan.sanitizer ()) clean)
              .Sanitizer.Driver.outcome
          with
          | Vm.Machine.Exit c -> Alcotest.(check int) "clean exit" 36 c
          | o ->
            Alcotest.failf "clean countdown: %a" Vm.Machine.pp_outcome o);
         let oob =
           "int main() { int a[8]; int s = 0; \
            for (int i = 8; i >= 0; i--) a[i] = i; \
            for (int i = 0; i < 8; i++) s = s + a[i]; return s & 0x7f; }"
         in
         match
           (Sanitizer.Driver.run (Cecsan.sanitizer ()) oob)
             .Sanitizer.Driver.outcome
         with
         | Vm.Machine.Bug _ -> ()
         | o -> Alcotest.failf "oob countdown: %a" Vm.Machine.pp_outcome o);
  ]

(* --- witness-replay mutation kills ---------------------------------------- *)

(* Build the instrumented+optimized module WITHOUT the driver's Strict
   gate, so a mutation can be planted before verification. *)
let build_unverified ?(san = Cecsan.sanitizer ()) src =
  let md = Sanitizer.Driver.compile_cached ~optimize:true src in
  san.Sanitizer.Spec.instrument md;
  san.Sanitizer.Spec.optimize md;
  md

let verify ?(spec = Cecsan.Opt.spec) md = Tir.Verify.check ~spec md

let mutate_first f (md : Tir.Ir.modul) =
  match md.Tir.Ir.m_witnesses with
  | [] -> Alcotest.fail "expected at least one witness"
  | w :: rest -> md.Tir.Ir.m_witnesses <- f w :: rest

let expect_reject what md =
  let r = verify md in
  Alcotest.(check bool) (what ^ " rejected") true
    (r.Tir.Verify.r_errors <> [])

let expect_clean ?spec md =
  let r = verify ?spec md in
  Alcotest.(check (list string)) "no errors" []
    (List.map Tir.Verify.error_to_string r.Tir.Verify.r_errors);
  Alcotest.(check bool) "witnesses replayed" true
    (r.Tir.Verify.r_witnesses > 0)

(* a pointer walking an array: the loop header's claimed offset
   interval is the widened one, and the store after the loop still
   mints a witness, so [main] carries a certificate *)
let loop_src =
  "int main() { int a[8]; int *p = a; \
   for (int i = 0; i < 8; i++) { *p = i; p = p + 1; } \
   a[0] = 1; return a[0]; }"

(* a free followed by a branch: the blocks after [free(p)] claim p's
   object in their freed set *)
let free_src =
  "int main() { int *p = (int*)malloc(8); int *q = (int*)malloc(8); \
   p[0] = 1; q[0] = 2; free(p); if (q[0] > 1) { q[1] = 3; } \
   int r = q[0] + q[1]; free(q); return r; }"

(* Replace the certificate of [main] by [f] of it. *)
let forge_main_cert f (md : Tir.Ir.modul) =
  let forged = ref false in
  md.Tir.Ir.m_certs <-
    List.map
      (fun (c : Tir.Witness.cert) ->
         if String.equal c.Tir.Witness.c_func "main" && not !forged then begin
           forged := true;
           f c
         end
         else c)
      md.Tir.Ir.m_certs;
  if not !forged then Alcotest.fail "expected a certificate for main"

(* The certificate with the claimed state of every block [pick] allows
   replaced by [g] of it, where [g] finds something to forge; fails the
   test when it finds nothing anywhere. *)
let forge_state ~pick g (c : Tir.Witness.cert) =
  let hit = ref false in
  let states =
    Array.mapi
      (fun bid st ->
         match st with
         | Some s when pick bid ->
           (match g s with
            | Some s' -> hit := true; Some s'
            | None -> st)
         | _ -> st)
      c.Tir.Witness.c_block_in
  in
  if not !hit then Alcotest.fail "nothing to forge in the certificate";
  { c with Tir.Witness.c_block_in = states }

let loop_headers (md : Tir.Ir.modul) =
  match Tir.Ir.find_func md "main" with
  | None -> Alcotest.fail "no main"
  | Some f ->
    let cfg = Tir.Cfg.build f in
    List.map (fun l -> l.Tir.Cfg.header)
      (Tir.Cfg.loops f cfg (Tir.Cfg.dominators cfg))

(* Narrow the first binding with a non-singleton interval to the single
   offset in it nearest 0: for the walking pointer that is its value on
   loop entry, so only the back edge can refute the claim -- the
   certificate a fixpoint that forgot to widen would produce. *)
let narrow_one (st : Tir.Witness.state) =
  let open Tir.Witness in
  let wide =
    Int_map.filter
      (fun _ v ->
         match v with
         | Vint (l, h) -> l < h
         | Vptr { lo; hi; _ } -> lo < hi
         | Vtop -> false)
      st.s_regs
  in
  match Int_map.min_binding_opt wide with
  | None -> None
  | Some (r, v) ->
    let near0 l h = max l (min h 0) in
    let v' =
      match v with
      | Vint (l, h) -> Vint (near0 l h, near0 l h)
      | Vptr p -> Vptr { p with lo = near0 p.lo p.hi; hi = near0 p.lo p.hi }
      | Vtop -> Vtop
    in
    Some { st with s_regs = Int_map.add r v' st.s_regs }

let witness_tests =
  [
    Alcotest.test_case "intact witnesses replay clean" `Quick
      (fun () ->
         expect_clean (build_unverified demo_src);
         expect_clean (build_unverified loop_src);
         expect_clean (build_unverified free_src));
    Alcotest.test_case "wrong interval bound is killed" `Quick
      (fun () ->
         let md = build_unverified demo_src in
         mutate_first
           (fun w -> { w with Tir.Witness.w_hi = w.Tir.Witness.w_objsize })
           md;
         expect_reject "inflated w_hi" md);
    Alcotest.test_case "dropped escape fact is killed" `Quick
      (fun () ->
         let md = build_unverified demo_src in
         mutate_first (fun w -> { w with Tir.Witness.w_escapes = true }) md;
         expect_reject "escaping witness" md);
    Alcotest.test_case "stale temporal liveness is killed" `Quick
      (fun () ->
         let md = build_unverified demo_src in
         mutate_first (fun w -> { w with Tir.Witness.w_temporal = false }) md;
         expect_reject "non-temporal witness" md);
    Alcotest.test_case "wrong object descriptor is killed" `Quick
      (fun () ->
         let md = build_unverified demo_src in
         mutate_first (fun w -> { w with Tir.Witness.w_obj = "slot:bogus:9" })
           md;
         expect_reject "bogus object" md);
    Alcotest.test_case "dangling witness site is killed" `Quick
      (fun () ->
         let md = build_unverified demo_src in
         mutate_first (fun w -> { w with Tir.Witness.w_site = 999999 }) md;
         expect_reject "dangling site" md);
    Alcotest.test_case "narrowed loop-header interval is killed" `Quick
      (fun () ->
         let md = build_unverified loop_src in
         let headers = loop_headers md in
         forge_main_cert
           (forge_state ~pick:(fun b -> List.mem b headers) narrow_one)
           md;
         expect_reject "narrowed loop header" md);
    Alcotest.test_case "freed object dropped after a free is killed" `Quick
      (fun () ->
         let md = build_unverified free_src in
         forge_main_cert
           (forge_state ~pick:(fun _ -> true) (fun st ->
                match Tir.Witness.Int_set.min_elt_opt st.Tir.Witness.s_freed
                with
                | None -> None
                | Some o ->
                  Some
                    { st with
                      Tir.Witness.s_freed =
                        Tir.Witness.Int_set.remove o st.Tir.Witness.s_freed }))
           md;
         expect_reject "dropped freed object" md);
    Alcotest.test_case "entry state assuming a fact is killed" `Quick
      (fun () ->
         let md = build_unverified demo_src in
         forge_main_cert
           (forge_state ~pick:(fun b -> b = 0) (fun st ->
                Some
                  { st with
                    Tir.Witness.s_regs =
                      Tir.Witness.Int_map.add 0 (Tir.Witness.Vint (7, 7))
                        st.Tir.Witness.s_regs }))
           md;
         expect_reject "entry assumption" md);
    Alcotest.test_case "deleted certificate is killed" `Quick
      (fun () ->
         let md = build_unverified demo_src in
         md.Tir.Ir.m_certs <- [];
         expect_reject "missing certificate" md);
    Alcotest.test_case "mismatched object descriptors are killed" `Quick
      (fun () ->
         let md = build_unverified demo_src in
         forge_main_cert
           (fun c ->
              let objs = Array.copy c.Tir.Witness.c_objs in
              let desc, size = objs.(0) in
              objs.(0) <- (desc, size + 8);
              { c with Tir.Witness.c_objs = objs })
           md;
         expect_reject "resized object" md;
         let md = build_unverified demo_src in
         forge_main_cert
           (fun c ->
              { c with
                Tir.Witness.c_objs =
                  Array.append c.Tir.Witness.c_objs [| ("slot:bogus:9", 4) |] })
           md;
         expect_reject "extra object" md);
    Alcotest.test_case "certificates survive Ir.clone" `Quick
      (fun () -> expect_clean (Tir.Ir.clone (build_unverified loop_src)));
    Alcotest.test_case "asan-- certificates check clean" `Quick
      (fun () ->
         expect_clean ~spec:Baselines.Asan_minus.spec
           (build_unverified ~san:(Baselines.Asan_minus.sanitizer ())
              free_src));
    Alcotest.test_case "deleting witnesses shrinks proven coverage" `Quick
      (fun () ->
         let base = build_unverified demo_src in
         let covered_base = (verify base).Tir.Verify.r_covered in
         let md = build_unverified demo_src in
         md.Tir.Ir.m_witnesses <- [];
         let r = verify md in
         Alcotest.(check bool)
           (Printf.sprintf "%d < %d" r.Tir.Verify.r_covered covered_base)
           true
           (r.Tir.Verify.r_covered < covered_base));
  ]

(* --- engine identity: pinned fixpoint states and fuel --------------------- *)

(* Every function of the regression corpus and the SPEC-like kernels,
   optimized under each tool with an absint model, is analyzed once
   more; the MD5 of [Absint.pp_summary] and the fuel [analyze] burns are
   compared with test/absint.digests.  A change to the fixpoint engine
   (iteration order, skipped work, widening) must leave both intact.

   UPDATING THE DIGESTS: only an intentional change of the abstract
   domains may do so.  A failing case prints the measured table for its
   tool; replace that tool's lines in absint.digests with it. *)

(* under [dune test] the data sits next to the binary; under
   [dune exec test/test_absint.exe] the cwd is the repository root *)
let dir = if Sys.file_exists "absint.digests" then "." else "test"

let engine_programs : (string * string) list =
  let corpus_dir = Filename.concat dir "corpus" in
  let corpus =
    Sys.readdir corpus_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".mc")
    |> List.sort compare
    |> List.map (fun f ->
        (f, In_channel.with_open_bin (Filename.concat corpus_dir f)
              In_channel.input_all))
  in
  corpus
  @ List.map
    (fun w -> (w.Workloads.Spec2006.w_name, w.Workloads.Spec2006.w_source))
    Workloads.Spec2006.all
  @ List.map
    (fun w -> (w.Workloads.Spec2017.w_name, w.Workloads.Spec2017.w_source))
    Workloads.Spec2017.all

(* one "<tool> <program> <function> <md5> <fuel>" line per function, or
   "<tool> <program> unsupported" *)
let engine_table (san : Sanitizer.Spec.t) =
  let model, hazards =
    match san.Sanitizer.Spec.verify with
    | Some { Tir.Verify.absint = Some m; hazard_intrinsics; _ } ->
      (m, hazard_intrinsics)
    | _ -> Alcotest.failf "%s carries no absint model" san.Sanitizer.Spec.name
  in
  List.concat_map
    (fun (prog, src) ->
       let md = Sanitizer.Driver.compile_cached ~optimize:true src in
       match san.Sanitizer.Spec.instrument md with
       | exception Sanitizer.Spec.Unsupported _ ->
         [ Printf.sprintf "%s %s unsupported" san.Sanitizer.Spec.name prog ]
       | () ->
         san.Sanitizer.Spec.optimize md;
         let pure =
           Tir.Analysis.pure_callees md ~is_hazard:(fun n -> List.mem n hazards)
         in
         let cx = Tir.Absint.make_ctx model ~pure md in
         let rows = ref [] in
         Tir.Ir.iter_funcs md (fun f ->
             if not f.Tir.Ir.f_external then begin
               let fuel = Tir.Fuel.make ~phase:"absint" ~budget:max_int in
               let su = Tir.Absint.analyze ~fuel cx f in
               rows :=
                 Printf.sprintf "%s %s %s %s %d" san.Sanitizer.Spec.name prog
                   f.Tir.Ir.f_name
                   (Digest.to_hex
                      (Digest.string
                         (Format.asprintf "%a" Tir.Absint.pp_summary su)))
                   (max_int - Tir.Fuel.remaining fuel)
                 :: !rows
             end);
         List.rev !rows)
    engine_programs

let engine_expected : string list Lazy.t =
  lazy
    (In_channel.with_open_bin (Filename.concat dir "absint.digests")
       In_channel.input_all
     |> String.split_on_char '\n'
     |> List.filter (fun l -> l <> ""))

let engine_tests =
  List.map
    (fun (san : Sanitizer.Spec.t) ->
       let label = san.Sanitizer.Spec.name in
       Alcotest.test_case (label ^ " states and fuel unchanged") `Quick
         (fun () ->
            let want =
              List.filter
                (String.starts_with ~prefix:(label ^ " "))
                (Lazy.force engine_expected)
            in
            let got = engine_table san in
            if got <> want then begin
              List.iter prerr_endline got;
              Alcotest.failf "%s: absint results differ from absint.digests \
                              (measured table above)" label
            end))
    [ Cecsan.sanitizer (); Baselines.Asan_minus.sanitizer () ]

(* --- absint-on/off differential property ---------------------------------- *)

let site_sums (s : Telemetry.Snapshot.t) =
  List.map
    (fun (r : Telemetry.Snapshot.site_row) ->
       (r.Telemetry.Snapshot.s_site,
        r.Telemetry.Snapshot.s_executed + r.Telemetry.Snapshot.s_elided
        + r.Telemetry.Snapshot.s_covered))
    s.Telemetry.Snapshot.sites

let differential_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"certified elision is observationally invisible" ~count:200
         seed_gen
         (fun seed ->
            let p =
              Fuzz.Gen.generate ~inject:(seed mod 2 = 1)
                (Fuzz.Tape.fresh ~seed)
            in
            let go absint =
              Sanitizer.Driver.run
                (Cecsan.sanitizer
                   ~config:
                     { Cecsan.Config.default with
                       Cecsan.Config.opt_absint = absint }
                   ())
                ~externs:Fuzz.Oracle.externs p.Fuzz.Gen.src
            in
            let on = go true and off = go false in
            let show (r : Sanitizer.Driver.run_result) =
              Format.asprintf "%a" Vm.Machine.pp_outcome
                r.Sanitizer.Driver.outcome
            in
            if not (String.equal (show on) (show off)) then
              QCheck.Test.fail_reportf "seed %d: outcome %s vs %s@.%s" seed
                (show on) (show off) p.Fuzz.Gen.src
            else if
              not
                (String.equal on.Sanitizer.Driver.output
                   off.Sanitizer.Driver.output)
            then QCheck.Test.fail_reportf "seed %d: output diverged" seed
            else if on.Sanitizer.Driver.cycles > off.Sanitizer.Driver.cycles
            then
              QCheck.Test.fail_reportf
                "seed %d: absint made it SLOWER (%d > %d cycles)" seed
                on.Sanitizer.Driver.cycles off.Sanitizer.Driver.cycles
            else begin
              (* conservation per site: executed + elided + covered is
                 invariant under certified elision *)
              let a = site_sums on.Sanitizer.Driver.snapshot in
              let b = site_sums off.Sanitizer.Driver.snapshot in
              if a <> b then
                QCheck.Test.fail_reportf
                  "seed %d: per-site conservation broke@.%s" seed
                  p.Fuzz.Gen.src
              else true
            end));
  ]

let () =
  Alcotest.run "absint"
    [
      ("elision", absint_tests);
      ("scev-endpoints", scev_tests);
      ("witness-replay", witness_tests);
      ("engine-pin", engine_tests);
      ("differential", differential_tests);
    ]
