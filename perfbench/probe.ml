(* The traced trio probe, shared by every workload's traced run.

   Each program of the workload goes source -> verdict three ways --
   CECSan on the jit, CECSan on the interpreter, uninstrumented on the
   jit -- twice each: once through the public driver calls, untraced
   (the twin), and once stage by stage with spans.  The twin gives the
   tracing overhead and the reference the staged run must match; the
   staged run gives the per-stage times behind the per-layer metrics.
   Interp and jit must agree on outcome and cycles, and a program with a
   known exit code must produce it on every leg. *)

type program = {
  p_id : int;                 (* request id shared by its spans *)
  p_name : string;
  p_src : string;
  p_expected : int option;    (* independent expected exit code *)
  p_externs : (string * (Vm.State.t -> int array -> int)) list;
  p_budget : int option;
}

type leg = {
  l_name : string;
  l_san : unit -> Sanitizer.Spec.t;
  l_backend : Vm.Machine.backend;
}

let cecsan_jit =
  { l_name = "cecsan-jit"; l_san = (fun () -> Cecsan.sanitizer ());
    l_backend = Vm.Machine.Jit }

let cecsan_interp =
  { l_name = "cecsan-interp"; l_san = (fun () -> Cecsan.sanitizer ());
    l_backend = Vm.Machine.Interp }

let none_jit =
  { l_name = "none-jit"; l_san = (fun () -> Sanitizer.Spec.none);
    l_backend = Vm.Machine.Jit }

let legs = [ cecsan_jit; cecsan_interp; none_jit ]

(* Staged samples per (program id, leg name), plus the paired
   twin/traced totals behind the tracing overhead. *)
type acc = {
  samples : (int * string, Staged.stages list) Hashtbl.t;
  twins : (int * string, float list) Hashtbl.t;  (* untraced ms *)
  mutable twin_ms : float;
  mutable traced_ms : float;
  mutable programs : int list;   (* ids seen, newest first *)
}

let create () =
  { samples = Hashtbl.create 64; twins = Hashtbl.create 64; twin_ms = 0.; traced_ms = 0.; programs = [] }

let expect_exit (p : program) leg (r : Sanitizer.Driver.run_result) =
  match p.p_expected with
  | None -> None
  | Some code ->
    (match r.Sanitizer.Driver.outcome with
     | Vm.Machine.Exit c when c = code -> None
     | o ->
       Some
         (Printf.sprintf "%s %s: expected exit %d, got %s" p.p_name leg.l_name
            code (Util.outcome_string o)))

(* The interpreter is the golden reference: the jit must reproduce its
   outcome and cycles exactly.  [runs] maps leg names to runs. *)
let check_backends (tally : Util.tally) name runs =
  match
    (List.assoc_opt cecsan_jit.l_name runs,
     List.assoc_opt cecsan_interp.l_name runs)
  with
  | Some (j : Sanitizer.Driver.run_result), Some (i : Sanitizer.Driver.run_result) ->
    Util.attempt tally;
    let oj = Util.outcome_string j.Sanitizer.Driver.outcome
    and oi = Util.outcome_string i.Sanitizer.Driver.outcome in
    if (not (String.equal oj oi))
    || j.Sanitizer.Driver.cycles <> i.Sanitizer.Driver.cycles
    then
      Util.fail tally
        (Printf.sprintf "%s: jit %s/%d vs interp %s/%d" name oj
           j.Sanitizer.Driver.cycles oi i.Sanitizer.Driver.cycles)
  | _ -> ()

(* One program through the three legs. *)
let run_program (tally : Util.tally) (acc : acc) (p : program) =
  if not (List.mem p.p_id acc.programs) then
    acc.programs <- p.p_id :: acc.programs;
  let results =
    List.filter_map
      (fun leg ->
         Util.attempt tally;
         let san = leg.l_san () in
         match
           Trace.pin_heap ();
           let twin, twin_ms =
             Trace.timed ~req:p.p_id ("twin." ^ leg.l_name) (fun () ->
                 Staged.driver ~externs:p.p_externs ?budget:p.p_budget ~san
                   ~backend:leg.l_backend p.p_src)
           in
           Trace.pin_heap ();
           let st, traced_ms =
             Trace.timed ~req:p.p_id ("bench." ^ leg.l_name) (fun () ->
                 Staged.run ~externs:p.p_externs ?budget:p.p_budget ~san
                   ~backend:leg.l_backend p.p_src)
           in
           (twin, twin_ms, st, traced_ms)
         with
         | exception e ->
           Util.fail tally
             (Printf.sprintf "%s %s: %s" p.p_name leg.l_name
                (Printexc.to_string e));
           None
         | twin, twin_ms, st, traced_ms ->
           (match
              (match Staged.same twin st.Staged.run with
               | Some d -> Some ("staged run differs from driver: " ^ d)
               | None -> expect_exit p leg twin)
            with
            | Some note ->
              Util.fail tally (Printf.sprintf "%s %s: %s" p.p_name leg.l_name note);
              None
            | None ->
              acc.twin_ms <- acc.twin_ms +. twin_ms;
              acc.traced_ms <- acc.traced_ms +. traced_ms;
              let key = (p.p_id, leg.l_name) in
              Hashtbl.replace acc.samples key
                (st :: (try Hashtbl.find acc.samples key with Not_found -> []));
              Hashtbl.replace acc.twins key
                (twin_ms :: (try Hashtbl.find acc.twins key with Not_found -> []));
              Some (leg.l_name, twin)))
      legs
  in
  check_backends tally p.p_name results

(* Median of a stage over one program's samples. *)
let med f sts = Util.median (List.map f sts)

let per_program acc leg f =
  List.filter_map
    (fun id ->
       match Hashtbl.find_opt acc.samples (id, leg.l_name) with
       | Some (_ :: _ as sts) -> Some (id, med f sts)
       | _ -> None)
    (List.rev acc.programs)

let geo acc leg f = Util.geomean (List.map snd (per_program acc leg f))

let avg acc leg f = Util.mean (List.map snd (per_program acc leg f))

(* Per-program ratio of two legs' medians, geometric mean over the
   programs that have both. *)
let ratio acc (la, fa) (lb, fb) =
  let b = per_program acc lb fb in
  Util.geomean
    (List.filter_map
       (fun (id, x) ->
          match List.assoc_opt id b with
          | Some y when y > 0. -> Some (x /. y)
          | _ -> None)
       (per_program acc la fa))

let cycles (s : Staged.stages) = float_of_int s.Staged.run.Sanitizer.Driver.cycles

(* The per-layer metrics every workload's traced run reports. *)
let metrics acc : Util.metric list =
  let m = Util.metric in
  let j = cecsan_jit in
  let stage name f = m name "ms" (geo acc j f) in
  let count name f = m name "count" (avg acc j (fun s -> float_of_int (f s))) in
  let wall =
    ratio acc (cecsan_jit, fun s -> s.Staged.exec) (none_jit, fun s -> s.Staged.exec)
  and model = ratio acc (cecsan_jit, cycles) (none_jit, cycles) in
  [ stage "minic.parse_ms" (fun s -> s.Staged.parse);
    stage "minic.sema_ms" (fun s -> s.Staged.sema);
    stage "tir.lower_ms" (fun s -> s.Staged.lower);
    stage "tir.promote_ms" (fun s -> s.Staged.promote);
    stage "core.instrument_ms" (fun s -> s.Staged.instrument);
    stage "tir.verify_pre_ms" (fun s -> s.Staged.verify_pre);
    stage "sanitizer.optimize_ms" (fun s -> s.Staged.optimize);
    stage "tir.verify_post_ms" (fun s -> s.Staged.verify_post);
    stage "vm.resolve_ms" (fun s -> s.Staged.resolve);
    stage "vm.jit_compile_ms" (fun s -> s.Staged.jit_compile);
    stage "vm.exec_ms" (fun s -> s.Staged.exec);
    m "vm.exec_interp_ms" "ms" (geo acc cecsan_interp (fun s -> s.Staged.exec));
    m "vm.exec_none_ms" "ms" (geo acc none_jit (fun s -> s.Staged.exec));
    m "vm.jit_speedup" "ratio"
      (ratio acc (cecsan_interp, fun s -> s.Staged.exec)
         (cecsan_jit, fun s -> s.Staged.exec));
    m "vm.ns_per_cycle" "ns"
      (geo acc j (fun s -> s.Staged.exec *. 1e6 /. Float.max 1. (cycles s)));
    m "cecsan.overhead_wall" "ratio" wall;
    m "cecsan.overhead_model" "ratio" model;
    m "cecsan.overhead_gap" "ratio" (wall -. model);
    count "tir.size_lowered" (fun s -> s.Staged.size_lowered);
    count "tir.size_instrumented" (fun s -> s.Staged.size_instrumented);
    count "tir.size_optimized" (fun s -> s.Staged.size_optimized);
    count "vm.cycles" (fun s -> s.Staged.run.Sanitizer.Driver.cycles);
    count "vm.heap_allocs" (fun s -> s.Staged.run.Sanitizer.Driver.heap_allocs);
    m "vm.resident_kb" "kB"
      (avg acc j (fun s -> float_of_int (s.Staged.run.Sanitizer.Driver.resident / 1024)));
    count "core.checks_executed" (fun s ->
        let e, _, _ = Staged.checks s.Staged.run in e);
    count "core.checks_elided" (fun s ->
        let _, l, _ = Staged.checks s.Staged.run in l);
    count "core.checks_covered" (fun s ->
        let _, _, c = Staged.checks s.Staged.run in c);
    m "trace.overhead_share" "ratio"
      ((acc.traced_ms -. acc.twin_ms) /. Float.max 1e-9 acc.twin_ms) ]

(* Runs [progs] in order, cycling, until [deadline]; at least one full
   pass. *)
let run_until ~deadline (tally : Util.tally) (acc : acc) (progs : program list) =
  let rec pass first =
    let rec go = function
      | [] -> true
      | p :: rest ->
        if (not first) && Util.now () > deadline then false
        else begin
          run_program tally acc p;
          go rest
        end
    in
    if go progs && Util.now () < deadline then pass false
  in
  if progs <> [] then pass true
