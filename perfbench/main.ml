(* perfbench: one benchmark for the CECSan stack.

     main.exe --workload kernels|serve|fuzz --seed N --seconds S
              --trace 0|1 [--smoke] [--serve-exe PATH] [--out DIR]

   Runs one seeded workload for S seconds against the stack's public
   entry points, checks every output against an independent reference,
   writes per-operation rows (and, traced, every span) to
   DIR/<workload>-seed<N>-trace<T>.jsonl, and prints as its last stdout
   line one JSON object: correct, attempted, failed and the metrics --
   the end-to-end metrics untraced, the per-layer metrics traced. *)

let usage =
  "main.exe --workload kernels|serve|fuzz --seed N --seconds S --trace 0|1 \
   [--smoke] [--serve-exe PATH] [--out DIR]"

(* Layers every workload's traced run exercises; their self-time shares
   are per-layer metrics.  All layers' shares go to the trace file. *)
let shared_layers = [ "minic"; "tir"; "core"; "sanitizer"; "vm" ]

open Pbench

let json_metrics (ms : Util.metric list) =
  String.concat ","
    (List.map
       (fun (m : Util.metric) ->
          Printf.sprintf "%s:{\"value\":%.17g,\"unit\":%s}"
            (Trace.json_string m.Util.m_name) m.Util.m_value
            (Trace.json_string m.Util.m_unit))
       ms)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.
  and trace = ref 0 and smoke = ref false
  and serve_exe = ref "_build/default/bin/cecsan_serve.exe"
  and out = ref "perfbench/out" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "kernels | serve | fuzz");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured seconds");
      ("--trace", Arg.Set_int trace, "0|1 traced run");
      ("--smoke", Arg.Set smoke, " tiny inputs, for the benchmark's tests");
      ("--serve-exe", Arg.Set_string serve_exe, "PATH cecsan_serve binary");
      ("--out", Arg.Set_string out, "DIR trace output directory") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if (!trace <> 0 && !trace <> 1) || !seconds <= 0. then begin
    prerr_endline usage;
    exit 2
  end;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let traced = !trace = 1 in
  Trace.reset ~on:traced;
  let seed = !seed and seconds = !seconds and smoke = !smoke in
  let r =
    match !workload with
    | "kernels" -> Pbench.Wl_kernels.run ~seed ~seconds ~smoke ~trace:traced
    | "serve" ->
      Pbench.Wl_serve.run ~exe:!serve_exe ~seed ~seconds ~smoke ~trace:traced
    | "fuzz" -> Pbench.Wl_fuzz.run ~seed ~seconds ~smoke ~trace:traced
    | w ->
      prerr_endline ("unknown workload " ^ w ^ "\n" ^ usage);
      exit 2
  in
  (* the untraced twins (layer "twin") and the heap pins (layer
     "bench") are the benchmark's own scaffolding: shares are of the
     time left to the stack *)
  let elapsed = Util.now () -. !Trace.started in
  let layers, uncovered = Trace.attribution ~wall:elapsed in
  let self l = try List.assoc l layers with Not_found -> 0. in
  let scaffolding l = l = "twin" || l = "bench" in
  let wall = elapsed -. self "twin" -. self "bench" in
  let unattributed = uncovered /. wall in
  let share l = self l /. wall in
  let metrics =
    if traced then
      r.Util.metrics
      @ List.map
        (fun l -> Util.metric (l ^ ".self_share") "ratio" (share l))
        shared_layers
      @ [ Util.metric "trace.unattributed_share" "ratio" unattributed ]
    else r.Util.metrics
  in
  let correct =
    r.Util.failed = 0
    && List.for_all (fun (m : Util.metric) -> Float.is_finite m.Util.m_value) metrics
  in
  let header =
    Printf.sprintf
      "{\"workload\":%S,\"seed\":%d,\"seconds\":%g,\"trace\":%d,\"elapsed_s\":%.4f,\
       \"stack_wall_s\":%.4f,\"attempted\":%d,\"failed\":%d,\
       \"unattributed_share\":%.4f,\"layer_self_s\":{%s},\"failures\":[%s]}"
      !workload seed seconds !trace elapsed wall r.Util.attempted r.Util.failed
      unattributed
      (String.concat ","
         (List.map (fun (l, s) -> Printf.sprintf "%S:%.6f" l s) layers))
      (String.concat "," (List.map Trace.json_string r.Util.failures))
  in
  Trace.write
    ~path:
      (Filename.concat !out
         (Printf.sprintf "%s-seed%d-trace%d.jsonl" !workload seed !trace))
    ~header ~extra:r.Util.rows;
  List.iter (fun f -> prerr_endline ("FAILED: " ^ f)) r.Util.failures;
  List.iter print_endline r.Util.rows;
  if traced then
    List.iter
      (fun (l, s) ->
         if scaffolding l then Printf.printf "layer %-10s self %8.3f s  (benchmark)\n" l s
         else Printf.printf "layer %-10s self %8.3f s  %5.1f%%\n" l s (100. *. s /. wall))
      layers;
  Printf.printf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}\n%!"
    correct (max 1 r.Util.attempted) r.Util.failed
    (json_metrics
       (List.map
          (fun (m : Util.metric) ->
             if Float.is_finite m.Util.m_value then m
             else { m with Util.m_value = -1. })
          metrics))
