(* The benchmark's own tests: generated inputs are a function of the
   seed alone, and a tiny smoke run of every workload, untraced and
   traced, passes its correctness checks and reports finite metrics. *)

open Pbench

let serve_exe = "../bin/cecsan_serve.exe"

let inputs =
  [ ("kernels", fun seed -> Wl_kernels.inputs ~seed ~smoke:false);
    ("serve", fun seed -> Wl_serve.inputs ~seed ~smoke:false);
    ("fuzz", fun seed -> Wl_fuzz.inputs ~seed ~smoke:true) ]

let check_inputs (name, gen) =
  let a = gen 7 and b = gen 7 and c = gen 8 in
  if not (String.equal a b) then
    failwith (name ^ ": the same seed generated different inputs");
  if String.equal a c then
    failwith (name ^ ": different seeds generated the same inputs")

(* Every analyze-pool cell gets the verdict the Table II matrix pins. *)
let check_pool () =
  let items = Wl_serve.pool_items () in
  List.iter
    (fun (it : Wl_serve.item) ->
       match
         Wl_serve.check it
           (Serve.Engine.execute it.Wl_serve.i_req).Serve.Engine.r_response
       with
       | Some note -> failwith ("analyze pool: " ^ note)
       | None -> ())
    items;
  Printf.printf "ok  analyze pool: %d cells match Table II\n%!"
    (List.length items)

let smoke_run name run =
  List.iter
    (fun trace ->
       Trace.reset ~on:trace;
       let (r : Util.result) = run ~trace in
       let tag = Printf.sprintf "%s (trace %b)" name trace in
       if r.Util.attempted = 0 then failwith (tag ^ ": attempted nothing");
       if r.Util.failed <> 0 then
         failwith
           (Printf.sprintf "%s: %d failed: %s" tag r.Util.failed
              (String.concat "; " r.Util.failures));
       List.iter
         (fun (m : Util.metric) ->
            if not (Float.is_finite m.Util.m_value) then
              failwith (Printf.sprintf "%s: %s is not finite" tag m.Util.m_name))
         r.Util.metrics;
       Printf.printf "ok  smoke %s: %d operations, %d metrics\n%!" tag
         r.Util.attempted (List.length r.Util.metrics))
    [ false; true ]

let () =
  List.iter
    (fun ((name, _) as i) ->
       check_inputs i;
       Printf.printf "ok  inputs %s: seed-determined\n%!" name)
    inputs;
  check_pool ();
  let seed = 1 and seconds = 0.3 and smoke = true in
  smoke_run "kernels" (fun ~trace -> Wl_kernels.run ~seed ~seconds ~smoke ~trace);
  smoke_run "serve" (fun ~trace ->
      Wl_serve.run ~exe:serve_exe ~seed ~seconds ~smoke ~trace);
  smoke_run "fuzz" (fun ~trace -> Wl_fuzz.run ~seed ~seconds ~smoke ~trace)
