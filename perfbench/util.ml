(* Small helpers shared by the workloads: clocks, order statistics, the
   host-speed reference, process memory and CPU steal, and the result
   type every workload returns. *)

let now () = Unix.gettimeofday ()

let ms_since t0 = (now () -. t0) *. 1000.

(* Runs [f] and returns its result with its wall time in ms. *)
let timed_ms f =
  let t0 = now () in
  let v = f () in
  (v, ms_since t0)

let sorted xs = List.sort compare xs

(* Linear-interpolated quantile of a non-empty list, [q] in [0, 1]. *)
let quantile q xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

let median xs = quantile 0.5 xs

(* Nearest-rank percentile, as in Harness.Stats: an actual sample. *)
let percentile q xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    let r = int_of_float (Float.ceil ((q /. 100. *. float_of_int n) -. 1e-9)) in
    a.(max 0 (min (n - 1) (r - 1)))

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
    exp
      (List.fold_left (fun acc x -> acc +. log (Float.max x 1e-9)) 0. xs
       /. float_of_int (List.length xs))

let mean xs =
  match xs with
  | [] -> nan
  | _ -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* Host speed.  On a shared host the same work runs 10-25% faster or
   slower from one minute to the next, for every program alike.  A fixed
   reference computation, independent of the stack under test (hashtable
   and array reads, no allocation), is timed between the measurements of
   a phase; the phase's end-to-end times are reported scaled to the
   reference's nominal time, i.e. in milliseconds of a host that runs
   the reference in [nominal_ms].  The raw values go to the trace
   output. *)
module Speed = struct
  let nominal_ms = 18.0

  let table =
    lazy
      (let h = Hashtbl.create 4096 in
       for i = 0 to 4095 do Hashtbl.replace h i (Array.make 16 i) done;
       h)

  (* [nominal_ms] is the time of 400_000 iterations. *)
  let reference_ms iters =
    let h = Lazy.force table in
    let t0 = now () in
    let acc = ref 0 in
    for i = 1 to iters do
      acc := !acc + (Hashtbl.find h (i land 4095)).(i land 15)
    done;
    ignore (Sys.opaque_identity !acc);
    ms_since t0

  (* One phase's reference runs, each as measured / nominal time. *)
  type t = float list ref

  let create () : t = ref []

  (* A full reference (about 18 ms), or with [short] one eighth of it,
     for the gaps of the serve generator. *)
  let sample ?(short = false) (t : t) =
    let iters = if short then 50_000 else 400_000 in
    let nominal = nominal_ms *. float_of_int iters /. 400_000. in
    t := (reference_ms iters /. nominal) :: !t

  (* Multiply a time by [factor t] (divide a rate) to express it at
     nominal host speed. *)
  let factor (t : t) = if !t = [] then 1. else 1. /. geomean !t
end

(* A field of /proc/<pid>/status in kB ("self" for this process). *)
let proc_status_kb ?(pid = "self") field =
  match In_channel.with_open_text ("/proc/" ^ pid ^ "/status")
          In_channel.input_all with
  | exception Sys_error _ -> 0
  | text ->
    let prefix = field ^ ":" in
    List.fold_left
      (fun acc line ->
         if String.starts_with ~prefix line then
           match
             String.split_on_char ' '
               (String.trim
                  (String.sub line (String.length prefix)
                     (String.length line - String.length prefix)))
           with
           | n :: _ -> (try int_of_string n with Failure _ -> acc)
           | [] -> acc
         else acc)
      0
      (String.split_on_char '\n' text)

(* CPU time the hypervisor took from this machine's vCPUs so far, in
   seconds (the "steal" column of /proc/stat; 0 where unavailable). *)
let steal_s () =
  match In_channel.with_open_text "/proc/stat" In_channel.input_line with
  | exception Sys_error _ -> 0.
  | None -> 0.
  | Some l ->
    (match List.filter (( <> ) "") (String.split_on_char ' ' l) with
     | "cpu" :: _ :: _ :: _ :: _ :: _ :: _ :: _ :: steal :: _ ->
       (try float_of_string steal /. 100. with Failure _ -> 0.)
     | _ -> 0.)

let peak_rss_mb ?pid () = float_of_int (proc_status_kb ?pid "VmHWM") /. 1024.

(* Deterministic seeded shuffle (Fisher-Yates over [Random.State]). *)
let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let outcome_string o = Format.asprintf "%a" Vm.Machine.pp_outcome o

let backend_name = function
  | Vm.Machine.Jit -> "jit"
  | Vm.Machine.Interp -> "interp"

(* One measured quantity of a run: name, value, unit. *)
type metric = { m_name : string; m_value : float; m_unit : string }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

(* What every workload hands back to [Main]. *)
type result = {
  attempted : int;
  failed : int;
  failures : string list;     (* one line per failed operation, capped *)
  metrics : metric list;
  rows : string list;         (* per-operation rows for the trace output *)
}

(* Failure bookkeeping shared by the workloads: counts every attempt,
   keeps the first few failure descriptions. *)
type tally = {
  mutable t_attempted : int;
  mutable t_failed : int;
  mutable t_notes : string list;  (* newest first *)
}

let tally () = { t_attempted = 0; t_failed = 0; t_notes = [] }

let attempt t = t.t_attempted <- t.t_attempted + 1

let fail t note =
  t.t_failed <- t.t_failed + 1;
  if List.length t.t_notes < 20 then t.t_notes <- note :: t.t_notes

let notes t = List.rev t.t_notes

(* End-to-end metrics scaled to nominal host speed, each by the factor
   of the phase that measured it: times multiplied, rates divided. *)
let at_nominal_speed (raw : (string * string * float * float) list) :
  metric list =
  List.map
    (fun (name, unit, v, f) ->
       metric name unit (if unit = "1/s" then v /. f else v *. f))
    raw

(* The same metrics unscaled, with their speed factors, for the trace
   output. *)
let raw_row (raw : (string * string * float * float) list) =
  Printf.sprintf "{\"row\":\"raw\",%s}"
    (String.concat ","
       (List.map
          (fun (name, _, v, f) ->
             Printf.sprintf "%S:%.6f,%S:%.5f" name v (name ^ ".speed_factor") f)
          raw))
