(* Workload [serve]: a [cecsan_serve -j 1] child process fed over real
   pipes by one thread driven by [select].  Every request is followed by
   a flush line.  A closed-loop phase keeps one request in flight and
   gives the end-to-end metrics (round-trip latency, capacity); an
   open-loop phase then sends the rest of the stream on a fixed-rate
   schedule of about half that capacity and times each answer from when
   its request was due (p50/p99, the share within the latency limit and
   the generator's lateness go to the trace output).  The open-loop
   median is not gated on: on a shared 2-vCPU host it moved by up to 2x
   between runs with the hypervisor's CPU steal and idle-vCPU wake-ups,
   beyond any bound the benchmark may set.

   The stream holds small requests only: [fuzz] ops, each a new program
   (a compile-cache miss), half with a planted bug; and [analyze] ops
   drawn from a small fixed pool of Juliet cases that need no input, good
   and bad versions under several sanitizers, which repeat and so hit
   the compile cache.  Backends alternate evenly between interp and jit
   through the per-request override.  Compile-bound.

   Checks, each against a reference independent of the daemon: a fuzz
   verdict against the generator's ground-truth plan and
   [Oracle.must_catch ~tool:"CECSan"]; an analyze verdict against the
   case's good/bad label under the published Table II matrix.  A request
   with an error, a wrong verdict or no answer fails. *)

module P = Serve.Protocol

(* Open-loop arrival rate (about half the closed-loop capacity) and the
   latency limit a request must meet. *)
let rate_per_s = 500.
let latency_limit_ms = 50.

(* Programs in the in-process cold-compile sample behind compile_ms. *)
let compile_n = 300

(* --- the analyze pool --------------------------------------------------- *)

(* Table II of the paper as reproduced in this repository: the CWEs each
   tool detects on 100% of its evaluated subset, and those it detects on
   0%.  Only these cells give an unambiguous expected verdict. *)
let all_cwes = Juliet.Case.[ C121; C122; C124; C126; C127; C415; C416; C761 ]

let table2 : (string * Juliet.Case.cwe list * Juliet.Case.cwe list) list =
  Juliet.Case.
    [ ("cecsan", all_cwes, []);
      ("pacmem", [ C124; C127; C415; C416; C761 ], []);
      ("cryptsan", [ C124; C127; C415; C416; C761 ], []);
      ("hwasan", [ C415 ], [ C761 ]);
      ("asan", [ C415; C761 ], []);
      ("softbound", [ C124; C127; C415; C416; C761 ], []);
      (* the uninstrumented build has no detector at all *)
      ("none", [], all_cwes) ]

(* Tools with zero false positives in Table II: their verdict on a good
   version must be "not detected".  SoftBound/CETS has false positives
   (strdup), so its good-version verdict is not pinned. *)
let zero_fp = [ "cecsan"; "pacmem"; "cryptsan"; "hwasan"; "asan"; "none" ]

type expect =
  | Detect       (* must report *)
  | Clean        (* a program without a bug: must exit normally *)
  | No_detect    (* must not report (it may crash) *)
  | Either       (* planted bug outside the must-catch matrix *)

type entry = { e_src : string; e_tool : string; e_expect : expect }

(* The pool: the first no-input case of each CWE, every (version, tool)
   cell the matrix pins.  SoftBound/CETS cannot compile wide-character
   cases, so those cells are left out. *)
let pool : entry list Lazy.t =
  lazy
    (List.concat_map
       (fun cwe ->
          let c =
            List.find
              (fun (c : Juliet.Case.t) ->
                 not (Juliet.Case.needs_fgets c.Juliet.Case.flow
                      || Juliet.Case.needs_socket c.Juliet.Case.flow))
              (Juliet.Suite.cases_for cwe)
          in
          List.concat_map
            (fun (tool, always, never) ->
               if tool = "softbound" && c.Juliet.Case.props.Juliet.Case.uses_wide
               then []
               else
                 (if List.mem cwe always then
                    [ { e_src = c.Juliet.Case.bad_src; e_tool = tool;
                        e_expect = Detect } ]
                  else if List.mem cwe never then
                    [ { e_src = c.Juliet.Case.bad_src; e_tool = tool;
                        e_expect = No_detect } ]
                  else [])
                 @
                 if List.mem tool zero_fp then
                   [ { e_src = c.Juliet.Case.good_src; e_tool = tool;
                       e_expect = Clean } ]
                 else [])
            table2)
       all_cwes)

(* --- the request stream ------------------------------------------------- *)

(* A request of the stream and its expected verdict.  Wire lines and
   fuzz programs are rebuilt on demand ([line], [source]) rather than
   kept, so a long stream stays small in memory. *)
type item = {
  i_req : P.request;
  i_expect : expect;
  i_op : string;         (* "fuzz" | "analyze" *)
  i_repeat : bool;       (* the daemon has compiled its source before *)
}

let line (it : item) = P.to_string (P.encode_request it.i_req)

let fuzz_program fz_seed inject =
  Fuzz.Gen.generate ~inject (Fuzz.Tape.fresh ~seed:fz_seed)

(* The program the request compiles. *)
let source (it : item) =
  match it.i_req.P.op with
  | P.Fuzz { fz_seed; inject } -> (fuzz_program fz_seed inject).Fuzz.Gen.src
  | P.Analyze { source; _ } -> source
  | P.Bench _ -> ""

(* Requests that compile the same program share this key. *)
let program_key (it : item) =
  match it.i_req.P.op with
  | P.Fuzz { fz_seed; inject } -> Printf.sprintf "fuzz %d %b" fz_seed inject
  | P.Analyze { source; _ } -> source
  | P.Bench _ -> ""

(* [Serve.Engine]'s cycle budget for analyze and fuzz requests. *)
let budget = 50_000_000

let stream ~seed ~n : item list =
  let rng = Random.State.make [| seed; 0x5e7e |] in
  let pool = Array.of_list (Lazy.force pool) in
  let jit_first = ref true and fuzz_ops = ref 0 in
  (* Array.init applies its function in index order, so the draws are
     a function of the seed alone *)
  Array.to_list
    (Array.init n (fun id ->
         (* even split: each consecutive pair gets one request per
            backend, in seeded order *)
         if id land 1 = 0 then jit_first := Random.State.bool rng;
         let backend =
           if (id land 1 = 0) = !jit_first then Vm.Machine.Jit
           else Vm.Machine.Interp
         in
         let op, expect =
           (* two fuzz ops to one analyze op, so the median falls inside
              the fuzz ops' latency cluster, not between the two *)
           if Random.State.int rng 3 < 2 then begin
             let fz_seed = Random.State.bits rng in
             let inject = !fuzz_ops land 1 = 1 in
             incr fuzz_ops;
             let expect =
               match (fuzz_program fz_seed inject).Fuzz.Gen.plan with
               | None -> Clean
               | Some plan ->
                 if Fuzz.Oracle.must_catch ~tool:"CECSan" plan then Detect
                 else Either
             in
             (P.Fuzz { fz_seed; inject }, expect)
           end
           else begin
             let e = pool.(Random.State.int rng (Array.length pool)) in
             ( P.Analyze
                 { source = e.e_src; sanitizer = e.e_tool; optimize = true },
               e.e_expect )
           end
         in
         let analyze = match op with P.Analyze _ -> true | _ -> false in
         (* the pool is sent once during warm-up, so every analyze op is
            a compile-cache hit; every fuzz program is new *)
         { i_req = { P.id; op; backend = Some backend }; i_expect = expect;
           i_op = (if analyze then "analyze" else "fuzz");
           i_repeat = analyze }))

(* One analyze request per pool entry (ids -1, -2, ...), as the daemon
   warm-up sends them. *)
let pool_items () =
  List.mapi
    (fun k e ->
       { i_req =
           { P.id = -1 - k;
             op = P.Analyze { source = e.e_src; sanitizer = e.e_tool;
                              optimize = true };
             backend = Some Vm.Machine.Interp };
         i_expect = e.e_expect; i_op = "analyze"; i_repeat = false })
    (Lazy.force pool)

let inputs ~seed ~smoke =
  String.concat "\n"
    (List.map line (stream ~seed ~n:(if smoke then 12 else 64)))

(* A response is right when it answers this request, without error,
   with the expected verdict. *)
let check (it : item) (r : P.response) : string option =
  let where = Printf.sprintf "request %d (%s)" it.i_req.P.id it.i_op in
  if r.P.rs_id <> it.i_req.P.id then
    Some (Printf.sprintf "%s: answered id %d" where r.P.rs_id)
  else if not r.P.rs_ok then Some (Printf.sprintf "%s: error %s" where r.P.rs_error)
  else
    match it.i_expect, r.P.rs_detected with
    | Detect, false -> Some (where ^ ": bug not detected: " ^ r.P.rs_outcome)
    | (Clean | No_detect), true ->
      Some (where ^ ": false report: " ^ r.P.rs_outcome)
    | Clean, false when not (String.starts_with ~prefix:"exit " r.P.rs_outcome)
      ->
      Some (where ^ ": clean program did not exit: " ^ r.P.rs_outcome)
    | _ -> None

(* --- the daemon over pipes ---------------------------------------------- *)

type daemon = {
  pid : int;
  to_d : Unix.file_descr;     (* daemon stdin, non-blocking *)
  from_d : Unix.file_descr;   (* daemon stdout *)
  inbuf : Buffer.t;           (* bytes read, not yet split into lines *)
  lines : string Queue.t;     (* complete lines, oldest first *)
  mutable out : string;       (* bytes still to write *)
}

let spawn exe =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe [| exe; "-j"; "1" |] in_r out_w Unix.stderr
  in
  Unix.close in_r;
  Unix.close out_w;
  Unix.set_nonblock in_w;
  { pid; to_d = in_w; from_d = out_r; inbuf = Buffer.create 4096;
    lines = Queue.create (); out = "" }

let chunk = Bytes.create 65536

(* Reads what is available and splits complete lines; false on EOF. *)
let read_some d =
  match Unix.read d.from_d chunk 0 (Bytes.length chunk) with
  | 0 -> false
  | k ->
    Buffer.add_subbytes d.inbuf chunk 0 k;
    let s = Buffer.contents d.inbuf in
    let parts = String.split_on_char '\n' s in
    let rec go = function
      | [ rest ] ->
        Buffer.clear d.inbuf;
        Buffer.add_string d.inbuf rest
      | l :: tl ->
        Queue.push l d.lines;
        go tl
      | [] -> ()
    in
    go parts;
    true
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> true

(* Writes as much of the pending output as the pipe takes. *)
let write_some d =
  if d.out <> "" then
    match Unix.write_substring d.to_d d.out 0 (String.length d.out) with
    | k -> d.out <- String.sub d.out k (String.length d.out - k)
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EINTR), _, _) -> ()

let send d line = d.out <- d.out ^ line ^ "\n\n"  (* request + flush line *)

(* One [select] step: waits at most [timeout] s for the daemon's output
   or room in its input pipe.  False once the daemon closed its stdout. *)
let step d timeout =
  let wr = if d.out <> "" then [ d.to_d ] else [] in
  match Unix.select [ d.from_d ] wr [] (Float.max 0. timeout) with
  | rd, w, _ ->
    if w <> [] then write_some d;
    if rd <> [] then read_some d else true
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> true

let decode line =
  match P.parse line with
  | Error m -> Error m
  | Ok v -> P.decode_response v

(* Waits for the next response line, at most [limit] s. *)
let next_response d ~limit =
  let until = Util.now () +. limit in
  let rec go () =
    if not (Queue.is_empty d.lines) then Some (Queue.pop d.lines)
    else if Util.now () > until then None
    else if step d (until -. Util.now ()) then go ()
    else None
  in
  go ()

let shutdown d =
  d.out <- d.out ^ "{\"op\": \"shutdown\"}\n";
  let until = Util.now () +. 10. in
  let rec drain () =
    if Util.now () < until && step d (until -. Util.now ()) then drain ()
  in
  drain ();
  (try Unix.close d.to_d with Unix.Unix_error _ -> ());
  (try Unix.close d.from_d with Unix.Unix_error _ -> ());
  (match Unix.waitpid [ Unix.WNOHANG ] d.pid with
   | 0, _ ->
     (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
     ignore (Unix.waitpid [] d.pid)
   | _ -> ()
   | exception Unix.Unix_error _ -> ())

(* --- the two load phases ------------------------------------------------ *)

type answer = {
  a_item : item;
  a_ms : float;           (* latency (open loop) or round trip (closed) *)
  a_ok : bool;
}

(* How long to wait for an answer before counting it missing. *)
let answer_timeout = 20.

(* Open loop: request [i] is due at [t0 + i / rate]; latency runs from
   the due time to the answer, so a stall also delays later requests.
   Returns the answers, the generator's lateness per request (ms), and
   the CPU time the hypervisor stole during each one-second window of
   the schedule (request [i] falls in window [i / rate]).  Whenever
   nothing is in flight and the next request is not due for 4 ms, a
   short host-speed reference runs into [speed] (at most every 50 ms),
   so it never delays a request or an answer. *)
let open_loop d (tally : Util.tally) (items : item array) ~rate ~seconds
    (speed : Util.Speed.t) =
  let n = min (Array.length items) (max 1 (int_of_float (rate *. seconds))) in
  let t0 = Util.now () +. 0.01 in
  let due i = t0 +. (float_of_int i /. rate) in
  let late = Array.make n 0. in
  let answers = ref [] in
  let sent = ref 0 and got = ref 0 in
  let last_progress = ref (Util.now ()) in
  let finished = ref false in
  let nwin = max 1 (int_of_float (Float.ceil (float_of_int n /. rate))) in
  let marks = Array.make (nwin + 1) nan in  (* steal at each window start *)
  marks.(0) <- Util.steal_s ();
  let last_ref = ref 0. in
  while not !finished do
    let now = Util.now () in
    let w = int_of_float ((now -. t0) /. 1.0) in
    if w > 0 && w <= nwin && Float.is_nan marks.(w) then
      marks.(w) <- Util.steal_s ();
    while !sent < n && due !sent <= now do
      send d (line items.(!sent));
      late.(!sent) <- (now -. due !sent) *. 1000.;
      incr sent
    done;
    write_some d;
    while not (Queue.is_empty d.lines) && !got < n do
      let line = Queue.pop d.lines in
      let it = items.(!got) in
      let ms = (Util.now () -. due !got) *. 1000. in
      let ok =
        match decode line with
        | Error m ->
          Util.fail tally (Printf.sprintf "request %d: bad response %s" !got m);
          false
        | Ok r ->
          (match check it r with
           | Some note -> Util.fail tally note; false
           | None -> true)
      in
      answers := { a_item = it; a_ms = ms; a_ok = ok } :: !answers;
      incr got;
      last_progress := Util.now ()
    done;
    if !got >= n then finished := true
    else if Util.now () -. !last_progress > answer_timeout then begin
      for i = !got to n - 1 do
        Util.fail tally (Printf.sprintf "request %d: no answer" i);
        answers := { a_item = items.(i); a_ms = infinity; a_ok = false } :: !answers
      done;
      finished := true
    end
    else begin
      let now = Util.now () in
      if !got = !sent && d.out = "" && !sent < n
         && due !sent -. now > 0.004 && now -. !last_ref > 0.05
      then begin
        Util.Speed.sample ~short:true speed;
        last_ref := now
      end;
      let wait = if !sent < n then due !sent -. Util.now () else 0.05 in
      if not (step d (Float.min wait 0.05)) then last_progress := neg_infinity
    end
  done;
  for _ = 1 to n do Util.attempt tally done;
  let final = Util.steal_s () in
  for w = nwin downto 1 do
    if Float.is_nan marks.(w) then
      marks.(w) <- (if w = nwin then final else marks.(w + 1))
  done;
  ( List.rev !answers, Array.to_list late,
    Array.init nwin (fun w -> marks.(w + 1) -. marks.(w)) )

(* Closed loop: one request in flight; the next goes when the answer
   arrives, through the whole of [items].  A short host-speed reference
   runs into [speed] before every tenth request, off the clock. *)
let closed_loop d (tally : Util.tally) (items : item array)
    (speed : Util.Speed.t) =
  let answers = ref [] in
  let i = ref 0 in
  let busy = ref 0. in
  while !i < Array.length items do
    if !i mod 10 = 0 then Util.Speed.sample ~short:true speed;
    let t_start = Util.now () in
    let it = items.(!i) in
    Util.attempt tally;
    let t0 = Util.now () in
    send d (line it);
    (match next_response d ~limit:answer_timeout with
     | None ->
       Util.fail tally (Printf.sprintf "request %d: no answer" !i);
       answers := { a_item = it; a_ms = infinity; a_ok = false } :: !answers
     | Some line ->
       let ms = Util.ms_since t0 in
       let ok =
         match decode line with
         | Error m ->
           Util.fail tally (Printf.sprintf "request %d: bad response %s" !i m);
           false
         | Ok r ->
           (match check it r with
            | Some note -> Util.fail tally note; false
            | None -> true)
       in
       answers := { a_item = it; a_ms = ms; a_ok = ok } :: !answers);
    busy := !busy +. (Util.now () -. t_start);
    incr i
  done;
  (List.rev !answers, !busy)

(* --- set-up ------------------------------------------------------------- *)

(* The stream: first a fixed number of requests for the closed loop,
   sized to take about [closed_share] of the measured seconds at a
   nominal capacity (a fixed count, not a deadline, so every run leaves
   the daemon's compile cache the same), then the open loop's requests,
   [open_share] of the seconds at [rate_per_s].  Both phases use their
   own part of the stream, so every fuzz op stays a cache miss. *)
let closed_share = 0.3
let open_share = 0.5
let nominal_capacity_per_s = 700.

let open_len ~smoke ~seconds =
  if smoke then 12 else int_of_float (rate_per_s *. open_share *. seconds)

let closed_len ~smoke ~seconds =
  if smoke then 12
  else int_of_float (nominal_capacity_per_s *. closed_share *. seconds)

(* Generate the inputs, spawn the daemon, wait for its first answer and
   warm it up with every pool entry once (so analyze ops are cache
   hits, as in a long-running daemon). *)
let setup ~exe ~seed ~n (tally : Util.tally) =
  let items = Array.of_list (stream ~seed ~n) in
  let d = spawn exe in
  let warm = pool_items () in
  List.iter (fun it -> send d (line it)) warm;
  List.iter
    (fun it ->
       match next_response d ~limit:answer_timeout with
       | None -> Util.fail tally "warm-up: no answer"
       | Some l ->
         (match decode l with
          | Error m -> Util.fail tally ("warm-up: bad response " ^ m)
          | Ok r ->
            Option.iter (fun note -> Util.fail tally ("warm-up: " ^ note))
              (check it r)))
    warm;
  (items, d)

(* Cold CECSan builds of the stream's first [n] distinct programs, in
   process. *)
let compile_sample (items : item array) ~n (speed : Util.Speed.t) =
  let seen = Hashtbl.create 64 in
  Array.to_list items
  |> List.filter (fun it ->
      let k = program_key it in
      if Hashtbl.mem seen k then false else (Hashtbl.replace seen k (); true))
  |> List.filteri (fun k _ -> k < n)
  |> List.mapi (fun k it ->
      if k mod 10 = 0 then Util.Speed.sample speed;
      let src = source it in
      Sanitizer.Driver.clear_compile_cache ();
      Trace.pin_heap ();
      snd
        (Util.timed_ms (fun () ->
             Sanitizer.Driver.build (Cecsan.sanitizer ()) src)))
  |> Util.geomean

let pcts (answers : answer list) =
  let ms = List.map (fun a -> if a.a_ok then a.a_ms else infinity) answers in
  (Util.percentile 50. ms, Util.percentile 90. ms, Util.percentile 99. ms)

let summary_row phase (answers : answer list) extra =
  let p50, p90, p99 = pcts answers in
  let within =
    List.length
      (List.filter (fun a -> a.a_ok && a.a_ms <= latency_limit_ms) answers)
  in
  Printf.sprintf
    "{\"row\":\"serve\",\"phase\":%S,\"n\":%d,\"p50_ms\":%.3f,\"p90_ms\":%.3f,\
     \"p99_ms\":%.3f,\"within_limit_share\":%.4f%s}"
    phase (List.length answers) p50 p90 p99
    (float_of_int within /. float_of_int (max 1 (List.length answers)))
    extra

(* Open-loop p50 over one backend's requests. *)
let p50_of backend answers =
  let p50, _, _ =
    pcts (List.filter (fun a -> a.a_item.i_req.P.backend = Some backend) answers)
  in
  p50

(* --- the traced replay -------------------------------------------------- *)

let response_of (it : item) (r : Sanitizer.Driver.run_result) : P.response =
  { P.rs_id = it.i_req.P.id; rs_ok = true;
    rs_outcome = Util.outcome_string r.Sanitizer.Driver.outcome;
    rs_detected =
      (match r.Sanitizer.Driver.outcome with
       | Vm.Machine.Bug _ | Vm.Machine.Completed_with_bugs _ -> true
       | Vm.Machine.Exit _ | Vm.Machine.Fault _ -> false);
    rs_cycles = r.Sanitizer.Driver.cycles;
    rs_reports = List.length r.Sanitizer.Driver.reports; rs_error = "" }

(* The daemon's work for one request, in process and stage by stage:
   decode the wire line, generate (fuzz ops), build and run through
   [Staged.run] with a front-end cache like the driver's, encode. *)
let handle_staged cache (it : item) : P.response =
  let req =
    Trace.span "serve.decode" (fun () ->
        match P.decode_line (line it) with
        | Ok (P.Request r) -> r
        | _ -> failwith "decode")
  in
  let backend = Option.value req.P.backend ~default:Vm.Machine.Interp in
  let r =
    match req.P.op with
    | P.Fuzz { fz_seed; inject } ->
      let p =
        Trace.span "fuzz.gen" (fun () ->
            Fuzz.Gen.generate ~inject (Fuzz.Tape.fresh ~seed:fz_seed))
      in
      (* a new program: a cache miss, and not worth keeping *)
      Staged.run ~externs:Fuzz.Oracle.externs
        ~budget ~san:(Cecsan.sanitizer ()) ~backend
        p.Fuzz.Gen.src
    | P.Analyze { source; sanitizer; optimize } ->
      (match Serve.Engine.sanitizer_of_name sanitizer with
       | Some san ->
         Staged.run ~cache ~optimize ~externs:Fuzz.Oracle.externs
           ~budget ~san ~backend source
       | None -> failwith ("unknown sanitizer " ^ sanitizer))
    | P.Bench _ -> failwith "bench ops are not in the stream"
  in
  let resp = response_of it r.Staged.run in
  ignore (Trace.span "serve.encode" (fun () -> P.to_string (P.encode_response resp)));
  resp

(* Replays the stream in process until the deadline: the traced staged
   handler against [Serve.Engine.execute], the daemon's own call, which
   must give the same answer.  Returns execute ms by request id. *)
let replay (tally : Util.tally) (items : item array) ~deadline =
  (* both caches start as warm as the daemon's after its warm-up; the
     driver's is emptied of each fuzz program again, so the replay's heap
     (and the cost of every heap pin) stays small *)
  let cache : Staged.cache = Hashtbl.create 64 in
  let warm_driver () =
    List.iter
      (fun e -> ignore (Sanitizer.Driver.compile_cached ~optimize:true e.e_src))
      (Lazy.force pool)
  in
  List.iter
    (fun e ->
       let md, _, _, _, _ = Staged.front ~optimize:true e.e_src in
       Hashtbl.replace cache (true, e.e_src) md)
    (Lazy.force pool);
  warm_driver ();
  let exec_ms = Hashtbl.create 256 in
  let i = ref 0 in
  while !i < Array.length items && (!i = 0 || Util.now () < deadline) do
    let it = items.(!i) in
    Util.attempt tally;
    (match
       Trace.pin_heap ();
       let row, ms =
         Trace.timed ~req:it.i_req.P.id "twin.engine" (fun () ->
             Serve.Engine.execute it.i_req)
       in
       Trace.pin_heap ();
       let staged =
         Trace.span ~req:it.i_req.P.id "serve.handle" (fun () ->
             handle_staged cache it)
       in
       (row.Serve.Engine.r_response, ms, staged)
     with
     | exception e ->
       Util.fail tally
         (Printf.sprintf "replay %d: %s" !i (Printexc.to_string e))
     | engine, ms, staged ->
       Hashtbl.replace exec_ms it.i_req.P.id ms;
       if it.i_op = "fuzz" then
         Trace.span "bench.rewarm" (fun () ->
             Sanitizer.Driver.clear_compile_cache ();
             warm_driver ());
       if engine <> staged then
         Util.fail tally
           (Printf.sprintf "replay %d: staged answer %s differs from engine %s"
              !i staged.P.rs_outcome engine.P.rs_outcome)
       else (match check it engine with
           | Some note -> Util.fail tally note
           | None -> ()));
    incr i
  done;
  exec_ms

let probe_programs (items : item array) ~n : Probe.program list =
  let seen = Hashtbl.create 16 in
  Array.to_list items
  |> List.filter (fun it ->
      let k = program_key it in
      if Hashtbl.mem seen k then false else (Hashtbl.replace seen k (); true))
  |> List.filteri (fun k _ -> k < n)
  |> List.map (fun it ->
      { Probe.p_id = it.i_req.P.id;
        p_name = Printf.sprintf "request-%d-%s" it.i_req.P.id it.i_op;
        p_src = source it; p_expected = None;
        p_externs = Fuzz.Oracle.externs;
        p_budget = Some budget })

(* --- the workload ------------------------------------------------------- *)

let run ~exe ~seed ~seconds ~smoke ~trace : Util.result =
  let tally = Util.tally () in
  (* the traced run spends less time on the daemon, but generates the
     same stream *)
  let daemon_s = if trace then 0.03 *. seconds else seconds in
  let n_closed = closed_len ~smoke ~seconds in
  let n = n_closed + open_len ~smoke ~seconds in
  let setups =
    List.init 3 (fun _ ->
        Util.timed_ms (fun () -> setup ~exe ~seed ~n tally))
  in
  let setup_s = Util.median (List.map (fun (_, ms) -> ms /. 1000.) setups) in
  let items, d =
    match List.rev setups with
    | ((items, d), _) :: older ->
      List.iter (fun ((_, d), _) -> shutdown d) older;
      (items, d)
    | [] -> assert false
  in
  Trace.restart ();
  (* host speed during each daemon phase, sampled only while the daemon
     is idle *)
  let closed_speed = Util.Speed.create () and open_speed = Util.Speed.create () in
  let closed_items = Array.sub items 0 n_closed
  and open_items = Array.sub items n_closed (n - n_closed) in
  let steal0 = Util.steal_s () in
  let closed_ans, closed_busy =
    Trace.span "serve.closed_loop" (fun () ->
        closed_loop d tally
          (Array.sub closed_items 0 (closed_len ~smoke ~seconds:daemon_s))
          closed_speed)
  in
  let closed_steal = Util.steal_s () -. steal0 in
  let open_ans, late, steal =
    Trace.span "serve.open_loop" (fun () ->
        open_loop d tally open_items ~rate:rate_per_s
          ~seconds:(open_share *. daemon_s) open_speed)
  in
  let rss = Util.peak_rss_mb ~pid:(string_of_int d.pid) () in
  shutdown d;
  let share_of f xs =
    float_of_int (List.length (List.filter f xs))
    /. float_of_int (max 1 (List.length xs))
  in
  let closed_rps =
    float_of_int (List.length (List.filter (fun a -> a.a_ok) closed_ans))
    /. closed_busy
  in
  let open_row =
    let _, _, p99 = pcts open_ans in
    Printf.sprintf
      "{\"row\":\"serve\",\"phase\":\"open.load\",\"rate_per_s\":%.1f,\
       \"latency_limit_ms\":%.1f,\"p99_ms\":%.3f,\"within_limit_share\":%.4f,\
       \"late_p50_ms\":%.3f,\"late_p99_ms\":%.3f,\"late_max_ms\":%.3f,\
       \"steal_s\":%.2f,\"speed_factor\":%.5f}"
      rate_per_s latency_limit_ms p99
      (share_of (fun a -> a.a_ok && a.a_ms <= latency_limit_ms) open_ans)
      (Util.percentile 50. late) (Util.percentile 99. late)
      (List.fold_left Float.max 0. late) (Array.fold_left ( +. ) 0. steal)
      (Util.Speed.factor open_speed)
  in
  let closed_row =
    Printf.sprintf
      "{\"row\":\"serve\",\"phase\":\"closed.load\",\"rps\":%.2f,\
       \"repeat_share\":%.4f,\"rss_mb\":%.2f,\"steal_s\":%.2f,\
       \"speed_factor\":%.5f}"
      closed_rps (share_of (fun a -> a.a_item.i_repeat) closed_ans) rss
      closed_steal (Util.Speed.factor closed_speed)
  in
  let by_op_backend (answers : answer list) phase =
    List.concat_map
      (fun op ->
         List.map
           (fun b ->
              summary_row
                (Printf.sprintf "%s.%s.%s" phase op (Util.backend_name b))
                (List.filter
                   (fun a -> a.a_item.i_op = op && a.a_item.i_req.P.backend = Some b)
                   answers)
                "")
           [ Vm.Machine.Interp; Vm.Machine.Jit ])
      [ "fuzz"; "analyze" ]
  in
  (* open-loop p50 and host steal per second of the schedule (request i
     falls in window i / rate): drift within the run *)
  let window_rows =
    let per_s = max 1 (int_of_float rate_per_s) in
    List.init (Array.length steal) (fun w ->
        summary_row (Printf.sprintf "open.second%d" w)
          (List.filteri (fun i _ -> i / per_s = w) open_ans)
          (Printf.sprintf ",\"steal_s\":%.2f" steal.(w)))
  in
  let rows =
    [ summary_row "closed" closed_ans ""; closed_row;
      summary_row "open" open_ans ""; open_row ]
    @ by_op_backend closed_ans "closed"
    @ by_op_backend open_ans "open" @ window_rows
  in
  if not trace then begin
    let cspeed = Util.Speed.create () in
    let compile_ms =
      compile_sample items ~n:(if smoke then 4 else compile_n) cspeed
    in
    let p50, _, _ = pcts closed_ans in
    let fc = Util.Speed.factor closed_speed in
    let raw =
      [ ("verdict_ms", "ms", p50, fc);
        ("verdict_interp_ms", "ms", p50_of Vm.Machine.Interp closed_ans, fc);
        ("compile_ms", "ms", compile_ms, Util.Speed.factor cspeed);
        ("throughput_per_s", "1/s", closed_rps, fc) ]
    in
    { Util.attempted = tally.Util.t_attempted; failed = tally.Util.t_failed;
      failures = Util.notes tally;
      metrics =
        Util.metric "setup_s" "s" setup_s :: Util.at_nominal_speed raw
        @ [ Util.metric "peak_rss_mb" "MB" rss ];
      rows = Util.raw_row raw :: rows }
  end
  else begin
    (* the replay covers the closed loop's requests, so the pipe's
       share of their round trips can be estimated *)
    let exec_ms =
      replay tally closed_items ~deadline:(Util.now () +. (0.4 *. seconds))
    in
    let acc = Probe.create () in
    Probe.run_until ~deadline:(Util.now () +. (0.35 *. seconds)) tally acc
      (probe_programs items ~n:(if smoke then 2 else 12));
    (* the pipe's share of a closed-loop round trip: the round trip less
       the same request's in-process execute time *)
    let pipe =
      List.filter_map
        (fun a ->
           match Hashtbl.find_opt exec_ms a.a_item.i_req.P.id with
           | Some e when a.a_ok -> Some (a.a_ms -. e)
           | _ -> None)
        closed_ans
    in
    let exec_rows =
      List.concat_map
        (fun op ->
           List.map
             (fun b ->
                let xs =
                  Array.to_list items
                  |> List.filter (fun it ->
                      it.i_op = op && it.i_req.P.backend = Some b)
                  |> List.filter_map (fun it ->
                      Hashtbl.find_opt exec_ms it.i_req.P.id)
                in
                Printf.sprintf
                  "{\"row\":\"serve\",\"phase\":\"execute.%s.%s\",\"n\":%d,\
                   \"median_ms\":%.4f}"
                  op (Util.backend_name b) (List.length xs) (Util.median xs))
             [ Vm.Machine.Interp; Vm.Machine.Jit ])
        [ "fuzz"; "analyze" ]
    in
    { Util.attempted = tally.Util.t_attempted; failed = tally.Util.t_failed;
      failures = Util.notes tally;
      metrics = Probe.metrics acc;
      rows =
        rows @ exec_rows
        @ [ Printf.sprintf
              "{\"row\":\"serve\",\"phase\":\"pipe\",\"n\":%d,\"median_ms\":%.4f}"
              (List.length pipe) (Util.median pipe) ] }
  end
