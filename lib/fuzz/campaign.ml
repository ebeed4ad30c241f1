(* Fuzz.Campaign: seeded differential campaigns over Harness.Pool,
   supervised and resumable.

   Program i of a campaign gets the independent seed
   [Tape.mix campaign_seed i] (odd indices carry a planted bug), so the
   grid is embarrassingly parallel and the verdict stream is identical
   at any job count: Pool.map_results keeps submission order, and
   shrinking of the (rare) failures happens sequentially afterwards.

   One shard loop runs every campaign.  A blind campaign is a guided
   one with corpus admission switched off: its corpus stays empty, so
   every shard is a generation shard.

   Supervision (this file's robustness layer):

   - every per-program task runs under [Harness.Supervise.run]: a task
     that dies -- injected crash, fuel exhaustion, stack overflow --
     is retried under the deterministic count-based policy and then
     QUARANTINED (one ledger entry) instead of aborting the campaign;
   - the campaign proceeds in shards of [shard_size] programs; after
     each shard the campaign [state] is written to an atomic checkpoint
     (temp-file + rename), so a SIGKILL costs at most one shard;
   - [resume:true] restores the checkpoint and continues from the
     first unfinished shard.  Everything the final ledgers derive from
     is persisted in the checkpoint, so a killed-and-resumed campaign
     produces byte-identical mismatch/quarantine ledgers to an
     uninterrupted one, at any -j.

   The checkpoint is one canonical JSON document (schema
   [cecsan-campaign-checkpoint/2], DESIGN.md s.13) built by
   [state_to_value]; an unreadable one is a fresh start. *)

let sp = Printf.sprintf

type row = {
  index : int;
  seed : int;
  plan : Gen.plan option;
  failures : string list;      (* Oracle.failure_name labels *)
}

type shrunk = {
  s_row : row;
  s_failures : Oracle.failure list;
  s_src : string;
  s_tape : int array;
  s_lines : int;
}

(* One coverage-over-time sample, recorded after each shard. *)
type cov_row = {
  cr_shard : int;
  cr_phase : string;           (* "gen" or "mutate" *)
  cr_bits : int;               (* accumulated bitmap cardinality *)
  cr_sites : int;              (* distinct site ids in the bitmap *)
  cr_corpus : int;             (* corpus size after the shard *)
}

type summary = {
  campaign_seed : int;
  n : int;
  tool_names : string list;
  fault_specs : Vm.Fault.spec list;
  rows : row list;
  shrunk : shrunk list;
  quarantine : Harness.Supervise.entry list;  (* submission order *)
  retries : int;          (* re-attempts made across all tasks *)
  fuel_exhausted : int;   (* quarantined with class "fuel" *)
  resumed_shards : int;   (* shards restored from a checkpoint *)
  (* CECSan(-O2) telemetry over the whole grid, merged in submission
     order: identical at any job count *)
  snapshot : Telemetry.Snapshot.t;
  (* guided-mode state: the corpus and bitmap stay empty for a blind
     campaign *)
  guided : bool;
  mutate_only : bool;
  coverage : Coverage.t;   (* accumulated bitmap, submission order *)
  corpus : Corpus.t;
  cov_rows : cov_row list; (* one per shard, oldest first *)
  gen_programs : int;      (* programs run in generation shards *)
  mut_programs : int;      (* programs run in mutation shards *)
  gen_admitted : int;      (* corpus admissions from generation *)
  mut_admitted : int;      (* corpus admissions from mutation *)
  clean : int;
  buggy : int;
  false_positives : int;
  false_negatives : int;
  divergences : int;
  opt_unsound : int;
  misclassified : int;
  gen_invalid : int;
}

let inject_of_index i = i land 1 = 1

let tools_of_names names = List.filter_map Oracle.baseline_of_name names

(* The pipeline-fuel budget carried by a [Fuel n] fault spec, if any. *)
let fuel_budget_of_specs specs =
  List.fold_left
    (fun acc s -> match s with Vm.Fault.Fuel b -> Some b | _ -> acc)
    None specs

(* Creates [dir] and any missing parents. *)
let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* --- the per-program job -------------------------------------------------- *)

type phase = Gen_phase | Mut_phase

let phase_name = function Gen_phase -> "gen" | Mut_phase -> "mutate"

(* One job's result: the row plus everything the sequential admission
   step needs. *)
type job = {
  j_row : row;
  j_snap : Telemetry.Snapshot.t;
  j_cov : Coverage.t;
  j_phase : string;            (* "gen" or "mutate:<op>" *)
  j_tape : int array;          (* normalized (recorded) decision tape *)
}

(* One self-contained job.  A generation-phase job is everything
   derived from (campaign_seed, i): the derived seed and the
   parity-planted bug.  A mutation-phase job derives its whole schedule
   -- base pick, partner pick, operator, operator randomness -- from
   the same per-program seed over the corpus snapshot taken at shard
   start, so it is a pure function of (campaign_seed, i,
   corpus-at-shard-start) and independent of pool interleaving.
   [Mut_phase] requires a nonempty corpus.

   With fault specs given, program i gets its own injector seeded from
   its derived seed, threaded into every oracle run; a [Fuel b] spec
   additionally puts the generator under a fresh [b]-step budget (the
   compile/verify phases get theirs inside Driver.run, bridged from the
   injector). *)
let run_job ~tool_names ~fault_specs ~campaign_seed ?backend ~phase ~corpus
    i : job =
  let tools = tools_of_names tool_names in
  let seed = Tape.mix campaign_seed i in
  let fault =
    match fault_specs with
    | [] -> None
    | specs -> Some (Vm.Fault.of_specs ~seed specs)
  in
  let gen_fuel =
    Option.map
      (fun b -> Tir.Fuel.make ~phase:"gen" ~budget:b)
      (fuel_budget_of_specs fault_specs)
  in
  let inject = inject_of_index i in
  let j_phase, p =
    match phase with
    | Gen_phase ->
      "gen", Gen.generate ~inject ?fuel:gen_fuel (Tape.fresh ~seed)
    | Mut_phase ->
      let size = Corpus.size corpus in
      if size = 0 then invalid_arg "Campaign: mutation over empty corpus";
      let rng = Tape.fresh ~seed in
      let favored = Corpus.favored corpus in
      let base =
        (List.nth favored (Tape.draw rng (List.length favored))).Corpus.e_tape
      in
      let partner = Corpus.nth_tape corpus (Tape.draw rng size) in
      let op, tape = Mutate.mutate ~rng ~partner base in
      ( sp "mutate:%s" (Mutate.op_name op),
        Gen.generate ~inject ?fuel:gen_fuel (Tape.replay tape) )
  in
  (* the snapshot merged into the campaign is the CECSan(-O2) one *)
  let fs, snap, cov = Oracle.evaluate_cov ~tools ?fault ?backend p in
  { j_row = { index = i; seed; plan = p.Gen.plan;
              failures = List.map Oracle.failure_name fs };
    j_snap = snap; j_cov = cov; j_phase; j_tape = p.Gen.tape }

(* Shrinks a failing case: the minimized tape must regenerate a program
   that still exhibits every one of the original failure labels.  The
   row's fault injector (if any) threads into every candidate
   evaluation, and [fuel] bounds the whole minimization. *)
let shrink_failure ~tool_names ?fault ?fuel ?backend ~inject
    (p : Gen.program) (failures : Oracle.failure list) : shrunk option =
  let tools = tools_of_names tool_names in
  let wanted = List.map Oracle.failure_name failures in
  let evaluate_tape tape =
    let p' = Gen.generate ~inject (Tape.replay tape) in
    (p', Oracle.evaluate ~tools ?fault ?backend p')
  in
  let still_fails tape =
    let _, fs = evaluate_tape tape in
    let names = List.map Oracle.failure_name fs in
    List.for_all (fun w -> List.mem w names) wanted
  in
  if not (still_fails p.Gen.tape) then None
  else
    let best = Shrink.minimize ?fuel ~still_fails p.Gen.tape in
    let p_min, fs_min = evaluate_tape best in
    Some
      { s_row = { index = -1; seed = 0; plan = p_min.Gen.plan;
                  failures = List.map Oracle.failure_name fs_min };
        s_failures = fs_min;
        s_src = p_min.Gen.src;
        s_tape = best;
        s_lines = Gen.line_count p_min.Gen.src }

let count_kind rows pred =
  List.fold_left
    (fun acc r -> acc + List.length (List.filter pred r)) 0
    (List.map (fun r -> r.failures) rows)

let has_prefix ~prefix s =
  String.length s >= String.length prefix
  && String.equal (String.sub s 0 (String.length prefix)) prefix

(* --- campaign state and its checkpoint ------------------------------------ *)

let checkpoint_file = "campaign.ckpt"
let checkpoint_schema = "cecsan-campaign-checkpoint/2"

(* What a campaign is: a checkpoint resumes only the same campaign. *)
type config = {
  c_seed : int;
  c_n : int;
  c_shard_size : int;
  c_tools : string list;
  c_faults : string list;            (* Fault.spec_to_string forms *)
  c_guided : bool;
  c_mutate_only : bool;
}

(* Mid-campaign state: everything the summary and ledgers derive from
   that cannot be recomputed.  The accumulated bitmap and the admission
   counts derive from the corpus, so they are not stored.  Rows,
   quarantine entries and coverage samples are kept newest first. *)
type state = {
  st_config : config;
  st_shards_done : int;
  st_resumed_shards : int;
  st_retries : int;
  st_rows : row list;
  st_quarantine : Harness.Supervise.entry list;
  st_snapshot : Telemetry.Snapshot.t;
  st_corpus : Corpus.t;
  st_cov_rows : cov_row list;
  st_gen_programs : int;
  st_mut_programs : int;
}

let fresh_state config =
  { st_config = config; st_shards_done = 0; st_resumed_shards = 0;
    st_retries = 0; st_rows = []; st_quarantine = [];
    st_snapshot = Telemetry.Snapshot.empty; st_corpus = Corpus.empty;
    st_cov_rows = []; st_gen_programs = 0; st_mut_programs = 0 }

let plan_to_value = function
  | None -> Json.Null
  | Some (p : Gen.plan) ->
    Json.Obj
      [ ("class", Json.Str (Gen.class_name p.Gen.cls));
        ("far", Json.Bool p.Gen.far);
        ("write", Json.Bool p.Gen.write);
        ("granule16", Json.Bool p.Gen.granule16) ]

let row_to_value r =
  Json.Obj
    [ ("index", Json.Int r.index);
      ("seed", Json.Int r.seed);
      ("plan", plan_to_value r.plan);
      ("failures", Json.List (List.map (fun f -> Json.Str f) r.failures)) ]

let cov_row_to_value c =
  Json.Obj
    [ ("shard", Json.Int c.cr_shard);
      ("phase", Json.Str c.cr_phase);
      ("bits", Json.Int c.cr_bits);
      ("sites", Json.Int c.cr_sites);
      ("corpus", Json.Int c.cr_corpus) ]

let state_to_value st =
  let c = st.st_config in
  let strs xs = Json.List (List.map (fun s -> Json.Str s) xs) in
  (* the newest-first lists print in submission order *)
  let list f xs = Json.List (List.rev_map f xs) in
  Json.Obj
    [ ("schema", Json.Str checkpoint_schema);
      ("seed", Json.Int c.c_seed);
      ("n", Json.Int c.c_n);
      ("shard_size", Json.Int c.c_shard_size);
      ("tools", strs c.c_tools);
      ("faults", strs c.c_faults);
      ("guided", Json.Bool c.c_guided);
      ("mutate_only", Json.Bool c.c_mutate_only);
      ("shards_done", Json.Int st.st_shards_done);
      ("resumed_shards", Json.Int st.st_resumed_shards);
      ("retries", Json.Int st.st_retries);
      ("gen_programs", Json.Int st.st_gen_programs);
      ("mut_programs", Json.Int st.st_mut_programs);
      ("rows", list row_to_value st.st_rows);
      ("quarantine", list Harness.Supervise.entry_to_value st.st_quarantine);
      ("cov_rows", list cov_row_to_value st.st_cov_rows);
      ("corpus", Corpus.to_value st.st_corpus);
      ("snapshot", Telemetry.Snapshot.to_value st.st_snapshot) ]

(* Inverse of [state_to_value]; [None] on any other schema or shape. *)
let state_of_value v : state option =
  let exception Bad in
  let some = function Some x -> x | None -> raise Bad in
  let field k = some (Json.member k v) in
  let int k = match field k with Json.Int n -> n | _ -> raise Bad in
  let bool k = match field k with Json.Bool b -> b | _ -> raise Bad in
  let str = function Json.Str s -> s | _ -> raise Bad in
  let list k f =
    match field k with Json.List xs -> List.map f xs | _ -> raise Bad
  in
  let plan = function
    | Json.Null -> None
    | Json.Obj
        [ ("class", Json.Str cls); ("far", Json.Bool far);
          ("write", Json.Bool write); ("granule16", Json.Bool granule16) ] ->
      Some { Gen.cls = some (Gen.class_of_name cls); far; write; granule16 }
    | _ -> raise Bad
  in
  let row = function
    | Json.Obj
        [ ("index", Json.Int index); ("seed", Json.Int seed); ("plan", p);
          ("failures", Json.List fs) ] ->
      { index; seed; plan = plan p; failures = List.map str fs }
    | _ -> raise Bad
  in
  let cov_row = function
    | Json.Obj
        [ ("shard", Json.Int cr_shard); ("phase", Json.Str cr_phase);
          ("bits", Json.Int cr_bits); ("sites", Json.Int cr_sites);
          ("corpus", Json.Int cr_corpus) ] ->
      { cr_shard; cr_phase; cr_bits; cr_sites; cr_corpus }
    | _ -> raise Bad
  in
  match
    if field "schema" <> Json.Str checkpoint_schema then raise Bad;
    let st_config =
      { c_seed = int "seed"; c_n = int "n"; c_shard_size = int "shard_size";
        c_tools = list "tools" str; c_faults = list "faults" str;
        c_guided = bool "guided"; c_mutate_only = bool "mutate_only" }
    in
    { st_config;
      st_shards_done = int "shards_done";
      st_resumed_shards = int "resumed_shards";
      st_retries = int "retries";
      st_rows = List.rev (list "rows" row);
      st_quarantine =
        List.rev
          (list "quarantine" (fun q ->
               some (Harness.Supervise.entry_of_value q)));
      st_snapshot = some (Telemetry.Snapshot.of_value (field "snapshot"));
      st_corpus = some (Corpus.of_value (field "corpus"));
      st_cov_rows = List.rev (list "cov_rows" cov_row);
      st_gen_programs = int "gen_programs";
      st_mut_programs = int "mut_programs" }
  with
  | st -> Some st
  | exception Bad -> None

(* Jsonio's tmp+rename guarantees a reader never observes a torn
   checkpoint. *)
let write_checkpoint ~dir st =
  Harness.Jsonio.write_json
    ~path:(Filename.concat dir checkpoint_file)
    (state_to_value st)

(* [None] on a missing or unreadable file: a fresh start is always a
   correct recovery.  The caller validates configuration agreement. *)
let read_checkpoint ~dir : state option =
  let path = Filename.concat dir checkpoint_file in
  if not (Sys.file_exists path) then None
  else
    match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok v -> state_of_value v
    | Error _ -> None

(* --- the campaign driver -------------------------------------------------- *)

let fuel_exhausted_count quarantine =
  List.length
    (List.filter
       (fun e -> String.equal e.Harness.Supervise.q_class "fuel")
       quarantine)

(* Folds one program's supervised outcome into the state, in submission
   order.  Admission is the only step a blind campaign skips. *)
let absorb ~phase st i outcome =
  match outcome with
  | Ok { Harness.Supervise.result = Ok j; retries } ->
    let corpus =
      if st.st_config.c_guided then
        fst
          (Corpus.admit st.st_corpus ~seed:j.j_row.seed ~phase:j.j_phase
             ~tape:j.j_tape ~cov:j.j_cov)
      else st.st_corpus
    in
    { st with
      st_rows = j.j_row :: st.st_rows;
      st_snapshot = Telemetry.Snapshot.merge st.st_snapshot j.j_snap;
      st_retries = st.st_retries + retries;
      st_corpus = corpus;
      st_gen_programs =
        st.st_gen_programs + Bool.to_int (phase = Gen_phase);
      st_mut_programs =
        st.st_mut_programs + Bool.to_int (phase = Mut_phase) }
  | Ok { result = Error entry; retries } ->
    { st with
      st_quarantine = entry :: st.st_quarantine;
      st_retries = st.st_retries + retries }
  | Error e ->
    (* escaped the supervisor itself (should not happen); treat it as
       a zero-retry quarantine rather than dying *)
    let cls, q_phase = Harness.Supervise.classify e in
    let entry =
      { Harness.Supervise.q_task = i;
        q_seed = Tape.mix st.st_config.c_seed i; q_class = cls; q_phase;
        q_attempts = 1; q_detail = Printexc.to_string e }
    in
    { st with st_quarantine = entry :: st.st_quarantine }

let summary_of_state ~faults ~shrunk st : summary =
  let c = st.st_config in
  let rows = List.rev st.st_rows in
  let quarantine = List.rev st.st_quarantine in
  let fuel_exhausted = fuel_exhausted_count quarantine in
  let snapshot =
    (* supervise counters ride the snapshot only when nonzero, so a
       fault-free campaign's telemetry is unchanged *)
    let extra =
      List.filter
        (fun (_, v) -> v > 0)
        [ "supervise_fuel_exhausted", fuel_exhausted;
          "supervise_quarantined", List.length quarantine;
          "supervise_resumed_shards", st.st_resumed_shards;
          "supervise_retries", st.st_retries ]
    in
    if extra = [] then st.st_snapshot
    else
      Telemetry.Snapshot.merge st.st_snapshot
        { Telemetry.Snapshot.empty with counters = extra }
  in
  let admitted pred =
    List.length
      (List.filter
         (fun e -> pred e.Corpus.e_phase)
         (Corpus.entries st.st_corpus))
  in
  {
    campaign_seed = c.c_seed;
    n = c.c_n;
    tool_names = c.c_tools;
    fault_specs = faults;
    rows;
    shrunk;
    quarantine;
    retries = st.st_retries;
    fuel_exhausted;
    resumed_shards = st.st_resumed_shards;
    snapshot;
    guided = c.c_guided;
    mutate_only = c.c_mutate_only;
    coverage = Corpus.accumulated st.st_corpus;
    corpus = st.st_corpus;
    cov_rows = List.rev st.st_cov_rows;
    gen_programs = st.st_gen_programs;
    mut_programs = st.st_mut_programs;
    gen_admitted = admitted (String.equal "gen");
    mut_admitted = admitted (has_prefix ~prefix:"mutate:");
    clean = List.length (List.filter (fun r -> r.plan = None) rows);
    buggy = List.length (List.filter (fun r -> r.plan <> None) rows);
    false_positives = count_kind rows (has_prefix ~prefix:"false-positive");
    false_negatives = count_kind rows (has_prefix ~prefix:"false-negative");
    divergences = count_kind rows (has_prefix ~prefix:"divergence");
    opt_unsound = count_kind rows (has_prefix ~prefix:"opt-unsound");
    misclassified = count_kind rows (has_prefix ~prefix:"misclassified");
    gen_invalid = count_kind rows (has_prefix ~prefix:"gen-invalid");
  }

let run ?pool ?(tool_names = []) ?(max_shrink = 5) ?(faults = [])
    ?(policy = Harness.Supervise.default_policy) ?checkpoint
    ?(resume = false) ?(shard_size = 256) ?stop_after_shards ?backend
    ?(guided = false) ?(mutate_only = false) ~seed ~n () : summary =
  if shard_size < 1 then invalid_arg "Campaign.run: shard_size < 1";
  let config =
    { c_seed = seed; c_n = n; c_shard_size = shard_size;
      c_tools = tool_names;
      c_faults = List.map Vm.Fault.spec_to_string faults;
      c_guided = guided; c_mutate_only = guided && mutate_only }
  in
  Option.iter mkdir_p checkpoint;
  (* restore: a missing/corrupt checkpoint is a fresh start; a
     checkpoint for a DIFFERENT campaign is a caller error.  The guided
     corpus is part of the state, so corpus and campaign restore from
     one atomic file. *)
  let st =
    match checkpoint, resume with
    | _, false -> fresh_state config
    | None, true ->
      invalid_arg "Campaign.run: resume requires a checkpoint dir"
    | Some dir, true ->
      (match read_checkpoint ~dir with
       | None -> fresh_state config
       | Some st when st.st_config <> config ->
         invalid_arg
           (sp
              "Campaign.run: checkpoint in %s is for a different \
               campaign (seed/n/shard_size/tools/faults/guided mismatch)"
              dir)
       | Some st ->
         (* every shard we did NOT recompute this process counts as
            resumed *)
         { st with
           st_resumed_shards = st.st_resumed_shards + st.st_shards_done })
  in
  let total_shards = (n + shard_size - 1) / shard_size in
  (* Shards alternate generation (even) and mutation (odd); mutation
     needs a nonempty corpus to draw from, so early shards -- and every
     shard of a blind campaign -- are generation shards, and
     [mutate_only] makes every shard after the first admission a
     mutation shard.  The corpus snapshot is taken once at shard start,
     so every job in the shard is a pure function of (seed, index,
     snapshot) regardless of -j; admission and accounting happen
     sequentially in submission order. *)
  let process_shard st =
    let sidx = st.st_shards_done in
    let lo = sidx * shard_size in
    let indices = List.init (min n (lo + shard_size) - lo) (fun k -> lo + k) in
    let corpus = st.st_corpus in
    let phase =
      if Corpus.size corpus = 0 then Gen_phase
      else if config.c_mutate_only || sidx land 1 = 1 then Mut_phase
      else Gen_phase
    in
    let outcomes =
      Harness.Pool.maybe_map_results pool
        (fun i ->
           Harness.Supervise.run ~policy ~task:i ~seed:(Tape.mix seed i)
             (fun ~attempt:_ ->
                run_job ~tool_names ~fault_specs:faults ~campaign_seed:seed
                  ?backend ~phase ~corpus i))
        indices
    in
    let st = List.fold_left2 (absorb ~phase) st indices outcomes in
    let acc = Corpus.accumulated st.st_corpus in
    let st =
      { st with
        st_shards_done = sidx + 1;
        st_cov_rows =
          { cr_shard = sidx; cr_phase = phase_name phase;
            cr_bits = Coverage.cardinal acc; cr_sites = Coverage.sites acc;
            cr_corpus = Corpus.size st.st_corpus }
          :: st.st_cov_rows }
    in
    Option.iter (fun dir -> write_checkpoint ~dir st) checkpoint;
    st
  in
  let last_shard =
    match stop_after_shards with
    | None -> total_shards
    | Some k -> min total_shards (st.st_shards_done + max 0 k)
  in
  let rec loop st =
    if st.st_shards_done < last_shard then loop (process_shard st) else st
  in
  let st = loop st in
  (* shrink only once every shard is in (a partial [stop_after_shards]
     run is checkpoint fodder, not a report); failing rows are
     regenerated from their seeds, so a resumed campaign shrinks
     exactly what an uninterrupted one would.  Guided rows from
     mutation shards are not regenerable from their seeds alone (the
     tape came from the corpus), so guided campaigns report failures
     through the ledger unshrunk. *)
  let failing =
    if guided || st.st_shards_done < total_shards then []
    else
      List.rev st.st_rows
      |> List.filter (fun r -> r.failures <> [])
      |> List.filteri (fun i _ -> i < max_shrink)
  in
  let shrink_row (st, shrunk) r =
    let inject = inject_of_index r.index in
    let task () =
      let fault =
        match faults with
        | [] -> None
        | specs -> Some (Vm.Fault.of_specs ~seed:r.seed specs)
      in
      let fuel =
        Option.map
          (fun b -> Tir.Fuel.make ~phase:"shrink" ~budget:b)
          (fuel_budget_of_specs faults)
      in
      let p = Gen.generate ~inject (Tape.fresh ~seed:r.seed) in
      let fs =
        Oracle.evaluate ~tools:(tools_of_names tool_names) ?fault ?backend p
      in
      match shrink_failure ~tool_names ?fault ?fuel ?backend ~inject p fs with
      | Some s ->
        { s with s_row = { s.s_row with index = r.index; seed = r.seed } }
      | None ->
        (* non-reproducible from its own tape: report unshrunk *)
        { s_row = r; s_failures = fs; s_src = p.Gen.src;
          s_tape = p.Gen.tape; s_lines = Gen.line_count p.Gen.src }
    in
    let o =
      Harness.Supervise.run ~policy ~task:r.index ~seed:r.seed
        (fun ~attempt:_ -> task ())
    in
    let st =
      { st with st_retries = st.st_retries + o.Harness.Supervise.retries }
    in
    match o.Harness.Supervise.result with
    | Ok sh -> (st, sh :: shrunk)
    | Error entry ->
      (* shrink-phase quarantines go on the same ledger, after the
         campaign's own entries *)
      ({ st with st_quarantine = entry :: st.st_quarantine }, shrunk)
  in
  let st, shrunk = List.fold_left shrink_row (st, []) failing in
  summary_of_state ~faults ~shrunk:(List.rev shrunk) st

let passed s =
  s.false_positives = 0 && s.false_negatives = 0 && s.divergences = 0
  && s.opt_unsound = 0 && s.misclassified = 0 && s.gen_invalid = 0

(* The blind baseline at the same program budget: the bitmap a plain
   generation-only grid reaches.  Each program is the exact blind
   program at its index, so this is the control arm of the
   guided-beats-blind inequality. *)
let blind_coverage ?pool ?(tool_names = []) ?backend ~seed ~n ()
  : Coverage.t =
  let covs =
    Harness.Pool.maybe_map_results pool
      (fun i ->
         (run_job ~tool_names ~fault_specs:[] ~campaign_seed:seed
            ?backend ~phase:Gen_phase ~corpus:Corpus.empty i)
           .j_cov)
      (List.init n Fun.id)
  in
  List.fold_left
    (fun acc r ->
       match r with Ok c -> Coverage.union acc c | Error _ -> acc)
    Coverage.empty covs

(* The BENCH_fuzzcov.json artifact (schema cecsan-bench-fuzzcov/1):
   every field derives from submission-order state -- no wall clock,
   no job count -- so the artifact is byte-identical at any -j and
   across kill-and-resume. *)
let fuzzcov_json ~blind (s : summary) : Json.t =
  let mismatches =
    List.length (List.filter (fun r -> r.failures <> []) s.rows)
  in
  let counts programs admitted =
    Json.Obj
      [ ("programs", Json.Int programs); ("admitted", Json.Int admitted) ]
  in
  let cov c =
    [ ("bits", Json.Int (Coverage.cardinal c));
      ("sites", Json.Int (Coverage.sites c)) ]
  in
  Json.Obj
    [ ("schema", Json.Str "cecsan-bench-fuzzcov/1");
      ("seed", Json.Str (sp "0x%x" s.campaign_seed));
      ("n", Json.Int s.n);
      ("mutate_only", Json.Bool s.mutate_only);
      ("guided",
       Json.Obj
         (cov s.coverage
          @ [ ("corpus", Json.Int (Corpus.size s.corpus));
              ("mismatches", Json.Int mismatches);
              ("phases",
               Json.Obj
                 [ ("gen", counts s.gen_programs s.gen_admitted);
                   ("mutate", counts s.mut_programs s.mut_admitted) ]) ]));
      ("blind", Json.Obj (cov blind));
      ("rows", Json.List (List.map cov_row_to_value s.cov_rows)) ]

(* --- final ledgers -------------------------------------------------------- *)

(* The two files the durability contract is judged on: every line
   derives only from fields the checkpoint persists (index, seed, plan,
   failure labels, quarantine entries), so an interrupted-and-resumed
   campaign reproduces them byte for byte. *)
let csv_or_dash = function [] -> "-" | xs -> String.concat "," xs

let plan_to_field = function
  | None -> "-"
  | Some (p : Gen.plan) ->
    sp "%s:%d:%d:%d" (Gen.class_name p.Gen.cls)
      (Bool.to_int p.Gen.far) (Bool.to_int p.Gen.write)
      (Bool.to_int p.Gen.granule16)

let mismatch_ledger_lines (s : summary) =
  List.filter_map
    (fun r ->
       if r.failures = [] then None
       else
         Some
           (sp "index=%d seed=%x plan=%s failures=%s" r.index r.seed
              (plan_to_field r.plan) (csv_or_dash r.failures)))
    s.rows

let quarantine_ledger_lines (s : summary) =
  List.map Harness.Supervise.entry_to_line s.quarantine

let write_ledgers ~dir (s : summary) : string * string =
  mkdir_p dir;
  let write name lines =
    let path = Filename.concat dir name in
    Harness.Jsonio.write_lines ~path lines;
    path
  in
  ( write "mismatch.ledger" (mismatch_ledger_lines s),
    write "quarantine.ledger" (quarantine_ledger_lines s) )

(* --- rendering ----------------------------------------------------------- *)

let class_histogram rows =
  List.fold_left
    (fun acc r ->
       match r.plan with
       | None -> acc
       | Some p ->
         let k = Gen.class_name p.Gen.cls in
         (k, 1 + Option.value (List.assoc_opt k acc) ~default:0)
         :: List.remove_assoc k acc)
    [] rows
  |> List.sort compare

(* The header carries everything needed to replay the campaign from the
   log alone: seed, size, job count, tool lineup, fault specs. *)
let render fmt ~jobs (s : summary) =
  Format.fprintf fmt
    "Fuzz campaign: seed=0x%x n=%d jobs=%d tools=cecsan%s%s@."
    s.campaign_seed s.n jobs
    (match s.tool_names with
     | [] -> ""
     | ts -> "," ^ String.concat "," ts)
    (match s.fault_specs with
     | [] -> ""
     | fs ->
       " faults=" ^ String.concat "," (List.map Vm.Fault.spec_to_string fs));
  Format.fprintf fmt "  programs: %d clean + %d bug-injected@." s.clean
    s.buggy;
  List.iter
    (fun (k, v) -> Format.fprintf fmt "    planted %-16s %4d@." k v)
    (class_histogram s.rows);
  Format.fprintf fmt "  false positives   : %d@." s.false_positives;
  Format.fprintf fmt "  false negatives   : %d@." s.false_negatives;
  Format.fprintf fmt "  divergences       : %d@." s.divergences;
  Format.fprintf fmt "  optimizer-unsound : %d@." s.opt_unsound;
  Format.fprintf fmt "  misclassified     : %d@." s.misclassified;
  Format.fprintf fmt "  generator-invalid : %d@." s.gen_invalid;
  Format.fprintf fmt "  quarantined       : %d@."
    (List.length s.quarantine);
  Format.fprintf fmt "  retries           : %d@." s.retries;
  if s.fuel_exhausted > 0 then
    Format.fprintf fmt "  fuel-exhausted    : %d@." s.fuel_exhausted;
  if s.resumed_shards > 0 then
    Format.fprintf fmt "  resumed shards    : %d@." s.resumed_shards;
  if s.guided then begin
    Format.fprintf fmt "  coverage          : %d bits over %d sites@."
      (Coverage.cardinal s.coverage)
      (Coverage.sites s.coverage);
    Format.fprintf fmt
      "  corpus            : %d entries (%d gen + %d mutate admissions)@."
      (Corpus.size s.corpus) s.gen_admitted s.mut_admitted;
    Format.fprintf fmt
      "  phases            : %d generation + %d mutation programs@."
      s.gen_programs s.mut_programs
  end;
  if s.quarantine <> [] then begin
    Format.fprintf fmt "@.  QUARANTINE:@.";
    Harness.Supervise.render fmt s.quarantine
  end;
  List.iter
    (fun sh ->
       Format.fprintf fmt
         "@.  FAILURE (program %d, seed 0x%x, shrunk to %d lines):@."
         sh.s_row.index sh.s_row.seed sh.s_lines;
       List.iter
         (fun f ->
            Format.fprintf fmt "    %s: %s@." (Oracle.failure_name f)
              (Oracle.failure_detail f))
         sh.s_failures;
       Format.fprintf fmt "    tape: %s@." (Tape.to_string sh.s_tape);
       List.iter
         (fun l -> Format.fprintf fmt "    | %s@." l)
         (String.split_on_char '\n' sh.s_src))
    s.shrunk;
  Format.fprintf fmt "@.  RESULT: %s@."
    (if passed s then "PASS" else "FAIL")

(* --- resilience degradation table ----------------------------------------- *)

type resilience_row = {
  rs_scenario : string;
  rs_n : int;
  rs_completed : int;      (* programs that produced a verdict *)
  rs_quarantined : int;
  rs_retries : int;
  rs_fuel : int;
  rs_pass : bool;          (* oracle verdicts clean on the survivors *)
}

(* The supervised counterpart of the Harness.Faults grid: each scenario
   runs the same seeded campaign under one injected harness-fault
   class, and the table shows how much of the grid survives. *)
let resilience ?pool ?(n = 240) ?backend ~seed () : resilience_row list =
  (* Calibrated against the generator: most programs allocate only a
     handful of times and compile in well under 2000 fuel steps, so
     crash:3 / fuel:600 kill a slice of the grid, crash:1 / fuel:400
     kill most of it, and fuel:2000 is a watchdog that never fires. *)
  let scenarios =
    [ "none", [];
      "crash:3", [ Vm.Fault.Crash 3 ];
      "crash:1", [ Vm.Fault.Crash 1 ];
      "fuel:2000", [ Vm.Fault.Fuel 2_000 ];
      "fuel:400", [ Vm.Fault.Fuel 400 ] ]
  in
  List.map
    (fun (name, faults) ->
       let s = run ?pool ~faults ~max_shrink:0 ?backend ~seed ~n () in
       { rs_scenario = name;
         rs_n = n;
         rs_completed = List.length s.rows;
         rs_quarantined = List.length s.quarantine;
         rs_retries = s.retries;
         rs_fuel = s.fuel_exhausted;
         rs_pass = passed s })
    scenarios

let render_resilience fmt (rows : resilience_row list) =
  Format.fprintf fmt "Resilience: supervised campaign under injected harness faults@.";
  Format.fprintf fmt "  %-14s %9s %10s %12s %8s %6s %s@." "scenario"
    "programs" "completed" "quarantined" "retries" "fuel" "verdict";
  List.iter
    (fun r ->
       Format.fprintf fmt "  %-14s %9d %10d %12d %8d %6d %s@."
         r.rs_scenario r.rs_n r.rs_completed r.rs_quarantined r.rs_retries
         r.rs_fuel
         (if r.rs_pass then "PASS" else "FAIL"))
    rows

let resilience_json (rows : resilience_row list) : Json.t =
  Json.Obj
    [ ("rows",
       Json.List
         (List.map
            (fun r ->
               Json.Obj
                 [ ("scenario", Json.Str r.rs_scenario);
                   ("n", Json.Int r.rs_n);
                   ("completed", Json.Int r.rs_completed);
                   ("quarantined", Json.Int r.rs_quarantined);
                   ("retries", Json.Int r.rs_retries);
                   ("fuel_exhausted", Json.Int r.rs_fuel);
                   ("pass", Json.Bool r.rs_pass) ])
            rows)) ]

(* --- repro / corpus files ------------------------------------------------ *)

let repro_contents ~seed ~inject ~(failures : Oracle.failure list)
    ~(tape : int array) (src : string) =
  String.concat "\n"
    ([ "/* cecsan-fuzz repro";
       sp "   seed: 0x%x" seed;
       sp "   inject: %b" inject;
     ]
     @ List.map
       (fun f -> sp "   failure: %s (%s)" (Oracle.failure_name f)
           (Oracle.failure_detail f))
       failures
     @ [ sp "   tape: %s" (Tape.to_string tape); "*/"; src; "" ])

let corpus_contents ~cls ~seed ~(tape : int array) (src : string) =
  String.concat "\n"
    [ "/* cecsan-fuzz corpus entry";
      sp "   class: %s" (Gen.class_name cls);
      sp "   seed: 0x%x" seed;
      sp "   tape: %s" (Tape.to_string tape);
      "   expect: detected by CECSan under Halt and Recover"; "*/"; src;
      "" ]

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

(* Writes shrunk failure repros; returns the paths. *)
let write_repros ~dir (s : summary) : string list =
  if s.shrunk = [] then []
  else begin
    mkdir_p dir;
    List.map
      (fun sh ->
         let path =
           Filename.concat dir
             (sp "repro_%04d_%s.mc" sh.s_row.index
                (match sh.s_failures with
                 | f :: _ ->
                   String.map
                     (function ':' -> '_' | c -> c)
                     (Oracle.failure_name f)
                 | [] -> "unknown"))
         in
         write_file path
           (repro_contents ~seed:sh.s_row.seed
              ~inject:(inject_of_index sh.s_row.index)
              ~failures:sh.s_failures ~tape:sh.s_tape sh.s_src);
         path)
      s.shrunk
  end

(* CECSan detects [tape]'s planted bug with the right kind, and the bug
   is still exactly [pl0]: corpus shrinking preserves class AND
   far/write/granule16, so each entry stays a faithful witness of its
   plan-shape marker. *)
let detect_same_plan ?backend (pl0 : Gen.plan) tape =
  let p = Gen.generate ~inject:true (Tape.replay tape) in
  match p.Gen.plan with
  | Some pl when pl = pl0 ->
    (match
       Oracle.run_tool (Cecsan.sanitizer ()) ?backend ~optimize:true
         p.Gen.src
     with
     | tr ->
       tr.Oracle.detected
       && (match tr.Oracle.first_kind with
           | Some k -> Oracle.kind_ok pl.Gen.cls k
           | None -> false)
     | exception Oracle.Compile_error _ -> false)
  | _ -> false

(* One marker bit per planted-plan shape (class x far x write x
   granule16), in reserved site space far above any real Tir site id.
   Folding it into the .mc corpus' signature makes the set-cover pass
   keep at least one witness of every detected bug shape alongside raw
   coverage breadth (the AFL "coverage + crash signature" dedup key). *)
let plan_marker_base = 4096

let plan_marker (pl : Gen.plan) : Coverage.t =
  let cls_index =
    let rec go i = function
      | [] -> 0
      | c :: _ when c = pl.Gen.cls -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 Gen.all_classes
  in
  let code =
    (cls_index * 8) + (Bool.to_int pl.Gen.far * 4)
    + (Bool.to_int pl.Gen.write * 2) + Bool.to_int pl.Gen.granule16
  in
  Coverage.of_keys
    [ Coverage.key ~leg:0 ~site:(plan_marker_base + code)
        Coverage.Instrumented ]

(* A bug-planted tape's signature for the .mc corpus' set-cover pass:
   the bitmap over the three CECSan legs plus the plan-shape marker. *)
let corpus_coverage_of_tape ?backend tape : Coverage.t =
  let p = Gen.generate ~inject:true (Tape.replay tape) in
  let marker =
    match p.Gen.plan with
    | Some pl -> plan_marker pl
    | None -> Coverage.empty
  in
  match Oracle.evaluate_cov ~tools:[] ?backend p with
  | _, _, cov -> Coverage.union cov marker
  | exception _ -> marker

(* Seeds a regression corpus: bug-injected programs that CECSan
   detects, each shrunk to the smallest tape on which the SAME class is
   still planted and still detected (with the right kind), admitted on
   coverage novelty and finally reduced to the greedy set cover -- so
   the written corpus is a fixed point of [Corpus.minimize].
   Deterministic in [seed]; writes at most [count] entries. *)
let write_corpus ~dir ~seed ~count ?backend () : string list =
  mkdir_p dir;
  let rec collect i corp =
    if Corpus.size corp >= count || i > 10_000 then corp
    else
      let pseed = Tape.mix seed i in
      let p = Gen.generate ~inject:true (Tape.fresh ~seed:pseed) in
      match p.Gen.plan with
      | Some pl
        when detect_same_plan ?backend pl p.Gen.tape
             && Coverage.novel
                  (corpus_coverage_of_tape ?backend p.Gen.tape)
                  ~acc:(Corpus.accumulated corp) ->
        let tape =
          Shrink.minimize ~still_fails:(detect_same_plan ?backend pl)
            p.Gen.tape
        in
        let corp', _ =
          Corpus.admit corp ~seed:pseed ~phase:"gen" ~tape
            ~cov:(corpus_coverage_of_tape ?backend tape)
        in
        collect (i + 1) corp'
      | _ -> collect (i + 1) corp
  in
  let corp = Corpus.minimize (collect 1 Corpus.empty) in
  List.mapi
    (fun k (e : Corpus.entry) ->
       let p = Gen.generate ~inject:true (Tape.replay e.Corpus.e_tape) in
       let cls =
         match p.Gen.plan with
         | Some pl -> pl.Gen.cls
         | None -> assert false (* shrink preserved detection *)
       in
       let path =
         Filename.concat dir (sp "%02d_%s.mc" k (Gen.class_name cls))
       in
       write_file path
         (corpus_contents ~cls ~seed:e.Corpus.e_seed ~tape:e.Corpus.e_tape
            p.Gen.src);
       path)
    (Corpus.entries corp)

(* --- committed-corpus minimality check ------------------------------------- *)

let tape_of_corpus_file path : int array option =
  let ic = open_in path in
  let found = ref None in
  (try
     while !found = None do
       let line = input_line ic in
       let prefix = "   tape: " in
       if has_prefix ~prefix line then
         found :=
           Tape.of_string
             (String.sub line (String.length prefix)
                (String.length line - String.length prefix))
     done
   with End_of_file -> ());
  close_in ic;
  !found

(* [Ok []] iff the committed .mc corpus in [dir] is already a fixed
   point of the set-cover pass: rebuilding each entry's bitmap from its
   tape header and minimizing drops nothing.  [Ok files] names the
   redundant entries. *)
let check_corpus_minimal ~dir ?backend () : (string list, string) result =
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".mc")
    |> List.sort compare
  in
  if files = [] then Error (sp "no .mc corpus entries in %s" dir)
  else
    let rec build k files acc =
      match files with
      | [] -> Ok (List.rev acc)
      | f :: rest ->
        (match tape_of_corpus_file (Filename.concat dir f) with
         | None -> Error (sp "%s: no parseable tape header" f)
         | Some tape ->
           build (k + 1) rest
             ({ Corpus.e_id = k; e_seed = 0; e_phase = "gen";
                e_tape = tape;
                e_cov = corpus_coverage_of_tape ?backend tape }
              :: acc))
    in
    match build 0 files [] with
    | Error e -> Error e
    | Ok entries ->
      let kept =
        List.map
          (fun (e : Corpus.entry) -> e.Corpus.e_id)
          (Corpus.entries (Corpus.minimize (Corpus.of_entries entries)))
      in
      Ok (List.filteri (fun k _ -> not (List.mem k kept)) files)
