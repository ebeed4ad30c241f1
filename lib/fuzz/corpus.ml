(* Fuzz.Corpus: the coverage-keyed tape corpus of a guided campaign.

   Admission is novelty-keyed: a tape enters iff its bitmap carries at
   least one (leg, site, kind) bit the accumulated bitmap lacks, so the
   corpus only ever grows the campaign's coverage frontier and the
   accumulated bitmap is always exactly the union of the entries'
   bitmaps.  Admission decisions are made sequentially in submission
   order (the pool hands results back in submission order), which is
   what keeps the corpus byte-identical at any job count.

   [minimize] is the classic greedy set cover over the same bitmap:
   repeatedly keep the entry covering the most still-uncovered bits
   (ties to the lowest admission id), until the full bitmap is covered.
   The pass is deterministic and idempotent — rerunning it over its own
   output picks the same entries in the same order — and
   coverage-preserving by construction.

   Serialization is one JSON list of entries ([to_value]), embedded in
   the campaign checkpoint so corpus and campaign state commit in one
   atomic write; [of_value (to_value c)] prints back byte for byte. *)

type entry = {
  e_id : int;            (* admission index, stable across minimize *)
  e_seed : int;          (* the engine seed the tape came from *)
  e_phase : string;      (* "gen" or "mutate:<op>"; no spaces *)
  e_tape : int array;
  e_cov : Coverage.t;    (* the entry's own bitmap *)
}

type t = {
  entries : entry list;  (* admission order *)
  acc : Coverage.t;      (* union of the entries' bitmaps *)
  next_id : int;
}

let empty = { entries = []; acc = Coverage.empty; next_id = 0 }

let size c = List.length c.entries
let entries c = c.entries
let accumulated c = c.acc

let nth_tape c i =
  match List.nth_opt c.entries i with
  | Some e -> e.e_tape
  | None -> invalid_arg "Corpus.nth_tape"

(* [admit] in submission order only: the pair is the new corpus and
   whether the tape was admitted (i.e. lit a bit [acc] lacked). *)
let admit c ~seed ~phase ~tape ~cov =
  if not (Coverage.novel cov ~acc:c.acc) then (c, false)
  else
    let e =
      { e_id = c.next_id; e_seed = seed; e_phase = phase; e_tape = tape;
        e_cov = cov }
    in
    ( { entries = c.entries @ [ e ];
        acc = Coverage.union c.acc cov;
        next_id = c.next_id + 1 },
      true )

(* AFL-style favored scheduling: the top quarter of entries ranked by
   distinct sites, then bitmap cardinality, then recency (higher id
   first).  Mutation bases drawn from here keep the engine working on
   the deepest programs instead of uniformly re-mutating shallow ones.
   Deterministic: the ranking is a pure function of the corpus. *)
let favored c : entry list =
  let ranked =
    List.sort
      (fun a b ->
         match compare (Coverage.sites b.e_cov) (Coverage.sites a.e_cov) with
         | 0 ->
           (match
              compare (Coverage.cardinal b.e_cov) (Coverage.cardinal a.e_cov)
            with
            | 0 -> compare b.e_id a.e_id
            | c -> c)
         | c -> c)
      c.entries
  in
  let keep = max 1 (List.length ranked / 4) in
  List.filteri (fun i _ -> i < keep) ranked

(* --- greedy set-cover minimization ----------------------------------------- *)

let minimize c =
  let target =
    List.fold_left
      (fun acc e -> Coverage.union acc e.e_cov)
      Coverage.empty c.entries
  in
  let rec go covered remaining kept =
    if Coverage.is_subset target covered then kept
    else
      let best =
        List.fold_left
          (fun best e ->
             let gain = Coverage.novel_count e.e_cov ~acc:covered in
             match best with
             | Some (_, bg) when bg >= gain -> best  (* ties: lowest id *)
             | _ when gain = 0 -> best
             | _ -> Some (e, gain))
          None remaining
      in
      match best with
      | None -> kept  (* nothing gains: target unreachable (empty set) *)
      | Some (e, _) ->
        go
          (Coverage.union covered e.e_cov)
          (List.filter (fun e' -> e'.e_id <> e.e_id) remaining)
          (e :: kept)
  in
  let kept = go Coverage.empty c.entries [] in
  let entries =
    List.sort (fun a b -> compare a.e_id b.e_id) kept
  in
  { entries; acc = target; next_id = c.next_id }

(* --- serialization --------------------------------------------------------- *)

(* Rebuilds corpus state from entries (in admission order): the
   accumulated bitmap and next id are derived, never stored. *)
let of_entries entries =
  let acc =
    List.fold_left
      (fun acc e -> Coverage.union acc e.e_cov)
      Coverage.empty entries
  in
  let next_id = List.fold_left (fun m e -> max m (e.e_id + 1)) 0 entries in
  { entries; acc; next_id }

let entry_to_value e =
  Json.Obj
    [ ("id", Json.Int e.e_id);
      ("seed", Json.Int e.e_seed);
      ("phase", Json.Str e.e_phase);
      ("tape",
       Json.List (List.map (fun d -> Json.Int d) (Array.to_list e.e_tape)));
      ("cov", Coverage.to_value e.e_cov) ]

let to_value c = Json.List (List.map entry_to_value c.entries)

(* Strict inverse of [to_value]: exactly its key order, integers only. *)
let of_value v : t option =
  let exception Bad in
  let int = function Json.Int n -> n | _ -> raise Bad in
  let entry = function
    | Json.Obj
        [ ("id", Json.Int e_id); ("seed", Json.Int e_seed);
          ("phase", Json.Str e_phase); ("tape", Json.List tape);
          ("cov", cov) ] ->
      (match Coverage.of_value cov with
       | Some e_cov ->
         { e_id; e_seed; e_phase; e_tape = Array.of_list (List.map int tape);
           e_cov }
       | None -> raise Bad)
    | _ -> raise Bad
  in
  match v with
  | Json.List es ->
    (try Some (of_entries (List.map entry es)) with Bad -> None)
  | _ -> None

let render fmt c =
  Format.fprintf fmt "corpus: %d entries, " (size c);
  Coverage.render fmt c.acc;
  Format.fprintf fmt "@.";
  List.iter
    (fun e ->
       Format.fprintf fmt "  #%d seed=0x%x %s (%d draws, %d bits)@." e.e_id
         e.e_seed e.e_phase (Array.length e.e_tape)
         (Coverage.cardinal e.e_cov))
    c.entries
