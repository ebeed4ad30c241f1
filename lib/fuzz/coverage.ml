(* Fuzz.Coverage: per-program site bitmaps, the greybox feedback signal.

   The telemetry layer already counts, per stable Tir check-site id, how
   many times the site's check EXECUTED, was ELIDED, or was COVERED by a
   hoisted/endpoint check (DESIGN.md section 12).  A program's coverage
   is the SET of (leg, site, kind) triples whose counter is nonzero —
   plus an INSTRUMENTED bit per site that exists at all, derived from
   the full site-row view ([Telemetry.Snapshot.sites_full]) so a program
   that merely instruments a previously-unseen site shape still reads as
   novel.

   Site ids are per-program (every module mints ids from 0), so the
   bitmap is an AFL-style abstraction: bit (leg, 12, Elided) means "some
   program shape got site index 12 elided under that pipeline leg", not
   one fixed source location.  That coarseness is exactly what makes the
   bitmap a stable, bounded feedback signal across a campaign of
   distinct programs.

   Determinism: a bitmap is a [Set.Make(Int)] over packed keys, so union
   is commutative and serialization (sorted list of keys) is
   byte-identical for equal bitmaps regardless of merge order or job
   count. *)

type kind = Instrumented | Executed | Elided | Covered

let kind_name = function
  | Instrumented -> "instrumented"
  | Executed -> "executed"
  | Elided -> "elided"
  | Covered -> "covered"

let all_kinds = [ Instrumented; Executed; Elided; Covered ]

let kind_index = function
  | Instrumented -> 0
  | Executed -> 1
  | Elided -> 2
  | Covered -> 3

(* keys pack (site, leg, kind) into one int: site * 64 + leg * 4 + kind.
   Legs are pipeline legs of the oracle (CECSan-O2 / -O0 / -noabsint,
   then extra baselines), capped at 16. *)
let max_legs = 16

let key ~leg ~site kind =
  if leg < 0 || leg >= max_legs then invalid_arg "Coverage.key: leg";
  if site < 0 then invalid_arg "Coverage.key: site";
  (site * (max_legs * 4)) + (leg * 4) + kind_index kind

let key_site k = k / (max_legs * 4)
let key_leg k = k mod (max_legs * 4) / 4

let key_kind k =
  match k mod 4 with
  | 0 -> Instrumented
  | 1 -> Executed
  | 2 -> Elided
  | _ -> Covered

module S = Set.Make (Int)

type t = S.t

let empty = S.empty
let cardinal = S.cardinal
let union = S.union
let is_subset a b = S.subset a b
let equal = S.equal

let of_keys ks = List.fold_left (fun acc k -> S.add k acc) S.empty ks

(* bits in [t] the accumulator lacks: the admission test *)
let novel t ~acc = not (S.subset t acc)
let novel_count t ~acc = S.cardinal (S.diff t acc)

(* distinct site ids carrying any bit: the "sites reached" statistic *)
let sites t =
  S.fold (fun k acc -> S.add (key_site k) acc) t S.empty |> S.cardinal

(* One pipeline leg's contribution, from the FULL site-row view (all-zero
   rows included): every listed site gets its Instrumented bit, nonzero
   counters get their kind bits. *)
let of_rows ~leg rows =
  List.fold_left
    (fun acc (r : Telemetry.Snapshot.site_row) ->
       let site = r.Telemetry.Snapshot.s_site in
       let acc = S.add (key ~leg ~site Instrumented) acc in
       let acc =
         if r.s_executed > 0 then S.add (key ~leg ~site Executed) acc
         else acc
       in
       let acc =
         if r.s_elided > 0 then S.add (key ~leg ~site Elided) acc else acc
       in
       if r.s_covered > 0 then S.add (key ~leg ~site Covered) acc else acc)
    S.empty rows

(* --- serialization --------------------------------------------------------- *)

(* The sorted list of packed keys: equal bitmaps print identically (set
   order is canonical), and [of_value (to_value t) = Some t]. *)
let to_value t = Json.List (List.map (fun k -> Json.Int k) (S.elements t))

let of_value = function
  | Json.List ks ->
    (try
       Some
         (List.fold_left
            (fun acc k ->
               match k with
               | Json.Int k when k >= 0 -> S.add k acc
               | _ -> raise Exit)
            S.empty ks)
     with Exit -> None)
  | _ -> None

(* Human summary for reports: totals per kind. *)
let render fmt t =
  let count kind =
    S.fold (fun k n -> if key_kind k = kind then n + 1 else n) t 0
  in
  Format.fprintf fmt "bits=%d sites=%d (%s)" (S.cardinal t) (sites t)
    (String.concat ", "
       (List.map
          (fun k -> Printf.sprintf "%s %d" (kind_name k) (count k))
          all_kinds))
