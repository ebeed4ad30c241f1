(* Aggregates used by the performance tables: arithmetic mean and
   geometric mean of overhead percentages, matching how the paper
   reports "Average" and "Geometric Mean" rows. *)

let average (xs : float list) : float =
  match xs with
  | [] -> 0.0
  | _ -> List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs)

(* Geometric mean of overhead percentages: computed over the slowdown
   factors (1 + x/100), reported back as a percentage, which is the
   standard way SPEC-style geomeans of overheads are formed. *)
let geomean_overhead (xs : float list) : float =
  match xs with
  | [] -> 0.0
  | _ ->
    let logs =
      List.map (fun x -> log (max (1.0 +. (x /. 100.0)) 1e-9)) xs
    in
    ((exp (average logs)) -. 1.0) *. 100.0

let percent_overhead ~base ~measured =
  if base <= 0 then 0.0
  else (float_of_int measured /. float_of_int base -. 1.0) *. 100.0

(* The nearest-rank index, the serving-latency convention: a percentile
   is the actual sample at 1-based sorted index ceil(q/100 * n), so a
   latency table is a pure function of the multiset. *)
let rank ~q n =
  if n <= 0 then 0
  else
    (* the epsilon keeps exact products exact: 99.9/100 * 1000 lands a
       hair above 999.0 in binary and would otherwise ceil to 1000 *)
    let r =
      int_of_float (ceil ((q *. float_of_int n /. 100.0) -. 1e-9))
    in
    max 1 (min n r)
