(* Deterministic, seedable fault injection.

   One injector instance is threaded through [State.t] so every layer
   (allocators, metadata table, interpreter) consults the same budget
   counters.  Three fault classes, each modelling a resource edge the
   paper's section V.1 degradation story has to survive:

   - [Oom n]:     malloc returns NULL after the first [n] allocations
                  (allocator pressure; programs must see NULL, not die);
   - [Table n]:   the effective metadata-table size shrinks to [n]
                  entries, forcing the entry-0 fallback or the
                  chain_overflow extension orders of magnitude earlier
                  than the real 2^17 limit;
   - [Tagflip n]: every [n]-th pointer-sized load of a tagged value gets
                  one tag bit flipped (bit-rot / transient corruption);
                  the next check through it fails, which exercises the
                  recoverable-reporting path.

   Two further classes target the *harness* rather than the guest
   program -- they model a pipeline task dying mid-flight, which is
   what the supervision layer (Harness.Supervise) must quarantine:

   - [Crash n]: raise [Injected_crash] out of the VM after the first
                [n] allocations (a hard task death the pool must
                survive);
   - [Fuel n]:  hand the pipeline a step budget of [n]; phases burn
                Tir.Fuel and raise [Tir.Fuel.Exhausted] when it runs
                out (a deterministic "timeout").

   All draws come from a private splitmix PRNG seeded at construction,
   so a given (seed, program) pair replays bit-for-bit. *)

type spec =
  | Oom of int
  | Table of int
  | Tagflip of int
  | Crash of int
  | Fuel of int

exception Injected_crash of { after : int }

let () =
  Printexc.register_printer (function
      | Injected_crash { after } ->
        Some (Printf.sprintf "Fault.Injected_crash(after %d allocations)" after)
      | _ -> None)

type t = {
  mutable oom_after : int option;       (* allocations before NULL *)
  mutable table_limit : int option;     (* effective metadata entries *)
  mutable tagflip_every : int option;   (* period of corrupted loads *)
  mutable crash_after : int option;     (* allocations before task death *)
  mutable fuel_budget : int option;     (* pipeline step budget *)
  (* deterministic budget counters *)
  mutable mallocs_seen : int;
  mutable tagged_loads_seen : int;
  (* telemetry: how many faults actually fired *)
  mutable oom_injected : int;
  mutable tagflips_injected : int;
  mutable rng : int;
}

let none () = {
  oom_after = None;
  table_limit = None;
  tagflip_every = None;
  crash_after = None;
  fuel_budget = None;
  mallocs_seen = 0;
  tagged_loads_seen = 0;
  oom_injected = 0;
  tagflips_injected = 0;
  rng = 0x5EED;
}

let apply t = function
  | Oom n -> t.oom_after <- Some (max n 0)
  | Table n -> t.table_limit <- Some (max n 2)  (* entry 0 + one slot *)
  | Tagflip n -> t.tagflip_every <- Some (max n 1)
  | Crash n -> t.crash_after <- Some (max n 0)
  | Fuel n -> t.fuel_budget <- Some (max n 0)

let of_specs ?(seed = 0x5EED) specs =
  let t = none () in
  t.rng <- seed;
  List.iter (apply t) specs;
  t

(* A fresh injector with the same configuration and seed but zeroed
   budget/telemetry counters.  [State.create] clones the injector it is
   handed so that runs sharing one [Fault.t] value (repeated runs, pool
   workers) never race on or accumulate each other's counters. *)
let clone t = {
  oom_after = t.oom_after;
  table_limit = t.table_limit;
  tagflip_every = t.tagflip_every;
  crash_after = t.crash_after;
  fuel_budget = t.fuel_budget;
  mallocs_seen = 0;
  tagged_loads_seen = 0;
  oom_injected = 0;
  tagflips_injected = 0;
  rng = t.rng;
}

let active t =
  t.oom_after <> None || t.table_limit <> None || t.tagflip_every <> None
  || t.crash_after <> None || t.fuel_budget <> None

(* "oom:N" | "table:N" | "tagflip:N" | "crash:N" | "fuel:N" with N >= 0
   — the CLI surface. *)
let parse s : (spec, string) result =
  match String.index_opt s ':' with
  | None -> Error (Printf.sprintf "bad fault spec %S (want kind:N)" s)
  | Some i ->
    let kind = String.sub s 0 i in
    let num = String.sub s (i + 1) (String.length s - i - 1) in
    (match int_of_string_opt num with
     | Some n when n >= 0 ->
       (match kind with
        | "oom" -> Ok (Oom n)
        | "table" -> Ok (Table n)
        | "tagflip" -> Ok (Tagflip n)
        | "crash" -> Ok (Crash n)
        | "fuel" -> Ok (Fuel n)
        | _ -> Error (Printf.sprintf "unknown fault kind %S" kind))
     | _ -> Error (Printf.sprintf "bad fault count in %S" s))

let spec_to_string = function
  | Oom n -> Printf.sprintf "oom:%d" n
  | Table n -> Printf.sprintf "table:%d" n
  | Tagflip n -> Printf.sprintf "tagflip:%d" n
  | Crash n -> Printf.sprintf "crash:%d" n
  | Fuel n -> Printf.sprintf "fuel:%d" n

(* same splitmix constants as [State.next_rand], private stream *)
let next_rand t =
  let z = (t.rng + 0x1E3779B97F4A7C15) land max_int in
  t.rng <- z;
  let z = (z lxor (z lsr 30)) * 0x3F58476D1CE4E5B9 land max_int in
  let z = (z lxor (z lsr 27)) * 0x14D049BB133111EB land max_int in
  (z lxor (z lsr 31)) land max_int

(* Should this allocation fail?  Counts every call so the budget is a
   property of the run, not of the allocator that happens to serve it.
   The crash probe lives here too: every allocator already consults
   [should_oom], so [Crash n] kills the task at exactly the (n+1)-th
   allocation regardless of which allocator serves it. *)
let should_oom t =
  (match t.crash_after, t.oom_after with
   | None, None -> ()
   | _ -> t.mallocs_seen <- t.mallocs_seen + 1);
  (match t.crash_after with
   | Some n when t.mallocs_seen > n -> raise (Injected_crash { after = n })
   | _ -> ());
  match t.oom_after with
  | None -> false
  | Some n ->
    if t.mallocs_seen > n then begin
      t.oom_injected <- t.oom_injected + 1;
      true
    end
    else false

let effective_table_limit t ~default =
  match t.table_limit with
  | None -> default
  | Some n -> min n default

(* Passes a pointer-sized loaded value through the corruption model:
   values that carry a tag are counted, and every [tagflip_every]-th one
   comes back with a random tag bit flipped. *)
let corrupt_load t v =
  match t.tagflip_every with
  | None -> v
  | Some period ->
    if v lsr Layout46.tag_shift land (Layout46.tag_limit - 1) = 0 then v
    else begin
      t.tagged_loads_seen <- t.tagged_loads_seen + 1;
      if t.tagged_loads_seen mod period = 0 then begin
        t.tagflips_injected <- t.tagflips_injected + 1;
        v lxor (1 lsl (Layout46.tag_shift + (next_rand t mod Layout46.tag_bits)))
      end
      else v
    end
