(* Tir.Absint: flow-sensitive abstract interpretation for certified
   check elision (DESIGN.md section 16).

   The interpreter is parameterized by a [model] describing one
   sanitizer's intrinsics, so CECSan and the redzone baselines share
   the machinery.  Analysis of a function proceeds in three phases:

   1. object discovery: every stack slot, allocator intrinsic site,
      modeled allocator call and referenced global becomes an abstract
      object with a descriptor that is stable across Checkopt's own
      rewrites (so the optimizer's run and the verifier's independent
      replay name the same objects);
   2. derivation closure + escape: a flow-insensitive fixpoint maps
      each register to the set of objects it may derive from; objects
      stored as values, passed to defined functions or unclassified
      intrinsics, or returned, escape;
   3. flow fixpoint: interval/pointer values and the freed-set are
      propagated block by block in reverse postorder, widening after a
      bounded number of joins so termination needs no assumptions.

   [check] replaces phase 3 for a verifier holding the fixpoint as a
   certificate: phases 1 and 2 are re-run, then every reachable block
   is transferred once from its claimed entry state, and each
   successor's claimed state must cover the result.  A post-fixpoint
   that passes is sound whatever iteration or widening produced it, so
   the checker trusts only the transfer functions and [state_leq].

   Soundness notes bound to this VM (not real hardware):

   - OCaml/VM integer arithmetic wraps silently, so interval addition
     and multiplication go to Vtop whenever a corner overflows;
   - pointer-offset arithmetic saturates to the full range instead:
     a full-range offset can never satisfy {!in_bounds}, so a wrapped
     offset can never justify an elision, while the object identity is
     retained for spatial-only downgrades (which run the same check
     semantics and therefore cannot regress detection);
   - a free whose argument is imprecise releases every escaped object
     plus everything derivable from the argument register -- a
     non-escaping object's address cannot reach a free site any other
     way, because reaching one without a store or call *is* escape. *)

open Ir

module Int_map = Witness.Int_map
module Int_set = Witness.Int_set

type size_rule = Sarg of int | Sprod of int * int

type model = {
  am_checks : (string * string option) list;
  am_check_alias : bool;
  am_allocs : (string * size_rule) list;
  am_frees : string list;
  am_aliases : string list;
  am_opaque : string list;
  am_call_allocs : (string * size_rule) list;
  am_call_frees : string list;
  am_gpt_load : string option;
  am_global_make : string option;
  am_strip_mask : int option;
  am_slots : bool;
}

type aval = Witness.aval =
  | Vtop
  | Vint of int * int
  | Vptr of { obj : int; lo : int; hi : int }

type obj = {
  o_id : int;
  o_desc : string;
  o_size : int;
  mutable o_escapes : bool;
}

type state = Witness.state = {
  s_regs : aval Int_map.t;
  s_freed : Int_set.t;
}

type summary = {
  su_func : string;
  su_objs : obj array;
  su_block_in : state option array;
  su_sites : (int, state) Hashtbl.t;
  su_facts : int;
}

type ctx = {
  cx_model : model;
  cx_pure : string -> bool;
  cx_defined : (string, unit) Hashtbl.t;
  cx_gpt : (int, string) Hashtbl.t;
  cx_globsize : (string, int) Hashtbl.t;
}

let make_ctx (model : model) ~(pure : string -> bool) (md : modul) : ctx =
  let gpt : (int, string) Hashtbl.t = Hashtbl.create 17 in
  (match model.am_global_make with
   | None -> ()
   | Some gm ->
     iter_funcs md (fun f ->
         Array.iter
           (fun b ->
              List.iter
                (fun i ->
                   match i with
                   | Iintrin { name; args = Glob g :: _ :: Imm k :: _; _ }
                     when String.equal name gm ->
                     Hashtbl.replace gpt k g
                   | _ -> ())
                b.b_instrs)
           f.f_blocks));
  let globsize = Hashtbl.create 17 in
  List.iter (fun g -> Hashtbl.replace globsize g.g_name g.g_size) md.m_globals;
  let defined = Hashtbl.create 17 in
  Hashtbl.iter (fun name _ -> Hashtbl.replace defined name ()) md.m_funcs;
  { cx_model = model; cx_pure = pure; cx_defined = defined;
    cx_gpt = gpt; cx_globsize = globsize }

(* --- lattice ------------------------------------------------------------ *)

let regval (st : state) (r : int) : aval =
  match Int_map.find_opt r st.s_regs with Some v -> v | None -> Vtop

(* Canonical form: Vtop is never stored, so map equality means state
   equality. *)
let set_val (st : state) (r : int) (v : aval) : state =
  { st with
    s_regs =
      (match v with
       | Vtop -> Int_map.remove r st.s_regs
       | _ -> Int_map.add r v st.s_regs) }

let join_val a b =
  if a = b then a
  else
    match a, b with
    | Vint (l1, h1), Vint (l2, h2) -> Vint (min l1 l2, max h1 h2)
    | Vptr p, Vptr q when p.obj = q.obj ->
      Vptr { obj = p.obj; lo = min p.lo q.lo; hi = max p.hi q.hi }
    | _ -> Vtop

let join_state a b =
  { s_regs =
      Int_map.merge
        (fun _ x y ->
           match x, y with
           | Some vx, Some vy ->
             (match join_val vx vy with Vtop -> None | v -> Some v)
           | _ -> None)
        a.s_regs b.s_regs;
    s_freed = Int_set.union a.s_freed b.s_freed }

let val_leq a b =
  match a, b with
  | _, Vtop -> true
  | Vtop, _ -> false
  | Vint (l1, h1), Vint (l2, h2) -> l2 <= l1 && h1 <= h2
  | Vptr p, Vptr q -> p.obj = q.obj && q.lo <= p.lo && p.hi <= q.hi
  | _ -> false

(* a [= b: since missing bindings are Vtop, only b's bindings matter. *)
let state_leq a b =
  Int_set.subset a.s_freed b.s_freed
  && Int_map.for_all (fun r vb -> val_leq (regval a r) vb) b.s_regs

let widen_val old v =
  if val_leq v old then old
  else
    match old, v with
    | Vptr p, Vptr q when p.obj = q.obj ->
      Vptr { obj = p.obj; lo = min_int; hi = max_int }
    | _ -> Vtop

(* [v] is always [join old incoming], so its bindings are a subset of
   [old]'s; the freed-set is finite and needs no widening. *)
let widen_state old v =
  { s_regs =
      Int_map.merge
        (fun _ o n ->
           match o, n with
           | Some ov, Some nv ->
             (match widen_val ov nv with Vtop -> None | w -> Some w)
           | _ -> None)
        old.s_regs v.s_regs;
    s_freed = v.s_freed }

(* --- arithmetic --------------------------------------------------------- *)

(* Integer intervals: the VM wraps silently, so a wrapped corner makes
   the whole interval meaningless -> Vtop. *)
let int_add (l1, h1) (l2, h2) =
  match Scev.add_no_ov l1 l2, Scev.add_no_ov h1 h2 with
  | Some l, Some h -> Vint (l, h)
  | _ -> Vtop

let int_sub (l1, h1) (l2, h2) =
  match Scev.sub_no_ov l1 h2, Scev.sub_no_ov h1 l2 with
  | Some l, Some h -> Vint (l, h)
  | _ -> Vtop

let int_mul (l1, h1) (l2, h2) =
  match
    Scev.mul_no_ov l1 l2, Scev.mul_no_ov l1 h2,
    Scev.mul_no_ov h1 l2, Scev.mul_no_ov h1 h2
  with
  | Some a, Some b, Some c, Some d ->
    Vint (min (min a b) (min c d), max (max a b) (max c d))
  | _ -> Vtop

(* Pointer offsets saturate to the full range on overflow: the object
   identity survives (for downgrades) while {!in_bounds} can never hold
   on a saturated bound, so no elision can rest on wrapped math. *)
let shift_ptr ~obj ~lo ~hi (dl, dh) =
  match Scev.add_no_ov lo dl, Scev.add_no_ov hi dh with
  | Some l, Some h -> Vptr { obj; lo = l; hi = h }
  | _ -> Vptr { obj; lo = min_int; hi = max_int }

let in_bounds ~lo ~hi ~size ~objsize =
  objsize >= 0 && size >= 0 && lo >= 0
  && (match Scev.add_no_ov hi size with
      | Some e -> e <= objsize
      | None -> false)

(* --- object discovery --------------------------------------------------- *)

type fenv = {
  fe_cx : ctx;
  fe_objs : obj array;
  fe_slot_obj : (int, int) Hashtbl.t;   (* slot id -> obj *)
  fe_site_obj : (int, int) Hashtbl.t;   (* alloc intrinsic site -> obj *)
  fe_call_obj : (int * int, int) Hashtbl.t;  (* (block, ordinal) -> obj *)
  fe_glob_obj : (string, int) Hashtbl.t;
  fe_derived : Int_set.t array;         (* reg -> may-derive-from objs *)
  fe_escaped : Int_set.t;
}

let instr_opnds = function
  | Imov { src; _ } | Isext { src; _ } -> [ src ]
  | Ibin { a; b; _ } | Icmp { a; b; _ } -> [ a; b ]
  | Iload { addr; _ } -> [ addr ]
  | Istore { addr; src; _ } -> [ addr; src ]
  | Islot _ -> []
  | Igep { base; idx; _ } -> base :: Option.to_list idx
  | Icall { args; _ } | Iintrin { args; _ } -> args

let alloc_size rule args =
  let const k =
    match List.nth_opt args k with Some (Imm v) -> Some v | _ -> None
  in
  match rule with
  | Sarg k -> (match const k with Some v -> v | None -> -1)
  | Sprod (i, j) ->
    (match const i, const j with
     | Some a, Some b ->
       (match Scev.mul_no_ov a b with Some p -> p | None -> -1)
     | _ -> -1)

let discover (cx : ctx) (f : func) =
  let m = cx.cx_model in
  let objs = ref [] and nobjs = ref 0 in
  let fresh desc size escapes =
    let o = { o_id = !nobjs; o_desc = desc; o_size = size;
              o_escapes = escapes } in
    incr nobjs;
    objs := o :: !objs;
    o.o_id
  in
  let slot_obj = Hashtbl.create 8 and site_obj = Hashtbl.create 8 in
  let call_obj = Hashtbl.create 8 and glob_obj = Hashtbl.create 8 in
  let slot_by_id = Hashtbl.create 8 in
  List.iter (fun s -> Hashtbl.replace slot_by_id s.s_id s) f.f_slots;
  (* globals always escape: their address is reachable from anywhere *)
  let ensure_glob g =
    if not (Hashtbl.mem glob_obj g) then
      let size =
        Option.value (Hashtbl.find_opt cx.cx_globsize g) ~default:(-1)
      in
      Hashtbl.replace glob_obj g (fresh ("global:" ^ g) size true)
  in
  Array.iter
    (fun b ->
       let ord = ref 0 in
       List.iter
         (fun i ->
            List.iter
              (function Glob g -> ensure_glob g | Reg _ | Imm _ -> ())
              (instr_opnds i);
            match i with
            | Islot { slot; _ } when m.am_slots ->
              if not (Hashtbl.mem slot_obj slot) then
                (match Hashtbl.find_opt slot_by_id slot with
                 | Some s ->
                   Hashtbl.replace slot_obj slot
                     (fresh (Printf.sprintf "slot:%s:%d" s.s_name s.s_id)
                        s.s_size false)
                 | None -> ())
            | Iintrin { name; args; site; _ } ->
              (match List.assoc_opt name m.am_allocs with
               | Some rule ->
                 Hashtbl.replace site_obj site
                   (fresh (Printf.sprintf "%s#%d" name site)
                      (alloc_size rule args) false)
               | None ->
                 (match m.am_gpt_load, args with
                  | Some g, Imm k :: _ when String.equal name g ->
                    (match Hashtbl.find_opt cx.cx_gpt k with
                     | Some gname -> ensure_glob gname
                     | None -> ())
                  | _ -> ()))
            | Icall { callee; args; _ } ->
              (match List.assoc_opt callee m.am_call_allocs with
               | Some rule ->
                 Hashtbl.replace call_obj (b.b_id, !ord)
                   (fresh
                      (Printf.sprintf "call:%s:b%d:%d" callee b.b_id !ord)
                      (alloc_size rule args) false);
                 incr ord
               | None -> ())
            | _ -> ())
         b.b_instrs)
    f.f_blocks;
  let arr = Array.of_list (List.rev !objs) in
  (arr, slot_obj, site_obj, call_obj, glob_obj)

(* Intrinsics with modeled (or no) metadata effect; anything else is
   treated as worst-case in both the escape pass and the transfer. *)
let classified m name =
  is_telemetry_marker name
  || List.mem_assoc name m.am_checks
  || List.mem_assoc name m.am_allocs
  || List.mem name m.am_frees
  || List.mem name m.am_aliases
  || List.mem name m.am_opaque
  || (match m.am_gpt_load with Some g -> String.equal g name | None -> false)
  || (match m.am_global_make with
      | Some g -> String.equal g name
      | None -> false)

(* --- derivation closure and escape -------------------------------------- *)

let derive_and_escape ?fuel (cx : ctx) (f : func) ~objs ~slot_obj ~site_obj
    ~call_obj ~glob_obj =
  let m = cx.cx_model in
  let nregs = max f.f_nregs 1 in
  let derived = Array.make nregs Int_set.empty in
  let changed = ref true in
  let add r s =
    if r < nregs && not (Int_set.subset s derived.(r)) then begin
      derived.(r) <- Int_set.union derived.(r) s;
      changed := true
    end
  in
  let get = function
    | Reg r when r < nregs -> derived.(r)
    | Glob g ->
      (match Hashtbl.find_opt glob_obj g with
       | Some id -> Int_set.singleton id
       | None -> Int_set.empty)
    | _ -> Int_set.empty
  in
  let arg0 args = match args with a :: _ -> get a | [] -> Int_set.empty in
  while !changed do
    changed := false;
    Fuel.burn fuel (Array.length f.f_blocks);
    Array.iter
      (fun b ->
         let ord = ref 0 in
         List.iter
           (fun i ->
              match i with
              | Islot { dst; slot } when m.am_slots ->
                (match Hashtbl.find_opt slot_obj slot with
                 | Some id -> add dst (Int_set.singleton id)
                 | None -> ())
              | Imov { dst; src } -> add dst (get src)
              | Isext { dst; src; _ } -> add dst (get src)
              | Ibin { dst; a; b = b'; _ } ->
                add dst (Int_set.union (get a) (get b'))
              | Igep { dst; base; idx; _ } ->
                add dst
                  (Int_set.union (get base)
                     (match idx with Some o -> get o | None -> Int_set.empty))
              | Iintrin { dst; name; args; site; _ } ->
                (match dst with
                 | None -> ()
                 | Some d ->
                   if List.mem_assoc name m.am_allocs then
                     (match Hashtbl.find_opt site_obj site with
                      | Some id -> add d (Int_set.singleton id)
                      | None -> ())
                   else if
                     (m.am_check_alias && List.mem_assoc name m.am_checks)
                     || List.mem name m.am_aliases
                   then add d (arg0 args)
                   else
                     match m.am_gpt_load, args with
                     | Some g, Imm k :: _ when String.equal name g ->
                       (match Hashtbl.find_opt cx.cx_gpt k with
                        | Some gname ->
                          (match Hashtbl.find_opt glob_obj gname with
                           | Some id -> add d (Int_set.singleton id)
                           | None -> ())
                        | None -> ())
                     | _ -> ())
              | Icall { dst; callee; _ } ->
                (match dst with
                 | None -> ()
                 | Some d ->
                   (match List.assoc_opt callee m.am_call_allocs with
                    | Some _ ->
                      (match Hashtbl.find_opt call_obj (b.b_id, !ord) with
                       | Some id -> add d (Int_set.singleton id)
                       | None -> ());
                      incr ord
                    | None -> ()))
              | Icmp _ | Iload _ | Istore _ | Islot _ -> ())
           b.b_instrs)
      f.f_blocks
  done;
  (* escape pass: an object escapes when its address is stored as a
     value, passed to a defined function or an unclassified intrinsic,
     handed to an undefined non-neutral callee, or returned.  Pure
     *defined* callees still escape their arguments: purity only says
     no metadata is touched inside, not that the pointer is forgotten,
     and a later impure call could free whatever was remembered. *)
  let escaped = ref Int_set.empty in
  let esc s = escaped := Int_set.union !escaped s in
  Array.iter
    (fun b ->
       List.iter
         (fun i ->
            match i with
            | Istore { src; _ } -> esc (get src)
            | Icall { callee; args; _ } ->
              if
                List.mem_assoc callee m.am_call_allocs
                || List.mem callee m.am_call_frees
                || ((not (Hashtbl.mem cx.cx_defined callee))
                    && cx.cx_pure callee)
              then ()
              else List.iter (fun a -> esc (get a)) args
            | Iintrin { name; args; _ } ->
              if classified m name then ()
              else List.iter (fun a -> esc (get a)) args
            | _ -> ())
         b.b_instrs;
       match b.b_term with
       | Tret (Some o) -> esc (get o)
       | _ -> ())
    f.f_blocks;
  Int_set.iter
    (fun id -> if id < Array.length objs then objs.(id).o_escapes <- true)
    !escaped;
  Array.iter (fun (o : obj) -> if o.o_escapes then esc (Int_set.singleton o.o_id)) objs;
  (derived, !escaped)

(* --- flow transfer ------------------------------------------------------ *)

let transfer (fe : fenv) (bid : int) (ord : int ref) (st : state)
    (i : instr) : state =
  let m = fe.fe_cx.cx_model in
  let aval = function
    | Imm v -> Vint (v, v)
    | Glob g ->
      (match Hashtbl.find_opt fe.fe_glob_obj g with
       | Some id -> Vptr { obj = id; lo = 0; hi = 0 }
       | None -> Vtop)
    | Reg r -> regval st r
  in
  let arg0_aval args = match args with a :: _ -> aval a | [] -> Vtop in
  (* free with an imprecise argument: every escaped object plus
     everything derivable from the argument may be gone *)
  let free_arg st arg =
    match arg with
    | Some a ->
      (match aval a with
       | Vptr { obj; _ } ->
         { st with s_freed = Int_set.add obj st.s_freed }
       | _ ->
         let extra =
           match a with
           | Reg r when r < Array.length fe.fe_derived -> fe.fe_derived.(r)
           | Glob g ->
             (match Hashtbl.find_opt fe.fe_glob_obj g with
              | Some id -> Int_set.singleton id
              | None -> Int_set.empty)
           | _ -> Int_set.empty
         in
         { st with
           s_freed =
             Int_set.union st.s_freed (Int_set.union fe.fe_escaped extra) })
    | None ->
      { st with s_freed = Int_set.union st.s_freed fe.fe_escaped }
  in
  match i with
  | Imov { dst; src } -> set_val st dst (aval src)
  | Isext { dst; src; bytes } ->
    let v = aval src in
    set_val st dst
      (if bytes >= 8 then v
       else
         match v with
         | Vint (l, h) ->
           let half = 1 lsl ((8 * bytes) - 1) in
           if l >= -half && h < half then v else Vtop
         | _ -> Vtop)
  | Ibin { op; dst; a; b } ->
    let va = aval a and vb = aval b in
    let v =
      match op, va, vb with
      | Add, Vptr { obj; lo; hi }, Vint (l, h)
      | Add, Vint (l, h), Vptr { obj; lo; hi } ->
        shift_ptr ~obj ~lo ~hi (l, h)
      | Add, Vint (l1, h1), Vint (l2, h2) -> int_add (l1, h1) (l2, h2)
      | Sub, Vptr { obj; lo; hi }, Vint (l, h) ->
        (match Scev.sub_no_ov lo h, Scev.sub_no_ov hi l with
         | Some l', Some h' -> Vptr { obj; lo = l'; hi = h' }
         | _ -> Vptr { obj; lo = min_int; hi = max_int })
      | Sub, Vint (l1, h1), Vint (l2, h2) -> int_sub (l1, h1) (l2, h2)
      | Mul, Vint (l1, h1), Vint (l2, h2) -> int_mul (l1, h1) (l2, h2)
      | And, Vptr p, Vint (l, h)
        when l = h && m.am_strip_mask = Some l ->
        Vptr { obj = p.obj; lo = p.lo; hi = p.hi }
      | _ -> Vtop
    in
    set_val st dst v
  | Icmp { dst; _ } -> set_val st dst (Vint (0, 1))
  | Iload { dst; _ } -> set_val st dst Vtop
  | Islot { dst; slot } ->
    (match Hashtbl.find_opt fe.fe_slot_obj slot with
     | Some id when m.am_slots ->
       set_val st dst (Vptr { obj = id; lo = 0; hi = 0 })
     | _ -> set_val st dst Vtop)
  | Igep { dst; base; idx; info } ->
    (match aval base with
     | Vptr { obj; lo; hi } ->
       let delta =
         match info, idx with
         | Gfield { off; _ }, _ -> Some (off, off)
         | Gindex { elem_size; _ }, Some ix ->
           (match aval ix with
            | Vint (l, h) ->
              (match
                 Scev.mul_no_ov l elem_size, Scev.mul_no_ov h elem_size
               with
               | Some a, Some b -> Some (min a b, max a b)
               | _ -> None)
            | _ -> None)
         | Gindex _, None -> None
       in
       set_val st dst
         (match delta with
          | Some d -> shift_ptr ~obj ~lo ~hi d
          | None -> Vptr { obj; lo = min_int; hi = max_int })
     | _ -> set_val st dst Vtop)
  | Istore _ -> st
  | Icall { dst; callee; args } ->
    let st =
      if List.mem callee m.am_call_frees then free_arg st (List.nth_opt args 0)
      else st
    in
    (match List.assoc_opt callee m.am_call_allocs with
     | Some _ ->
       let id = Hashtbl.find_opt fe.fe_call_obj (bid, !ord) in
       incr ord;
       (match dst with
        | Some d ->
          set_val st d
            (match id with
             | Some obj -> Vptr { obj; lo = 0; hi = 0 }
             | None -> Vtop)
        | None -> st)
     | None ->
       let st =
         if List.mem callee m.am_call_frees || fe.fe_cx.cx_pure callee then st
         else { st with s_freed = Int_set.union st.s_freed fe.fe_escaped }
       in
       (match dst with Some d -> set_val st d Vtop | None -> st))
  | Iintrin { dst; name; args; site; _ } ->
    if is_telemetry_marker name then st
    else if List.mem_assoc name m.am_checks then
      (match dst with
       | Some d ->
         set_val st d (if m.am_check_alias then arg0_aval args else Vtop)
       | None -> st)
    else if List.mem_assoc name m.am_allocs then begin
      (* realloc-style: the free leg applies before the fresh object *)
      let st =
        if List.mem name m.am_frees then free_arg st (List.nth_opt args 0)
        else st
      in
      match dst with
      | Some d ->
        set_val st d
          (match Hashtbl.find_opt fe.fe_site_obj site with
           | Some obj -> Vptr { obj; lo = 0; hi = 0 }
           | None -> Vtop)
      | None -> st
    end
    else if List.mem name m.am_frees then begin
      let st = free_arg st (List.nth_opt args 0) in
      match dst with Some d -> set_val st d Vtop | None -> st
    end
    else if List.mem name m.am_aliases then
      (match dst with
       | Some d -> set_val st d (arg0_aval args)
       | None -> st)
    else if
      match m.am_gpt_load with
      | Some g -> String.equal g name
      | None -> false
    then
      (match dst, args with
       | Some d, Imm k :: _ ->
         set_val st d
           (match Hashtbl.find_opt fe.fe_cx.cx_gpt k with
            | Some gname ->
              (match Hashtbl.find_opt fe.fe_glob_obj gname with
               | Some obj -> Vptr { obj; lo = 0; hi = 0 }
               | None -> Vtop)
            | None -> Vtop)
       | Some d, _ -> set_val st d Vtop
       | None, _ -> st)
    else if
      (match m.am_global_make with
       | Some g -> String.equal g name
       | None -> false)
      || List.mem name m.am_opaque
    then (match dst with Some d -> set_val st d Vtop | None -> st)
    else begin
      (* unclassified intrinsic: worst case *)
      let extra =
        List.fold_left
          (fun acc a ->
             match a with
             | Reg r when r < Array.length fe.fe_derived ->
               Int_set.union acc fe.fe_derived.(r)
             | _ -> acc)
          Int_set.empty args
      in
      let st =
        { st with
          s_freed =
            Int_set.union st.s_freed (Int_set.union fe.fe_escaped extra) }
      in
      match dst with Some d -> set_val st d Vtop | None -> st
    end

let transfer_block (fe : fenv) (b : block) (st0 : state)
    ~(record : (int -> state -> instr -> unit) option) : state =
  let ord = ref 0 in
  List.fold_left
    (fun st i ->
       (match record, i with
        | Some k, Iintrin { site; _ } when site >= 0 -> k site st i
        | _ -> ());
       transfer fe b.b_id ord st i)
    st0 b.b_instrs

(* --- driver ------------------------------------------------------------- *)

let widen_threshold = 3

let initial = { s_regs = Int_map.empty; s_freed = Int_set.empty }

(* Phases 1 and 2: the objects and the derivation/escape sets. *)
let func_env ?fuel (cx : ctx) (f : func) : fenv =
  let objs, slot_obj, site_obj, call_obj, glob_obj = discover cx f in
  let derived, escaped =
    derive_and_escape ?fuel cx f ~objs ~slot_obj ~site_obj ~call_obj
      ~glob_obj
  in
  { fe_cx = cx; fe_objs = objs; fe_slot_obj = slot_obj;
    fe_site_obj = site_obj; fe_call_obj = call_obj;
    fe_glob_obj = glob_obj; fe_derived = derived; fe_escaped = escaped }

(* The [transfer_block] hook recording the state before each intrinsic
   site, counting check sites whose pointer carries a [Vptr] fact. *)
let site_recorder (cx : ctx) sites facts site st i =
  Hashtbl.replace sites site st;
  match i with
  | Iintrin { name; args = Reg p :: _; _ }
    when List.mem_assoc name cx.cx_model.am_checks ->
    (match regval st p with Vptr _ -> incr facts | _ -> ())
  | _ -> ()

(* Round-robin sweeps in reverse postorder until no entry state grows.
   A sweep transfers only the blocks whose entry state changed since
   their last transfer: entry states only grow and every successor
   already covers a settled block's out-state, so re-transferring it
   could update nothing.  Likewise an edge whose out-state is already
   covered (out [= old iff join old out [= old) is skipped before the
   join is built.  Neither changes which updates happen in
   which sweep, so the states, the sweep count and the fuel burned are
   those of the plain round robin. *)
let analyze ?fuel (cx : ctx) (f : func) : summary =
  let fe = func_env ?fuel cx f in
  let cfg = Cfg.build f in
  let nb = Array.length f.f_blocks in
  let in_state : state option array = Array.make nb None in
  let updates = Array.make nb 0 in
  let dirty = Array.make nb false in
  if nb > 0 then begin
    in_state.(0) <- Some initial;
    dirty.(0) <- true
  end;
  let changed = ref true in
  while !changed do
    changed := false;
    Fuel.burn fuel (Array.length cfg.Cfg.rpo);
    Array.iter
      (fun bid ->
         match in_state.(bid) with
         | Some st when dirty.(bid) ->
           dirty.(bid) <- false;
           let out = transfer_block fe f.f_blocks.(bid) st ~record:None in
           List.iter
             (fun succ ->
                let grown =
                  match in_state.(succ) with
                  | None -> Some out
                  | Some old when state_leq out old -> None
                  | Some old ->
                    updates.(succ) <- updates.(succ) + 1;
                    let j = join_state old out in
                    Some
                      (if updates.(succ) > widen_threshold then
                         widen_state old j
                       else j)
                in
                match grown with
                | None -> ()
                | Some s ->
                  in_state.(succ) <- Some s;
                  dirty.(succ) <- true;
                  changed := true)
             (successors f.f_blocks.(bid).b_term)
         | _ -> ())
      cfg.Cfg.rpo
  done;
  let sites : (int, state) Hashtbl.t = Hashtbl.create 32 in
  let facts = ref 0 in
  let record = site_recorder cx sites facts in
  Array.iter
    (fun bid ->
       match in_state.(bid) with
       | None -> ()
       | Some st ->
         ignore
           (transfer_block fe f.f_blocks.(bid) st ~record:(Some record)))
    cfg.Cfg.rpo;
  { su_func = f.f_name; su_objs = fe.fe_objs; su_block_in = in_state;
    su_sites = sites; su_facts = !facts }

let certificate (su : summary) : Witness.cert =
  { Witness.c_func = su.su_func;
    c_objs = Array.map (fun o -> (o.o_desc, o.o_size)) su.su_objs;
    c_block_in = su.su_block_in }

(* --- certificate check -------------------------------------------------- *)

exception Reject of string

let check ?fuel (cx : ctx) (c : Witness.cert) (f : func) :
  (summary, string) result =
  let fe = func_env ?fuel cx f in
  let objs = fe.fe_objs in
  let nb = Array.length f.f_blocks in
  let claimed = c.Witness.c_block_in in
  let same_obj (o : obj) (desc, size) =
    String.equal o.o_desc desc && o.o_size = size
  in
  if
    Array.length c.Witness.c_objs <> Array.length objs
    || not (Array.for_all2 same_obj objs c.Witness.c_objs)
  then Error "object descriptors differ from the rediscovered ones"
  else if Array.length claimed <> nb then
    Error
      (Printf.sprintf "%d claimed block states for %d blocks"
         (Array.length claimed) nb)
  else begin
    let cfg = Cfg.build f in
    Fuel.burn fuel (Array.length cfg.Cfg.rpo);
    let sites : (int, state) Hashtbl.t = Hashtbl.create 32 in
    let facts = ref 0 in
    let record = site_recorder cx sites facts in
    match
      if nb > 0 then
        (match claimed.(0) with
         | Some st when state_leq initial st -> ()
         | _ -> raise (Reject "entry state does not cover the initial state"));
      Array.iter
        (fun bid ->
           match claimed.(bid) with
           | None ->
             raise
               (Reject
                  (Printf.sprintf "reachable block b%d has no claimed state"
                     bid))
           | Some st ->
             let out =
               transfer_block fe f.f_blocks.(bid) st ~record:(Some record)
             in
             List.iter
               (fun succ ->
                  match claimed.(succ) with
                  | Some s when state_leq out s -> ()
                  | _ ->
                    raise
                      (Reject
                         (Printf.sprintf
                            "claimed state of b%d does not cover the \
                             out-state of b%d"
                            succ bid)))
               (successors f.f_blocks.(bid).b_term))
        cfg.Cfg.rpo
    with
    | () ->
      Ok { su_func = f.f_name; su_objs = objs; su_block_in = claimed;
           su_sites = sites; su_facts = !facts }
    | exception Reject what -> Error what
  end

(* --- pretty printing ---------------------------------------------------- *)

let bstr v =
  if v = min_int then "-inf"
  else if v = max_int then "+inf"
  else string_of_int v

let pp_val objs fmt = function
  | Vtop -> Format.pp_print_string fmt "top"
  | Vint (l, h) ->
    if l = h then Format.fprintf fmt "int %d" l
    else Format.fprintf fmt "int [%s,%s]" (bstr l) (bstr h)
  | Vptr { obj; lo; hi } ->
    let desc =
      if obj < Array.length objs then objs.(obj).o_desc
      else Printf.sprintf "obj%d" obj
    in
    Format.fprintf fmt "ptr %s+[%s,%s]" desc (bstr lo) (bstr hi)

let pp_summary fmt (su : summary) =
  Format.fprintf fmt "function %s (%d facts)@." su.su_func su.su_facts;
  Array.iter
    (fun o ->
       Format.fprintf fmt "  obj %d: %s size %s%s@." o.o_id o.o_desc
         (if o.o_size >= 0 then string_of_int o.o_size else "?")
         (if o.o_escapes then " escapes" else ""))
    su.su_objs;
  Array.iteri
    (fun bid st ->
       match st with
       | None -> ()
       | Some st ->
         if not (Int_map.is_empty st.s_regs && Int_set.is_empty st.s_freed)
         then begin
           Format.fprintf fmt "  block %d:@." bid;
           Int_map.iter
             (fun r v ->
                Format.fprintf fmt "    r%d = %a@." r (pp_val su.su_objs) v)
             st.s_regs;
           if not (Int_set.is_empty st.s_freed) then
             Format.fprintf fmt "    freed: {%s}@."
               (String.concat ","
                  (List.map string_of_int (Int_set.elements st.s_freed)))
         end)
    su.su_block_in
