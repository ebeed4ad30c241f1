(* The instrumentation skeleton: the rewrite phases every tool applies at
   the same program points, written once over a per-tool policy.

   Every phase mints registers and sites ([fresh_reg]/[fresh_site]) in a
   fixed order: site ids key telemetry rows and coverage bitmaps, and
   HWASan's tag draws follow instrumentation order, so a change here that
   reorders minting changes results, not just code. *)

open Tir.Ir

type t = {
  check_load : string;
  check_store : string;
  produces_addr : bool;
  check_safe : bool;
  gpt_load : string option;
  global_make : string option;
  stack : (string * string) option;
  alloc_prefix : string option;
  extcall_strip : string option;
}

let checks ~load ~store ~produces_addr ~check_safe = {
  check_load = load; check_store = store; produces_addr; check_safe;
  gpt_load = None; global_make = None; stack = None; alloc_prefix = None;
  extcall_strip = None;
}

(* --- protected globals ---------------------------------------------------- *)

type globals = {
  entries : (global * int) list;
  index : (string, int) Hashtbl.t;
}

let protected_globals (md : modul) : globals =
  let entries =
    List.filter (fun g -> g.g_unsafe) md.m_globals
    |> List.mapi (fun k g -> (g, k))
  in
  let index = Hashtbl.create 16 in
  List.iter (fun (g, k) -> Hashtbl.replace index g.g_name k) entries;
  { entries; index }

(* --- (1) safe-flag downgrade ---------------------------------------------- *)

(* An access rooted at an unsafe slot or global goes through a tagged
   pointer that only a check turns back into an address, so its static
   [safe] flag no longer holds. *)
let downgrade_safe_flags (gl : globals) (f : func) : unit =
  let unsafe_slot = Array.make (List.length f.f_slots) false in
  List.iter (fun s -> unsafe_slot.(s.s_id) <- s.s_unsafe) f.f_slots;
  Array.iter
    (fun b ->
       let rooted : (int, unit) Hashtbl.t = Hashtbl.create 8 in
       let opnd_rooted = function
         | Reg r -> Hashtbl.mem rooted r
         | Glob g -> Hashtbl.mem gl.index g
         | Imm _ -> false
       in
       b.b_instrs <-
         List.map
           (fun i ->
              let i' =
                match i with
                | Iload ({ addr; safe = true; _ } as l) when opnd_rooted addr
                  -> Iload { l with safe = false }
                | Istore ({ addr; safe = true; _ } as s) when opnd_rooted addr
                  -> Istore { s with safe = false }
                | i -> i
              in
              (match i' with
               | Islot { dst; slot } when unsafe_slot.(slot) ->
                 Hashtbl.replace rooted dst ()
               | Igep { dst; base; _ } when opnd_rooted base ->
                 Hashtbl.replace rooted dst ()
               | _ ->
                 (match defs i' with
                  | Some d -> Hashtbl.remove rooted d
                  | None -> ()));
              i')
           b.b_instrs)
    f.f_blocks

(* --- (2) global references and registration ------------------------------- *)

(* Every reference to a protected global becomes a load of its tagged
   address from the runtime's table, minted just before its user. *)
let rewrite_globals (p : t) (md : modul) (gl : globals) (f : func) : unit =
  let rewrite load i =
    let prefix = ref [] in
    let fix o =
      match o with
      | Glob g ->
        (match Hashtbl.find_opt gl.index g with
         | Some k ->
           let r = fresh_reg f in
           prefix :=
             Iintrin { dst = Some r; name = load; args = [ Imm k ];
                       site = fresh_site md }
             :: !prefix;
           Reg r
         | None -> o)
      | Reg _ | Imm _ -> o
    in
    let i' = map_opnds fix i in
    List.rev (i' :: !prefix)
  in
  match p.gpt_load with
  | Some load when gl.entries <> [] -> Tir.Rewrite.map_instrs (rewrite load) f
  | _ -> ()

(* Registers each protected global at the top of [main]; with a table
   ([gpt_load]) the call also names the entry it fills. *)
let insert_global_init (p : t) (md : modul) (gl : globals) : unit =
  match p.global_make, find_func md "main" with
  | Some make, Some main ->
    let init =
      List.map
        (fun (g, k) ->
           let args = [ Glob g.g_name; Imm g.g_size ] in
           let args = if p.gpt_load = None then args else args @ [ Imm k ] in
           Iintrin { dst = None; name = make; args; site = fresh_site md })
        gl.entries
    in
    Tir.Rewrite.insert_prologue main init
  | _ -> ()

(* --- (3) unsafe stack slots ----------------------------------------------- *)

(* Each unsafe slot is made in the prologue, which yields the tagged
   pointer every slot-address instruction then reads, and released
   before every return.  [sized_release] passes the slot size to the
   release as well. *)
let protect_stack ?(sized_release = false) (p : t) (md : modul) (f : func)
  : unit =
  let unsafe = List.filter (fun s -> s.s_unsafe) f.f_slots in
  match p.stack with
  | None -> ()
  | Some _ when unsafe = [] -> ()
  | Some (make, release) ->
    let tag_reg : (int, int) Hashtbl.t = Hashtbl.create 4 in
    List.iter (fun s -> Hashtbl.replace tag_reg s.s_id (fresh_reg f)) unsafe;
    Tir.Rewrite.map_instrs
      (function
        | Islot { dst; slot } when Hashtbl.mem tag_reg slot ->
          [ Imov { dst; src = Reg (Hashtbl.find tag_reg slot) } ]
        | i -> [ i ])
      f;
    let prologue =
      List.concat_map
        (fun s ->
           let a = fresh_reg f in
           [ Islot { dst = a; slot = s.s_id };
             Iintrin { dst = Some (Hashtbl.find tag_reg s.s_id); name = make;
                       args = [ Reg a; Imm s.s_size ];
                       site = fresh_site md } ])
        unsafe
    in
    Tir.Rewrite.insert_prologue f prologue;
    Tir.Rewrite.insert_before_rets f (fun () ->
        List.map
          (fun s ->
             let tag = Reg (Hashtbl.find tag_reg s.s_id) in
             let args =
               if sized_release then [ tag; Imm s.s_size ] else [ tag ]
             in
             Iintrin { dst = None; name = release; args; site = fresh_site md })
          unsafe)

(* --- (4) allocation family ------------------------------------------------ *)

let rename_allocs (p : t) (md : modul) (f : func) : unit =
  Option.iter
    (fun prefix ->
       Tir.Rewrite.map_instrs
         (function
           | Icall { dst; callee; args } when Spec.is_alloc_family callee ->
             [ Iintrin { dst; name = prefix ^ callee; args;
                         site = fresh_site md } ]
           | i -> [ i ])
         f)
    p.alloc_prefix

(* --- (5) external user calls ---------------------------------------------- *)

(* Pointer arguments to uninstrumented user code lose their tag. *)
let strip_external_calls (p : t) (md : modul) (f : func) : unit =
  let strip_call strip = function
    | Icall { dst; callee; args } as i ->
      (match find_func md callee with
       | Some { f_external = true; f_sig_ptrs; _ } ->
         let prefix = ref [] in
         let args' =
           List.mapi
             (fun k a ->
                if List.nth_opt f_sig_ptrs k = Some true then begin
                  let r = fresh_reg f in
                  prefix :=
                    Iintrin { dst = Some r; name = strip; args = [ a ];
                              site = fresh_site md }
                    :: !prefix;
                  Reg r
                end
                else a)
             args
         in
         List.rev !prefix @ [ Icall { dst; callee; args = args' } ]
       | _ -> [ i ])
    | i -> [ i ]
  in
  Option.iter (fun strip -> Tir.Rewrite.map_instrs (strip_call strip) f)
    p.extcall_strip

(* --- (6) dereference checks ----------------------------------------------- *)

(* A check before every load/store ([check_safe]) or every one not
   proven in bounds.  When the check [produces_addr], the access uses
   its result.  [after i] is appended behind each instruction's
   expansion, minted after the check. *)
let insert_checks ?(after = fun _ -> []) (p : t) (md : modul) (f : func)
  : unit =
  let check name addr size access =
    let r = if p.produces_addr then Some (fresh_reg f) else None in
    [ Iintrin { dst = r; name; args = [ addr; Imm size ];
                site = fresh_site md };
      access (match r with Some r -> Reg r | None -> addr) ]
  in
  let expand = function
    | Iload ({ addr; size; safe; _ } as l) when p.check_safe || not safe ->
      check p.check_load addr size (fun addr -> Iload { l with addr })
    | Istore ({ addr; size; safe; _ } as s) when p.check_safe || not safe ->
      check p.check_store addr size (fun addr -> Istore { s with addr })
    | i -> [ i ]
  in
  Tir.Rewrite.map_instrs
    (fun i ->
       let checked = expand i in
       match after i with [] -> checked | tail -> checked @ tail)
    f

(* --- the phases in order -------------------------------------------------- *)

let instrument ?(per_func = fun _ -> ()) (p : t) (md : modul) : unit =
  Tir.Analysis.run md;
  let gl = protected_globals md in
  iter_funcs md (fun f ->
      if not f.f_external then begin
        if p.produces_addr then downgrade_safe_flags gl f;
        rewrite_globals p md gl f;
        protect_stack p md f;
        rename_allocs p md f;
        per_func f;
        strip_external_calls p md f;
        insert_checks p md f
      end);
  insert_global_init p md gl

(* --- the verifier's view of the same policy ------------------------------- *)

let verify_spec ?(strip_mask = -1) ?(may_hoist_stores = false) ?absint
    ?(hazards = []) (p : t) : Tir.Verify.spec =
  let allocs =
    match p.alloc_prefix with
    | Some prefix -> List.map (( ^ ) prefix) Spec.alloc_family
    | None -> []
  in
  let stack =
    match p.stack with Some (make, release) -> [ make; release ] | None -> []
  in
  {
    check_load = p.check_load;
    check_store = p.check_store;
    produces_addr = p.produces_addr;
    strip_mask;
    may_hoist_stores;
    hazard_intrinsics =
      allocs @ stack @ Option.to_list p.global_make @ hazards;
    extcall_strip = p.extcall_strip;
    absint;
  }
