(* CECSan's instantiation of the shared check optimizer (section II.F).
   Unlike redzone-based tools, CECSan can hoist checks on stores as well
   as loads, because a store cannot corrupt the disjoint metadata
   table. *)

(* Abstract-interpretation model of the CECSan intrinsics for the
   certified-elision pass (DESIGN.md section 16).  Eliding a fused check
   whose pointer provably stays inside a live, non-escaping object is
   exact-behavior-preserving even under OOM: a failed allocation returns
   the null pointer, whose tag indexes metadata entry 0 = (0, va_limit),
   so the check would have passed and the raw access faults identically
   with or without it. *)
let model : Tir.Absint.model = {
  Tir.Absint.am_checks =
    [ ("__cecsan_check_load", Some "__cecsan_check_load_spatial");
      ("__cecsan_check_store", Some "__cecsan_check_store_spatial");
      ("__cecsan_check_load_spatial", None);
      ("__cecsan_check_store_spatial", None) ];
  am_check_alias = true;   (* check dst = stripped alias of the pointer *)
  am_allocs =
    [ ("__cecsan_malloc", Tir.Absint.Sarg 0);
      ("__cecsan_calloc", Tir.Absint.Sprod (0, 1));
      ("__cecsan_realloc", Tir.Absint.Sarg 1) ];
  am_frees = [ "__cecsan_free"; "__cecsan_realloc"; "__cecsan_stack_release" ];
  am_aliases = [ "__cecsan_stack_make"; "__cecsan_extcall_strip" ];
  am_opaque = [ "__cecsan_sub_make"; "__cecsan_sub_release" ];
  am_call_allocs = [];
  am_call_frees = [];
  am_gpt_load = Some "__cecsan_gpt_load";
  am_global_make = Some "__cecsan_global_make";
  am_strip_mask = Some Vm.Layout46.addr_mask;
  am_slots = true;
}

(* CECSan's intrinsic names, shared by the instrumenter and the
   verifier spec below; [Instrument] adjusts the config-dependent
   choices. *)
let policy : Sanitizer.Skeleton.t = {
  check_load = "__cecsan_check_load";
  check_store = "__cecsan_check_store";
  produces_addr = true;
  check_safe = false;
  gpt_load = Some "__cecsan_gpt_load";
  global_make = Some "__cecsan_global_make";
  stack = Some ("__cecsan_stack_make", "__cecsan_stack_release");
  alloc_prefix = Some "__cecsan_";
  extcall_strip = Some "__cecsan_extcall_strip";
}

let spec : Sanitizer.Checkopt.spec =
  Sanitizer.Skeleton.verify_spec policy ~strip_mask:Vm.Layout46.addr_mask
    ~may_hoist_stores:true ~absint:model
    ~hazards:[ "__cecsan_sub_release"; "__cecsan_sub_make" ]

(* The purity closure both optimizer passes and the verifier share:
   callees that provably cannot touch sanitizer metadata. *)
let purity (md : Tir.Ir.modul) : string -> bool =
  let is_hazard n = List.mem n spec.hazard_intrinsics in
  Tir.Analysis.pure_callees md ~is_hazard

let redundant ?(pure = fun _ -> false) (_md : Tir.Ir.modul)
    (f : Tir.Ir.func) : unit =
  ignore (Sanitizer.Checkopt.redundant spec ~pure f)

let loops ?(pure = fun _ -> false) (md : Tir.Ir.modul) (config : Config.t)
    (f : Tir.Ir.func) : unit =
  ignore
    (Sanitizer.Checkopt.loops spec ~check_step:config.Config.check_step ~pure
       md f)

(* Whole-module certified elision; must run after the per-function
   passes above (they key on the original check names). *)
let absint (md : Tir.Ir.modul) : Sanitizer.Checkopt.absint_stats =
  Sanitizer.Checkopt.absint md spec
