(* CECSan compile-time instrumentation (run at "LTO time", i.e. over the
   fully linked module so external functions are known).

   The shared skeleton (Sanitizer.Skeleton) runs the phases, in order:
     1. downgrade [safe] flags of accesses rooted at unsafe objects
        (their addresses will be tagged, so they must go through checks);
     2. GPT rewrite: accesses to unsafe globals load a tagged pointer
        from the Global Pointer Table (section II.C.3);
     3. stack protection: metadata for unsafe stack slots in prologues,
        released in epilogues;
     4. allocation-family rewrite: malloc/free/calloc/realloc become
        CECSan intrinsics that tag/validate (section II.B);
     5. sub-object narrowing (section II.D) -- CECSan's own;
     6. tag stripping at calls to external, uninstrumented user functions
        (section II.E; libc builtins are handled by interceptors instead);
     7. dereference check insertion (Algorithm 1 call sites);
     8. optimizations (section II.F) -- in Opt.
*)

open Tir.Ir

(* A branch on a protected global's address is always true. *)
let fold_global_branches (md : modul) (f : func) : unit =
  Array.iter
    (fun b ->
       match b.b_term with
       | Tcbr (Glob g, x, y)
         when List.exists (fun gl -> gl.g_unsafe && gl.g_name = g)
             md.m_globals ->
         b.b_term <- Tcbr (Imm 1, x, y)
       | _ -> ())
    f.f_blocks

(* Check/metadata insertion only; [optimize] is the separate section
   II.F phase so the driver can verify coverage on both sides of it. *)
let instrument ?(config = Config.default) (md : modul) : unit =
  let on flag v = if flag then v else None in
  let policy =
    { Opt.policy with
      check_safe = not config.Config.opt_typeinfo;
      gpt_load = on config.Config.protect_globals Opt.policy.gpt_load;
      global_make = on config.Config.protect_globals Opt.policy.global_make;
      stack = on config.Config.protect_stack Opt.policy.stack }
  in
  Sanitizer.Skeleton.instrument policy md ~per_func:(fun f ->
      if config.Config.protect_globals then fold_global_branches md f;
      if config.Config.subobject then ignore (Subobject.narrow md f))

let optimize ?(config = Config.default) (md : modul) : unit =
  let pure = Opt.purity md in
  if config.Config.opt_redundant then
    iter_funcs md (fun f -> if not f.f_external then Opt.redundant ~pure md f);
  if config.Config.opt_loop then
    iter_funcs md (fun f ->
        if not f.f_external then Opt.loops ~pure md config f);
  (* certified elision last: the passes above key on the original check
     names, and every rewrite here leaves a replayable witness *)
  if config.Config.opt_absint then ignore (Opt.absint md)

let run ?(config = Config.default) (md : modul) : unit =
  instrument ~config md;
  optimize ~config md
