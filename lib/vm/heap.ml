(* Default allocation entry points with cost accounting.  Sanitizer
   runtimes that do NOT replace the allocator (CECSan) call these from
   their own intrinsics; the machine calls them when no runtime hook is
   installed. *)

let malloc (st : State.t) size =
  if Fault.should_oom st.fault then 0  (* injected allocator OOM: NULL *)
  else begin
    let p = Alloc.malloc st.alloc size in
    (* an exhausted heap fails like an injected OOM: no cost, no record *)
    if p <> 0 then begin
      State.tick st (Cost.malloc size);
      st.heap_allocs <- st.heap_allocs + 1;
      Telemetry.record st.telem Telemetry.Alloc p size
    end;
    p
  end

let free (st : State.t) p =
  State.tick st Cost.free_base;
  st.heap_frees <- st.heap_frees + 1;
  Telemetry.record st.telem Telemetry.Free p 0;
  Alloc.free st.alloc p

let usable_size (st : State.t) p = Alloc.block_size st.alloc p
