(* The default ("libc") heap allocator.

   CECSan's compatibility claim is that it needs NO custom allocator --
   so this allocator is shared by the uninstrumented baseline run and by
   CECSan, while ASan installs its own redzone allocator instead.

   Design: segregated free lists over a bump region, 16-byte granules, a
   16-byte header in simulated memory before each payload carrying the
   block size and a magic word.  Keeping the header in simulated memory
   matters: underflows really corrupt it, invalid frees really read
   garbage, and glibc-style "invalid pointer"/"double free" aborts arise
   mechanically. *)

type t = {
  mem : Memory.t;
  mutable brk : int;
  free_lists : (int, int list ref) Hashtbl.t;  (* rounded size -> blocks *)
  mutable live : int;           (* live allocation count *)
  mutable total_allocated : int;
  (* telemetry gauges, published post-run by the driver *)
  mutable peak_live : int;      (* high-water mark of [live] *)
  mutable recycles : int;       (* allocations served from a free list *)
}

let header_size = 16
let magic_alloc = 0x51AB51AB51AB
let magic_free = 0x0F2EE0F2EE0F

let create mem = {
  mem;
  brk = Layout46.heap_base;
  free_lists = Hashtbl.create 64;
  live = 0;
  total_allocated = 0;
  peak_live = 0;
  recycles = 0;
}

let round_size n =
  let n = max n 16 in
  if n <= 4096 then (n + 15) land lnot 15
  else (n + 4095) land lnot 4095

(* Allocates [size] bytes; returns the payload address, or 0 (NULL, as C
   malloc does) for a negative size or when the simulated heap is
   exhausted, leaving the allocator untouched. *)
let malloc t size =
  let rsize = round_size size in
  let payload =
    if size < 0 then 0
    else
      match Hashtbl.find_opt t.free_lists rsize with
      | Some ({ contents = p :: rest } as l) ->
        l := rest;
        t.recycles <- t.recycles + 1;
        p
      | Some { contents = [] } | None ->
        if t.brk + header_size + rsize >= Layout46.heap_limit then 0
        else begin
          t.brk <- t.brk + header_size + rsize;
          t.brk - rsize
        end
  in
  if payload <> 0 then begin
    Memory.store t.mem (payload - 16) 8 rsize;
    Memory.store t.mem (payload - 8) 8 magic_alloc;
    t.live <- t.live + 1;
    if t.live > t.peak_live then t.peak_live <- t.live;
    t.total_allocated <- t.total_allocated + rsize
  end;
  payload

(* Size of a live block, or None if the header looks corrupt. *)
let block_size t payload =
  if payload < Layout46.heap_base + header_size || payload >= t.brk then None
  else if Memory.load t.mem (payload - 8) 8 <> magic_alloc then None
  else Some (Memory.load t.mem (payload - 16) 8)

let free t payload =
  if payload = 0 then ()  (* free(NULL) is a no-op *)
  else begin
    if payload < Layout46.heap_base + header_size || payload >= t.brk then
      Report.trap ~addr:payload Report.Heap_corruption
        ~detail:"free(): invalid pointer";
    let magic = Memory.load t.mem (payload - 8) 8 in
    if magic = magic_free then
      Report.trap ~addr:payload Report.Heap_corruption
        ~detail:"free(): double free detected";
    if magic <> magic_alloc then
      Report.trap ~addr:payload Report.Heap_corruption
        ~detail:"free(): invalid pointer (corrupt header)";
    let rsize = Memory.load t.mem (payload - 16) 8 in
    Memory.store t.mem (payload - 8) 8 magic_free;
    let l =
      match Hashtbl.find_opt t.free_lists rsize with
      | Some l -> l
      | None ->
        let l = ref [] in
        Hashtbl.replace t.free_lists rsize l;
        l
    in
    l := payload :: !l;
    t.live <- t.live - 1
  end
