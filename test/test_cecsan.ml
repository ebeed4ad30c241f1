(* CECSan end-to-end tests: every bug class of Table I detected, clean
   programs unaffected, Figure 3 reproduced, the metadata free list
   (Figure 2) verified by property tests, optimizations preserving both
   semantics and detection. *)

let cecsan = Cecsan.sanitizer ()

let run ?lines ?packets ?externs ?(san = cecsan) src =
  Sanitizer.Driver.run san ?lines ?packets ?externs src

let detects ?san ?lines ?packets ?externs name src pred =
  Alcotest.test_case name `Quick (fun () ->
      let r = run ?san ?lines ?packets ?externs src in
      match r.Sanitizer.Driver.outcome with
      | Vm.Machine.Bug b when pred b.Vm.Report.r_kind -> ()
      | o ->
        Alcotest.failf "expected a CECSan report, got %a"
          Vm.Machine.pp_outcome o)

let clean ?san ?lines ?packets ?externs name src =
  Alcotest.test_case name `Quick (fun () ->
      let r = run ?san ?lines ?packets ?externs src in
      match r.Sanitizer.Driver.outcome with
      | Vm.Machine.Exit _ -> ()
      | o ->
        Alcotest.failf "expected a clean exit, got %a" Vm.Machine.pp_outcome o)

let same_result ?(san = cecsan) name src =
  Alcotest.test_case name `Quick (fun () ->
      let r0 = run ~san:Sanitizer.Spec.none src in
      let r1 = run ~san src in
      match r0.Sanitizer.Driver.outcome, r1.Sanitizer.Driver.outcome with
      | Vm.Machine.Exit a, Vm.Machine.Exit b ->
        Alcotest.(check int) "same exit code" a b;
        Alcotest.(check string) "same output" r0.Sanitizer.Driver.output
          r1.Sanitizer.Driver.output
      | a, b ->
        Alcotest.failf "runs diverged: %a vs %a" Vm.Machine.pp_outcome a
          Vm.Machine.pp_outcome b)

let is_oob = function
  | Vm.Report.Oob_read | Oob_write -> true
  | _ -> false

let is_uaf = function Vm.Report.Use_after_free -> true | _ -> false
let is_double_free = function Vm.Report.Double_free -> true | _ -> false
let is_invalid_free = function Vm.Report.Invalid_free -> true | _ -> false

(* --- heap spatial ---------------------------------------------------------- *)

let heap_tests =
  [
    detects "heap overflow write"
      "int main() { char *p = (char*)malloc(16); p[16] = 'x'; free(p); \
       return 0; }" is_oob;
    detects "heap overflow read"
      "int main() { char *p = (char*)malloc(16); char c = p[20]; free(p); \
       return c; }" is_oob;
    detects "heap underflow write"
      "int main() { char *p = (char*)malloc(16); p[-1] = 'x'; free(p); \
       return 0; }" is_oob;
    detects "heap underflow read"
      "int main() { char *p = (char*)malloc(16); char c = p[-8]; free(p); \
       return c; }" is_oob;
    detects "off-by-one loop write"
      "int main() { int *a = (int*)malloc(10 * sizeof(int)); \
       for (int i = 0; i <= 10; i++) a[i] = i; free(a); return 0; }" is_oob;
    detects "far out-of-bounds (skips any redzone)"
      "int main() { char *a = (char*)malloc(32); char *b = (char*)malloc(32); \
       a[64] = 'x'; free(a); free(b); return 0; }" is_oob;
    detects "memcpy overflow"
      "int main() { char *dst = (char*)malloc(8); char src[32]; \
       memset(src, 'a', 32); memcpy(dst, src, 32); free(dst); return 0; }"
      is_oob;
    detects "strcpy overflow"
      "int main() { char *dst = (char*)malloc(4); \
       strcpy(dst, \"much too long\"); free(dst); return 0; }" is_oob;
    detects "wcsncpy overflow (wide chars)"
      "int main() { wchar_t *dst = (wchar_t*)malloc(4 * sizeof(wchar_t)); \
       wchar_t src[16]; wcsncpy(src, L\"wwwwwwwwwwwwwww\", 16); \
       wcsncpy(dst, src, 16); free(dst); return 0; }" is_oob;
    detects "partial word straddles bound"
      "int main() { char *p = (char*)malloc(10); long *q = (long*)(p + 8); \
       long v = *q; free(p); return (int)v; }" is_oob;
    detects "overflow via pointer arithmetic chain"
      "int main() { int *p = (int*)malloc(8 * sizeof(int)); int *q = p + 4; \
       int *r = q + 6; *r = 1; free(p); return 0; }" is_oob;
    clean "in-bounds heap use"
      "int main() { char *p = (char*)malloc(16); for (int i = 0; i < 16; \
       i++) p[i] = (char)i; int s = p[15]; free(p); return s; }";
    clean "exact-fit memcpy"
      "int main() { char *d = (char*)malloc(8); char s[8]; memset(s, 1, 8); \
       memcpy(d, s, 8); free(d); return 0; }";
    clean "last byte access"
      "int main() { char *p = (char*)malloc(32); p[31] = 'z'; int v = p[31]; \
       free(p); return v; }";
  ]

(* --- temporal ---------------------------------------------------------------- *)

let temporal_tests =
  [
    detects "use after free (read)"
      "int main() { int *p = (int*)malloc(4 * sizeof(int)); p[0] = 7; \
       free(p); return p[0]; }" is_uaf;
    detects "use after free (write)"
      "int main() { char *p = (char*)malloc(8); free(p); p[0] = 'x'; \
       return 0; }" is_uaf;
    detects "UAF even after the slot is reused"
      (* the freed entry is recycled by the new allocation; the stale
         pointer's bounds no longer match, so the check still fails *)
      "int main() { char *p = (char*)malloc(24); free(p); \
       char *q = (char*)malloc(48); q[0] = 'q'; p[0] = 'x'; free(q); \
       return 0; }" (fun k -> is_uaf k || is_oob k);
    detects "double free"
      "int main() { char *p = (char*)malloc(8); free(p); free(p); \
       return 0; }" is_double_free;
    detects "invalid free (interior pointer)"
      "int main() { char *p = (char*)malloc(8); free(p + 2); return 0; }"
      is_invalid_free;
    detects "invalid free (stack pointer)"
      "int main() { char buf[8]; char *p = buf; free(p); return 0; }"
      is_invalid_free;
    detects "UAF through memcpy"
      "int main() { char *p = (char*)malloc(16); char dst[16]; free(p); \
       memcpy(dst, p, 16); return dst[0]; }" is_uaf;
    detects "dangling pointer passed to external code"
      "extern void legacy_sink(char *p);\n\
       int main() { char *p = (char*)malloc(8); free(p); legacy_sink(p); \
       return 0; }" is_uaf;
    detects "realloc of dangling pointer"
      "int main() { char *p = (char*)malloc(8); free(p); \
       p = (char*)realloc(p, 16); return 0; }" is_double_free;
    clean "free(NULL) is fine"
      "int main() { char *p = NULL; free(p); return 0; }";
    Alcotest.test_case
      "KNOWN LIMIT: same-size immediate reuse evades detection" `Quick
      (fun () ->
         (* The design's documented blind spot (paper section II.C.1
            argues this is "unlikely"): free + malloc of the SAME size
            reuses both the address (allocator LIFO) and the metadata
            entry (table LIFO), recreating bit-identical bounds.  The
            stale pointer then passes Algorithm 1.  Juliet contains no
            such pattern; we pin the behavior so a change is noticed. *)
         let r =
           run
             "int main() { char *stale = (char*)malloc(32); free(stale); \
              char *fresh = (char*)malloc(32); fresh[0] = 'f'; \
              stale[1] = 'x'; free(fresh); return 0; }"
         in
         match r.Sanitizer.Driver.outcome with
         | Vm.Machine.Exit _ -> ()
         | o ->
           Alcotest.failf
             "expected the documented false negative, got %a"
             Vm.Machine.pp_outcome o);
    clean "malloc/free stress with reuse"
      "int main() { for (int i = 0; i < 200; i++) { \
       char *p = (char*)malloc(16 + (i % 5) * 16); p[0] = (char)i; free(p); \
       } return 0; }";
  ]

(* --- stack and globals ------------------------------------------------------- *)

let stack_global_tests =
  [
    detects "stack buffer overflow (escaped array)"
      "void fill(char *p, int n) { for (int i = 0; i <= n; i++) p[i] = 'a'; }\n\
       int main() { char buf[16]; fill(buf, 16); return 0; }" is_oob;
    detects "stack overflow via strcpy"
      "int main() { char buf[8]; char *p = buf; \
       strcpy(p, \"definitely too long for this\"); return 0; }" is_oob;
    detects "stack underread"
      "int sum(int *a) { return a[-2]; }\n\
       int main() { int arr[4] = {1, 2, 3, 4}; return sum(arr); }" is_oob;
    detects "global buffer overflow"
      "char gbuf[12];\n\
       int main() { for (int i = 0; i < 20; i++) gbuf[i] = 'g'; return 0; }"
      is_oob;
    detects "global overflow via libc"
      "char gsmall[6];\n\
       int main() { strcpy(gsmall, \"overflowing\"); return 0; }" is_oob;
    detects "global read past end"
      "int gtab[4] = {1, 2, 3, 4};\n\
       int main() { int s = 0; for (int i = 0; i < 8; i++) s += gtab[i]; \
       return s; }" is_oob;
    detects "string literal overread"
      "int main() { char *s = \"hi\"; int sum = 0; \
       for (int i = 0; i < 10; i++) sum += s[i]; return sum; }" is_oob;
    clean "stack array used correctly"
      "void fill(char *p, int n) { for (int i = 0; i < n; i++) p[i] = 'a'; }\n\
       int main() { char buf[16]; fill(buf, 16); return buf[15]; }";
    clean "globals used correctly"
      "int gtab[8];\n\
       int main() { for (int i = 0; i < 8; i++) gtab[i] = i; \
       return gtab[7]; }";
    clean "recursion with protected frames"
      "int depth(int n, char *prev) { char buf[8]; buf[0] = (char)n; \
       if (n == 0) return prev[0]; return depth(n - 1, buf); }\n\
       int main() { char b0[8]; b0[0] = 1; return depth(40, b0); }";
  ]

(* --- sub-object (Figure 3) --------------------------------------------------- *)

let fig3_source = {|
struct CharVoid {
  char charFirst[16];
  void *voidSecond;
  void *voidThird;
};

int main() {
  struct CharVoid structCharVoid;
  structCharVoid.voidSecond = (void*)0x1122;
  /* sizeof(structCharVoid) = 32 > 16: overflows charFirst into
     voidSecond -- a sub-object overflow inside one allocation */
  char src[32];
  memset(src, 'A', 32);
  memcpy(structCharVoid.charFirst, src, sizeof(structCharVoid));
  return 0;
}
|}

let subobject_tests =
  [
    detects "Figure 3: memcpy sub-object overflow" fig3_source is_oob;
    detects "array field index overflow inside struct"
      "struct Packet { char header[8]; int crc; };\n\
       int main() { struct Packet p; p.crc = 99; \
       for (int i = 0; i < 12; i++) p.header[i] = 'h'; return p.crc; }"
      is_oob;
    detects "heap struct sub-object overflow"
      "struct Rec { char name[8]; long id; };\n\
       int main() { struct Rec *r = (struct Rec*)malloc(sizeof(struct Rec)); \
       strcpy(r->name, \"excessively-long\"); free(r); return 0; }" is_oob;
    detects "nested struct sub-object overflow"
      "struct In { char small[4]; int guard; };\n\
       struct Out { struct In in; int tail; };\n\
       int main() { struct Out o; o.tail = 1; \
       memset(o.in.small, 'x', 8); return o.tail; }" is_oob;
    clean "exact-fit field memcpy"
      "struct CharVoid { char charFirst[16]; void *voidSecond; };\n\
       int main() { struct CharVoid s; char src[16]; memset(src, 'B', 16); \
       memcpy(s.charFirst, src, sizeof(s.charFirst)); return 0; }";
    clean "in-bounds field loop"
      "struct Packet { char header[8]; int crc; };\n\
       int main() { struct Packet p; for (int i = 0; i < 8; i++) \
       p.header[i] = 'h'; p.crc = 1; return p.crc; }";
    Alcotest.test_case "object-granularity config misses Figure 3" `Quick
      (fun () ->
         (* ablation: with sub-object narrowing off, the same program is
            NOT caught -- the overflow stays inside the allocation *)
         let san =
           Cecsan.sanitizer ~config:Cecsan.Config.no_subobject ()
         in
         let r = run ~san fig3_source in
         match r.Sanitizer.Driver.outcome with
         | Vm.Machine.Exit _ -> ()
         | o ->
           Alcotest.failf "expected a miss without sub-object, got %a"
             Vm.Machine.pp_outcome o);
  ]

(* --- compatibility with uninstrumented code ---------------------------------- *)

let compat_tests =
  [
    clean "tagged pointers stripped before external calls"
      ~externs:
        [ ("external_observe",
           fun st args ->
             (* uninstrumented code dereferences the raw pointer: a tag
                would fault here *)
             Vm.State.check_mapped st args.(0) 1;
             Vm.Memory.load_byte st.Vm.State.mem args.(0)) ]
      "extern void external_observe(char *p);\n\
       int main() { char *p = (char*)malloc(8); p[0] = 'k'; \
       external_observe(p); free(p); return 0; }";
    clean "foreign pointers adopt entry 0"
      ~externs:
        [ ("external_make", fun st args -> Vm.Heap.malloc st args.(0)) ]
      "extern char *external_make(int n);\n\
       int main() { char *p = external_make(8); p[0] = 'x'; \
       return p[0] == 'x'; }";
    clean "fgets retags its buffer argument"
      ~lines:[ "hello" ]
      "int main() { char buf[32]; char *r = fgets(buf, 32, 0); \
       if (r == NULL) return 1; return r[0] == 'h'; }";
    clean "strchr result keeps the object tag"
      "int main() { char buf[16]; strcpy(buf, \"find-me\"); \
       char *p = strchr(buf, 'm'); if (p == NULL) return 1; *p = 'M'; \
       return buf[5] == 'M'; }";
    detects "strchr result still bounds-checked"
      "int main() { char buf[8] = \"abc\"; char *p = strchr(buf, 'b'); \
       p[10] = 'x'; return 0; }" is_oob;
  ]

(* --- semantics preservation --------------------------------------------------- *)

let preservation_tests =
  [
    same_result "string workload"
      "int main() { char buf[64]; buf[0] = 0; \
       for (int i = 0; i < 6; i++) strcat(buf, \"ab\"); \
       printf(\"%s:%d\", buf, (int)strlen(buf)); return (int)strlen(buf); }";
    same_result "heap workload"
      "int main() { int total = 0; for (int round = 0; round < 20; round++) \
       { int *a = (int*)malloc(32 * sizeof(int)); for (int i = 0; i < 32; \
       i++) a[i] = i * round; total += a[31]; free(a); } \
       return total & 255; }";
    same_result "struct workload"
      "struct V { int x; int y; };\n\
       int dot(struct V *a, struct V *b) { return a->x * b->x + a->y * \
       b->y; }\n\
       int main() { struct V u; struct V v; u.x = 3; u.y = 4; v.x = 1; \
       v.y = 2; return dot(&u, &v); }";
    same_result "sorting workload"
      "void sort(int *a, int n) { for (int i = 0; i < n; i++) \
       for (int j = 0; j + 1 < n - i; j++) if (a[j] > a[j+1]) { \
       int t = a[j]; a[j] = a[j+1]; a[j+1] = t; } }\n\
       int main() { int a[12] = {5, 2, 9, 1, 7, 3, 8, 4, 6, 0, 11, 10}; \
       sort(a, 12); return a[0] * 100 + a[11]; }";
    same_result "linked list workload"
      "struct N { int v; struct N *next; };\n\
       int main() { struct N *head = NULL; for (int i = 0; i < 30; i++) { \
       struct N *n = (struct N*)malloc(sizeof(struct N)); n->v = i; \
       n->next = head; head = n; } int s = 0; struct N *p = head; \
       while (p) { s += p->v; struct N *d = p; p = p->next; free(d); } \
       return s & 255; }";
    same_result "global state workload"
      "int hist[16];\n\
       int main() { for (int i = 0; i < 100; i++) hist[i % 16]++; \
       int best = 0; for (int i = 0; i < 16; i++) if (hist[i] > hist[best]) \
       best = i; return hist[best]; }";
  ]

(* --- optimizations ------------------------------------------------------------- *)

let opt_src_loop =
  "int main() { int a[64]; int s = 0; \
   for (int i = 0; i < 64; i++) a[i] = i; \
   for (int i = 0; i < 64; i++) s += a[i]; \
   int *p = (int*)malloc(64 * sizeof(int)); \
   for (int i = 0; i < 64; i++) p[i] = a[i]; \
   for (int i = 0; i < 64; i++) s += p[i]; \
   free(p); return s & 255; }"

let opt_tests =
  [
    Alcotest.test_case "optimizations reduce cycles" `Quick (fun () ->
        let full = run opt_src_loop in
        let slow =
          run ~san:(Cecsan.sanitizer ~config:Cecsan.Config.no_opts ())
            opt_src_loop
        in
        (match full.Sanitizer.Driver.outcome, slow.Sanitizer.Driver.outcome
         with
         | Vm.Machine.Exit a, Vm.Machine.Exit b ->
           Alcotest.(check int) "same result" a b
         | _ -> Alcotest.fail "runs failed");
        Alcotest.(check bool) "optimized is faster" true
          (full.Sanitizer.Driver.cycles < slow.Sanitizer.Driver.cycles));
    Alcotest.test_case "optimized still catches loop overflow" `Quick
      (fun () ->
         let src =
           "int main() { int *p = (int*)malloc(32 * sizeof(int)); \
            for (int i = 0; i < 40; i++) p[i] = i; free(p); return 0; }"
         in
         let r = run src in
         match r.Sanitizer.Driver.outcome with
         | Vm.Machine.Bug _ -> ()
         | o -> Alcotest.failf "missed: %a" Vm.Machine.pp_outcome o);
    Alcotest.test_case "optimized catches dynamic-bound loop overflow" `Quick
      (fun () ->
         let src =
           "int over(int n) { int *p = (int*)malloc(16 * sizeof(int)); \
            int s = 0; for (int i = 0; i < n; i++) { p[i] = i; s += p[i]; } \
            free(p); return s; }\n\
            int main() { return over(atoi(\"64\")); }"
         in
         let r = run src in
         match r.Sanitizer.Driver.outcome with
         | Vm.Machine.Bug _ -> ()
         | o -> Alcotest.failf "missed: %a" Vm.Machine.pp_outcome o);
    Alcotest.test_case "endpoint grouping pays off at run time" `Quick
      (fun () ->
         (* static-bound loops collapse to two endpoint checks; the run
            under full optimization must execute strictly fewer cycles
            than with the loop optimization disabled *)
         let noloop =
           run
             ~san:
               (Cecsan.sanitizer
                  ~config:
                    { Cecsan.Config.default with
                      Cecsan.Config.opt_loop = false }
                  ())
             opt_src_loop
         in
         let full = run opt_src_loop in
         (match full.Sanitizer.Driver.outcome, noloop.Sanitizer.Driver.outcome
          with
          | Vm.Machine.Exit a, Vm.Machine.Exit b ->
            Alcotest.(check int) "same result" a b
          | _ -> Alcotest.fail "runs failed");
         Alcotest.(check bool) "loop opt is faster" true
           (full.Sanitizer.Driver.cycles < noloop.Sanitizer.Driver.cycles));
  ]

(* --- metadata table properties (Figure 2) -------------------------------------- *)

let table_tests =
  let mk () =
    let st = Vm.State.create () in
    Cecsan.Meta_table.create st
  in
  [
    Alcotest.test_case "entry 0 is the catch-all" `Quick (fun () ->
        let t = mk () in
        Alcotest.(check int) "low" 0 (Cecsan.Meta_table.low t 0);
        Alcotest.(check int) "high" Vm.Layout46.va_limit
          (Cecsan.Meta_table.high t 0));
    Alcotest.test_case "alloc embeds the index" `Quick (fun () ->
        let t = mk () in
        let p = Cecsan.Meta_table.alloc t ~base:0x2000_0000 ~size:64 in
        Alcotest.(check int) "tag" 1 (Vm.Layout46.tag_of p);
        Alcotest.(check int) "raw" 0x2000_0000 (Vm.Layout46.strip p);
        Alcotest.(check int) "low" 0x2000_0000 (Cecsan.Meta_table.low t 1);
        Alcotest.(check int) "high" (0x2000_0000 + 64)
          (Cecsan.Meta_table.high t 1));
    Alcotest.test_case "release poisons the entry" `Quick (fun () ->
        let t = mk () in
        let p = Cecsan.Meta_table.alloc t ~base:0x2000_0000 ~size:64 in
        Cecsan.Meta_table.release t (Vm.Layout46.tag_of p);
        Alcotest.(check int) "low is INVALID" Cecsan.Meta_table.invalid_low
          (Cecsan.Meta_table.low t 1);
        Alcotest.(check int) "high is 0" 0 (Cecsan.Meta_table.high t 1));
    Alcotest.test_case "freed entries are reused LIFO" `Quick (fun () ->
        let t = mk () in
        let a = Cecsan.Meta_table.alloc t ~base:0x1000 ~size:8 in
        let b = Cecsan.Meta_table.alloc t ~base:0x2000 ~size:8 in
        let _c = Cecsan.Meta_table.alloc t ~base:0x3000 ~size:8 in
        Cecsan.Meta_table.release t (Vm.Layout46.tag_of b);
        Cecsan.Meta_table.release t (Vm.Layout46.tag_of a);
        let d = Cecsan.Meta_table.alloc t ~base:0x4000 ~size:8 in
        let e = Cecsan.Meta_table.alloc t ~base:0x5000 ~size:8 in
        Alcotest.(check int) "d reuses a's slot" (Vm.Layout46.tag_of a)
          (Vm.Layout46.tag_of d);
        Alcotest.(check int) "e reuses b's slot" (Vm.Layout46.tag_of b)
          (Vm.Layout46.tag_of e));
    Alcotest.test_case "interleaved alloc/release keeps LIFO order" `Quick
      (fun () ->
        let t = mk () in
        let idx p = Vm.Layout46.tag_of p in
        let a = idx (Cecsan.Meta_table.alloc t ~base:0x1000 ~size:8) in
        let b = idx (Cecsan.Meta_table.alloc t ~base:0x2000 ~size:8) in
        let c = idx (Cecsan.Meta_table.alloc t ~base:0x3000 ~size:8) in
        Cecsan.Meta_table.release t a;
        (* a's slot is the top of the free list: the very next alloc
           takes it, and the frontier is restored behind it *)
        let d = idx (Cecsan.Meta_table.alloc t ~base:0x4000 ~size:8) in
        Alcotest.(check int) "d reuses a's slot" a d;
        Cecsan.Meta_table.release t c;
        Cecsan.Meta_table.release t b;
        let e = idx (Cecsan.Meta_table.alloc t ~base:0x5000 ~size:8) in
        let f = idx (Cecsan.Meta_table.alloc t ~base:0x6000 ~size:8) in
        let g = idx (Cecsan.Meta_table.alloc t ~base:0x7000 ~size:8) in
        Alcotest.(check int) "e reuses b's slot (released last)" b e;
        Alcotest.(check int) "f reuses c's slot" c f;
        Alcotest.(check int) "g advances the frontier" 4 g);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"free list never hands out a live entry"
         ~count:200
         QCheck.(list (int_bound 2))
         (fun ops ->
            let t = mk () in
            let live = Hashtbl.create 16 in
            let stack = ref [] in
            List.iteri
              (fun k op ->
                 match op with
                 | 0 | 1 ->
                   let p =
                     Cecsan.Meta_table.alloc t ~base:(0x1000 * (k + 1))
                       ~size:16
                   in
                   let idx = Vm.Layout46.tag_of p in
                   if idx <> 0 then begin
                     if Hashtbl.mem live idx then
                       QCheck.Test.fail_report "live entry reissued";
                     Hashtbl.replace live idx ();
                     stack := idx :: !stack
                   end
                 | _ ->
                   (match !stack with
                    | idx :: rest ->
                      stack := rest;
                      Hashtbl.remove live idx;
                      Cecsan.Meta_table.release t idx
                    | [] -> ()))
              ops;
            true));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make
         ~name:"alloc/release keeps live count consistent" ~count:100
         QCheck.(small_list small_nat)
         (fun sizes ->
            let t = mk () in
            let idxs =
              List.mapi
                (fun k s ->
                   Vm.Layout46.tag_of
                     (Cecsan.Meta_table.alloc t ~base:(0x100 * (k + 1))
                        ~size:(s + 1)))
                sizes
            in
            List.iter (Cecsan.Meta_table.release t) idxs;
            t.Cecsan.Meta_table.live = 0));
  ]

(* --- the table's page path and the array-backed GPT ------------------------- *)

(* Entry 170 straddles table pages: its low and high words end table
   page 0 (offsets 4080 and 4088) and its next_id opens page 1. *)
let straddler = 170

let entry_word i field =
  Vm.Layout46.meta_base + (i * Cecsan.Meta_table.entry_bytes) + (8 * field)

let page_path_tests =
  let open Cecsan in
  [
    Alcotest.test_case "checks leave the program's last-page cache alone"
      `Quick (fun () ->
        let st = Vm.State.create () in
        let mem = st.Vm.State.mem in
        let rt, _ = Runtime.create () in
        let p = ref 0 in
        for _ = 1 to straddler do p := Runtime.cecsan_malloc rt st 16 done;
        Alcotest.(check int) "tag" straddler (Vm.Layout46.tag_of !p);
        let raw = Vm.Layout46.strip !p in
        ignore (Vm.Memory.load mem raw 8 : int);
        let pn = mem.Vm.Memory.last_pn in
        Alcotest.(check int) "heap page cached" (Vm.Layout46.page_of raw) pn;
        let r =
          Runtime.check_deref rt st ~write:false ~size:8 ~site:(-1)
            ~cost:Costs.check !p
        in
        Alcotest.(check int) "stripped" raw r;
        Alcotest.(check int) "last_pn unchanged" pn mem.Vm.Memory.last_pn);
    Alcotest.test_case "entry words and residency match Memory.load"
      `Quick (fun () ->
        let st = Vm.State.create () in
        let mem = st.Vm.State.mem in
        let t = Meta_table.create st in
        let base k = Vm.Layout46.heap_base + (k * 32) in
        for k = 1 to straddler do
          ignore (Meta_table.alloc t ~base:(base k) ~size:16 : int)
        done;
        (* releasing 100 then 170 leaves 170 a negative next_id *)
        Meta_table.release t 100;
        Meta_table.release t straddler;
        let load a = Vm.Memory.load mem a 8 in
        let page a = Vm.Layout46.page_of (a - Vm.Layout46.meta_base) in
        Alcotest.(check (list int)) "table pages of low/high/next_id"
          [ 0; 0; 1 ]
          (List.map (fun f -> page (entry_word straddler f)) [ 0; 1; 2 ]);
        Alcotest.(check int) "low" (load (entry_word straddler 0))
          (Meta_table.low t straddler);
        Alcotest.(check int) "high" (load (entry_word straddler 1))
          (Meta_table.high t straddler);
        Alcotest.(check int) "next_id" (load (entry_word straddler 2))
          (Meta_table.next_id t straddler);
        Alcotest.(check int) "next_id is negative" (100 - straddler - 1)
          (Meta_table.next_id t straddler);
        (* a write leaves exactly the bytes Memory.store leaves, byte 7
           included, for words whose bits 56..62 are set *)
        let scratch = Vm.Layout46.heap_base in
        List.iter
          (fun v ->
             Meta_table.set_next_id t straddler v;
             Vm.Memory.store mem scratch 8 v;
             Alcotest.(check string) (Printf.sprintf "bytes of %d" v)
               (Vm.Memory.read_len mem scratch 8)
               (Vm.Memory.read_len mem (entry_word straddler 2) 8);
             Alcotest.(check int) "reads back" (load scratch)
               (Meta_table.next_id t straddler))
          [ -1; min_int; max_int; 1 lsl 61; -71 ];
        (* the same words written through Memory.store alone touch the
           same pages: table pages 0 and 1, plus the scratch word's *)
        let st' = Vm.State.create () in
        let mem' = st'.Vm.State.mem in
        for i = 0 to straddler do
          for f = 0 to 2 do Vm.Memory.store mem' (entry_word i f) 8 0 done
        done;
        Vm.Memory.store mem' scratch 8 0;
        Alcotest.(check int) "resident_pages" mem'.Vm.Memory.resident_pages
          mem.Vm.Memory.resident_pages;
        Alcotest.(check int) "sanitizer_pages"
          mem'.Vm.Memory.sanitizer_pages mem.Vm.Memory.sanitizer_pages;
        Alcotest.(check int) "two table pages" 2
          mem.Vm.Memory.sanitizer_pages);
    Alcotest.test_case "gpt_load falls back to the aux word" `Quick
      (fun () ->
        let st = Vm.State.create () in
        let rt, _ = Runtime.create () in
        let slot = 5 in
        Vm.Memory.store st.Vm.State.mem
          (Vm.Layout46.aux_base + (slot * 8)) 8 0x1234;
        Alcotest.(check int) "unregistered slot" 0x1234
          (Runtime.gpt_load rt st slot);
        Alcotest.(check int) "slot past the array" 0
          (Runtime.gpt_load rt st 100_000));
    Alcotest.test_case "global_make grows the GPT" `Quick (fun () ->
        let st = Vm.State.create () in
        let rt, _ = Runtime.create () in
        let g = Vm.Layout46.globals_base in
        let early = Runtime.global_make rt st ~slot:3 g 8 in
        let slot = 2 * Array.length rt.Runtime.gpt in
        let late = Runtime.global_make rt st ~slot (g + 64) 16 in
        Alcotest.(check bool) "grown" true
          (Array.length rt.Runtime.gpt > slot);
        Alcotest.(check bool) "tagged" true (Vm.Layout46.tag_of late <> 0);
        Alcotest.(check int) "late slot" late (Runtime.gpt_load rt st slot);
        Alcotest.(check int) "early slot survives" early
          (Runtime.gpt_load rt st 3);
        Alcotest.(check int) "aux word" late
          (Vm.Memory.load st.Vm.State.mem
             (Vm.Layout46.aux_base + (slot * 8)) 8));
  ]

(* --- metadata table exhaustion (section V.1) ---------------------------------- *)

let exhaustion_src = {|
int main() {
  /* allocate past the 2^17-entry table */
  int count = 131100;
  char **held = (char**)malloc(count * sizeof(char*));
  for (int i = 0; i < count; i++) {
    held[i] = (char*)malloc(16);
  }
  /* overflow through a pointer allocated AFTER exhaustion; the write
     lands inside the (mapped) next allocation, so the hardware stays
     silent and only metadata can catch it */
  char *victim = held[count - 10];
  victim[20] = 'X';
  return 0;
}
|}

let exhaustion_tests =
  [
    Alcotest.test_case "table-level fallback hands out untagged" `Quick
      (fun () ->
         let st = Vm.State.create () in
         let t = Cecsan.Meta_table.create st in
         for k = 1 to Vm.Layout46.tag_limit - 1 do
           ignore
             (Cecsan.Meta_table.alloc t ~base:(0x1000 + (k * 64)) ~size:32)
         done;
         let p = Cecsan.Meta_table.alloc t ~base:0xBEEF000 ~size:32 in
         Alcotest.(check int) "untagged" 0 (Vm.Layout46.tag_of p);
         Alcotest.(check bool) "fallback counted" true
           (t.Cecsan.Meta_table.exhausted_fallbacks > 0));
    Alcotest.test_case "chain mode keeps protecting past exhaustion"
      `Quick
      (fun () ->
         let st = Vm.State.create () in
         let t = Cecsan.Meta_table.create ~chain_mode:true st in
         for k = 1 to Vm.Layout46.tag_limit - 1 do
           ignore
             (Cecsan.Meta_table.alloc t ~base:(0x1000 + (k * 64)) ~size:32)
         done;
         let p = Cecsan.Meta_table.alloc t ~base:0xBEEF000 ~size:32 in
         let idx = Vm.Layout46.tag_of p in
         Alcotest.(check bool) "still tagged" true (idx <> 0);
         Alcotest.(check bool) "chain covers the object" true
           (Cecsan.Meta_table.chain_covers t idx ~raw:0xBEEF000 ~size:32
            <> None);
         Alcotest.(check bool) "chain rejects out of bounds" true
           (Cecsan.Meta_table.chain_covers t idx ~raw:0xBEEF010 ~size:64
            = None);
         Alcotest.(check bool) "release finds the element" true
           (Cecsan.Meta_table.chain_release t idx ~raw:0xBEEF000);
         Alcotest.(check bool) "released element is gone" true
           (Cecsan.Meta_table.chain_covers t idx ~raw:0xBEEF000 ~size:32
            = None));
    Alcotest.test_case
      "end-to-end: default config degrades, chain mode detects" `Slow
      (fun () ->
         let plain = run exhaustion_src in
         (match plain.Sanitizer.Driver.outcome with
          | Vm.Machine.Exit _ -> ()  (* the documented degradation *)
          | o ->
            Alcotest.failf "expected silent degradation, got %a"
              Vm.Machine.pp_outcome o);
         let chained =
           run ~san:(Cecsan.sanitizer ~config:Cecsan.Config.with_chain ())
             exhaustion_src
         in
         match chained.Sanitizer.Driver.outcome with
         | Vm.Machine.Bug _ -> ()
         | o ->
           Alcotest.failf "chain mode should detect, got %a"
             Vm.Machine.pp_outcome o);
    (* An injected 8-entry table makes exhaustion cheap: the pointer
       array takes entry 1, the first handful of blocks take 2..7, and
       everything after is served degraded (entry 0 or a chain). *)
    Alcotest.test_case "chain mode catches a double free past exhaustion"
      `Quick (fun () ->
        let r =
          Sanitizer.Driver.run
            (Cecsan.sanitizer ~config:Cecsan.Config.with_chain ())
            ~fault:(Vm.Fault.of_specs [ Vm.Fault.Table 8 ])
            {|
int main() {
  char **h = (char**)malloc(12 * sizeof(char*));
  for (int i = 0; i < 12; i++) h[i] = (char*)malloc(16);
  free(h[10]);
  free(h[10]);
  return 0;
}
|}
        in
        match r.Sanitizer.Driver.outcome with
        | Vm.Machine.Bug b
          when is_double_free b.Vm.Report.r_kind
               || is_invalid_free b.Vm.Report.r_kind -> ()
        | o ->
          Alcotest.failf "chained double free undetected: %a"
            Vm.Machine.pp_outcome o);
    Alcotest.test_case "chain mode catches a UAF past exhaustion" `Quick
      (fun () ->
        let r =
          Sanitizer.Driver.run
            (Cecsan.sanitizer ~config:Cecsan.Config.with_chain ())
            ~fault:(Vm.Fault.of_specs [ Vm.Fault.Table 8 ])
            {|
int main() {
  char **h = (char**)malloc(12 * sizeof(char*));
  for (int i = 0; i < 12; i++) h[i] = (char*)malloc(16);
  free(h[10]);
  int z = h[10][0];
  return z;
}
|}
        in
        match r.Sanitizer.Driver.outcome with
        (* the shared primary entry is still live, so the chain miss
           surfaces as OOB rather than UAF; either way it is caught *)
        | Vm.Machine.Bug b
          when is_uaf b.Vm.Report.r_kind || is_oob b.Vm.Report.r_kind -> ()
        | o ->
          Alcotest.failf "chained UAF undetected: %a"
            Vm.Machine.pp_outcome o);
    Alcotest.test_case
      "entry-0 fallback serves reads and writes unprotected but alive"
      `Quick (fun () ->
        let r =
          Sanitizer.Driver.run cecsan
            ~fault:(Vm.Fault.of_specs [ Vm.Fault.Table 8 ])
            {|
int main() {
  char **h = (char**)malloc(12 * sizeof(char*));
  for (int i = 0; i < 12; i++) { h[i] = (char*)malloc(16); h[i][0] = 'a'; }
  h[6][20] = 'x';
  int v = h[6][0];
  for (int i = 0; i < 12; i++) free(h[i]);
  free(h);
  return v;
}
|}
        in
        (match r.Sanitizer.Driver.outcome with
         | Vm.Machine.Exit 97 -> ()  (* the OOB write went through, silently *)
         | o ->
           Alcotest.failf "fallback run should complete with 'a', got %a"
             Vm.Machine.pp_outcome o);
        match List.assoc_opt "exhausted_fallbacks"
                r.Sanitizer.Driver.snapshot.Telemetry.Snapshot.gauges with
        | Some n when n > 0 -> ()
        | _ -> Alcotest.fail "exhausted_fallbacks not published");
    Alcotest.test_case "chain mode stays clean on correct programs" `Quick
      (fun () ->
         let r =
           run ~san:(Cecsan.sanitizer ~config:Cecsan.Config.with_chain ())
             "int main() { char *p = (char*)malloc(16); p[0] = 'a'; \
              int v = p[0]; free(p); return v; }"
         in
         match r.Sanitizer.Driver.outcome with
         | Vm.Machine.Exit _ -> ()
         | o -> Alcotest.failf "FP in chain mode: %a"
                  Vm.Machine.pp_outcome o);
  ]

let () =
  Alcotest.run "cecsan"
    [
      "heap-spatial", heap_tests;
      "temporal", temporal_tests;
      "stack-global", stack_global_tests;
      "subobject", subobject_tests;
      "compat", compat_tests;
      "preservation", preservation_tests;
      "optimizations", opt_tests;
      "meta-table", table_tests;
      "page-path", page_path_tests;
      "exhaustion", exhaustion_tests;
    ]
