(* Instrumented-Tir guardrail: every sanitizer's compile-time output is
   pinned byte for byte.  Each program of the regression corpus, each
   SPEC-like kernel and a program of rewrite corners is compiled,
   instrumented and optimized under every tool, and the MD5 of
   [Tir.Pp.module_to_string] after each of the two phases is compared
   with test/instrument.digests.  The Juliet suite (bad versions) is
   pinned too, one line per tool and CWE: the MD5 of that CWE's per-case
   lines.

   The digests pin more than the rewrite itself: site ids key the
   telemetry rows and the (leg, site, kind) coverage bitmaps, and
   HWASan's tag draws follow instrumentation order, so a refactor of the
   instrumentation passes must leave every line of the file valid.

   UPDATING THE DIGESTS: only an intentional change of instrumented
   output may do so.  A failing case prints the measured table for its
   tool; replace that tool's lines in instrument.digests with it. *)

(* The rewrite corners the corpus may miss: a store whose address and
   value are both protected globals (operand order fixes the minting
   order), a branch on a global's address, external calls with pointer
   arguments, calloc/realloc, an unsafe slot in a callee with two
   returns. *)
let corners = {|
extern int ext_fill(char *p, int n, char *q);
int g[4];
int *gp;
char buf[16];
struct S { char tag[8]; long n; };
struct S gs;
int helper(int *p, int k) {
  char tmp[12];
  tmp[k] = 1;
  if (k > 2) return p[k] + tmp[0];
  return p[0];
}
int main() {
  int **pp = &gp;
  gp = g;
  (*pp)[0] = 5;
  int *q = gp;
  q[1] = 3;
  if (g) { g[2] = 1; }
  char *h = (char*)calloc(4, 8);
  h = (char*)realloc(h, 64);
  ext_fill(buf, 16, h);
  char local[8];
  local[0] = 2;
  ext_fill(local, 8, gs.tag);
  memcpy(gs.tag, local, 8);
  gs.n = helper(g, 3) + helper(gp, 1);
  free(h);
  return g[1] + gs.tag[0] + (int)gs.n;
}
|}

let programs = Fixtures.corpus @ Fixtures.kernels @ [ ("corners", corners) ]

let juliet : (string * string list) list =
  List.map
    (fun (cwe, _) ->
       ( "juliet-" ^ Juliet.Case.cwe_name cwe,
         List.map (fun c -> c.Juliet.Case.bad_src)
           (Juliet.Suite.cases_for cwe) ))
    Juliet.Suite.targets

(* "<md5 after instrument> <md5 after optimize>", or "unsupported" when
   the tool rejects the program at compile time *)
let digests (san : Sanitizer.Spec.t) src =
  let md = Sanitizer.Driver.compile_cached ~optimize:true src in
  match san.instrument md with
  | () ->
    let pre = Fixtures.md5 (Tir.Pp.module_to_string md) in
    san.optimize md;
    pre ^ " " ^ Fixtures.md5 (Tir.Pp.module_to_string md)
  | exception Sanitizer.Spec.Unsupported _ -> "unsupported"

let table (label, san) =
  List.map (fun (prog, src) -> Printf.sprintf "%s %s %s" label prog
               (digests san src)) programs
  @ List.map
    (fun (cwe, srcs) ->
       Printf.sprintf "%s %s %s" label cwe
         (Fixtures.md5 (String.concat "\n" (List.map (digests san) srcs))))
    juliet

let expected = Fixtures.digest_lines "instrument.digests"

let pinned ((label, _) as tool) =
  Alcotest.test_case label `Quick (fun () ->
      let prefix = label ^ " " in
      let want = List.filter (String.starts_with ~prefix) expected in
      let got = table tool in
      if got <> want then begin
        List.iter prerr_endline got;
        Alcotest.failf "%s: instrumented Tir differs from instrument.digests \
                        (measured table above)" label
      end)

let () =
  Alcotest.run "instrument"
    [ ("instrumented Tir unchanged", List.map pinned Fixtures.tools) ]
