(* What the pinned-output suites (test_instrument, test_verify's
   report pin) compile: every tool, the regression corpus and the
   SPEC-like kernels. *)

(* CECSan variants share the tool name, so each row carries its
   variant's label *)
let tools : (string * Sanitizer.Spec.t) list =
  Cecsan.variants
  @ List.map
    (fun (san : Sanitizer.Spec.t) -> (san.name, san))
    [ Baselines.Asan.sanitizer ();
      Baselines.Asan_minus.sanitizer ();
      Baselines.Hwasan.sanitizer ();
      Baselines.Softbound_cets.sanitizer ();
      Baselines.Pacmem.sanitizer ();
      Baselines.Cryptsan.sanitizer () ]

(* under [dune test] the data sits next to the binary; under
   [dune exec test/<suite>.exe] the cwd is the repository root *)
let dir = if Sys.file_exists "corpus" then "." else "test"

let corpus : (string * string) list =
  let corpus_dir = Filename.concat dir "corpus" in
  Sys.readdir corpus_dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".mc")
  |> List.sort compare
  |> List.map (fun f ->
      (f, In_channel.with_open_bin (Filename.concat corpus_dir f)
            In_channel.input_all))

let kernels : (string * string) list =
  List.map
    (fun w -> (w.Workloads.Spec2006.w_name, w.Workloads.Spec2006.w_source))
    Workloads.Spec2006.all
  @ List.map
    (fun w -> (w.Workloads.Spec2017.w_name, w.Workloads.Spec2017.w_source))
    Workloads.Spec2017.all

(* Non-empty lines of a digests file next to the corpus. *)
let digest_lines file =
  In_channel.with_open_bin (Filename.concat dir file) In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let md5 s = Digest.to_hex (Digest.string s)
