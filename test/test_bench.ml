(* The command lines: a misspelt flag or an out-of-range experiment
   number must fail with exit 2 (README "Exit codes") instead of
   Cmdliner's 124 or falling through to the full (minutes-long)
   evaluation. *)

let exe dir name =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) dir)
    name

let bench = exe "../bench" "main.exe"

let exit_code prog args =
  Sys.command
    (Filename.quote_command prog args ~stdout:Filename.null
       ~stderr:Filename.null)

let exits_of ?(label = []) prog code args =
  Alcotest.test_case (String.concat " " (label @ args)) `Quick (fun () ->
      Alcotest.(check int) "exit code" code (exit_code prog args))

let exits = exits_of bench

let cli_cases name =
  let prog = exe "../bin" (name ^ ".exe") in
  [ exits_of ~label:[ name ] prog 2 [ "--no-such-flag" ];
    exits_of ~label:[ name ] prog 0 [ "--help=plain" ] ]

(* cecsan_fuzz input it cannot use -- a checkpoint of another campaign,
   a directory it cannot create or read -- exits 2 with one classified
   "cecsan_fuzz: ..." line on stderr, never an uncaught exception.
   [args] gets a fresh scratch directory holding a regular file
   [plain]. *)
let classified ?(setup = []) name args =
  let fuzz = exe "../bin" "cecsan_fuzz.exe" in
  Alcotest.test_case ("cecsan_fuzz " ^ name) `Quick (fun () ->
      let dir = Filename.temp_dir "cecsan_fuzz" "" in
      Fun.protect
        ~finally:(fun () ->
            ignore (Sys.command (Filename.quote_command "rm" [ "-rf"; dir ])))
        (fun () ->
           let plain = Filename.concat dir "plain" in
           Out_channel.with_open_bin plain ignore;
           List.iter
             (fun a -> ignore (exit_code fuzz (a ~dir ~plain)))
             setup;
           let err = Filename.concat dir "stderr" in
           let code =
             Sys.command
               (Filename.quote_command fuzz (args ~dir ~plain)
                  ~stdout:Filename.null ~stderr:err)
           in
           let lines =
             In_channel.with_open_bin err In_channel.input_all
             |> String.split_on_char '\n'
             |> List.filter (fun l -> l <> "")
           in
           Alcotest.(check int) "exit code" 2 code;
           match lines with
           | [ l ] when String.starts_with ~prefix:"cecsan_fuzz: " l -> ()
           | _ -> Alcotest.failf "stderr: %S" (String.concat "\n" lines)))

let fuzz_exits code args =
  exits_of ~label:[ "cecsan_fuzz" ] (exe "../bin" "cecsan_fuzz.exe") code args

(* cecsan_cli on one corpus file.  Its static modes and its run burn
   the fuel of the one pipeline [Sanitizer.Driver] sequences: --verify
   and --dump-tir postopt exhaust where the build does (the run needs
   108 steps on this file), and the jit compile is metered as
   [Driver.run] meters it (137 steps).  An injected fuel:N is the same
   budget as --fuel N. *)
let cli_exits code args =
  let file = "corpus/00_spatial-stack.mc" in
  let path = if Sys.file_exists file then file else "test/" ^ file in
  exits_of ~label:[ "cecsan_cli" ] (exe "../bin" "cecsan_cli.exe") code
    (path :: args)

let () =
  Alcotest.run "bench"
    [
      ( "command line",
        [
          exits 2 [ "--table"; "9" ];
          exits 2 [ "--fig"; "5" ];
          exits 2 [ "--tabel"; "2" ];
          exits 2 [ "--fuzz"; "0" ];
          exits 2 [ "-j"; "x" ];
          exits 2 [ "--backend"; "wasm" ];
          exits 2 [ "stray" ];
          exits 0 [ "--table"; "1"; "-j"; "1"; "--seed"; "0x5EED" ];
          exits 0 [ "--help=plain" ];
        ] );
      ( "bin command lines",
        List.concat_map cli_cases
          [ "cecsan_cli"; "cecsan_fuzz"; "cecsan_serve" ] );
      ( "cli fuel",
        [
          cli_exits 5 [ "--verify"; "--fuel"; "79" ];
          cli_exits 5 [ "--dump-tir"; "postopt"; "--fuel"; "79" ];
          cli_exits 5 [ "--backend"; "jit"; "--fuel"; "120" ];
          cli_exits 0 [ "--verify"; "--fuel"; "108" ];
          cli_exits 99 [ "--backend"; "jit"; "--fuel"; "137" ];
          cli_exits 5 [ "--verify"; "--inject"; "fuel:79" ];
          cli_exits 0 [ "--verify"; "--inject"; "fuel:108" ];
          cli_exits 2 [ "--verify"; "--inject"; "fuel:x" ];
        ] );
      ( "fault counts",
        (* a negative count is a bad spec (exit 2); oom:0 runs, and the
           file's first malloc gets NULL *)
        [
          cli_exits 2 [ "--inject"; "oom:-3" ];
          cli_exits 2 [ "--inject"; "fuel:-1" ];
          cli_exits 98 [ "--inject"; "oom:0" ];
          fuzz_exits 2 [ "-n"; "1"; "--faults"; "crash:-1" ];
        ] );
      ( "fuzz errors",
        [
          fuzz_exits 2 [ "-n-5" ];
          fuzz_exits 2 [ "-n"; "1"; "--shard-size"; "0" ];
          classified "resume of another campaign"
            ~setup:
              [ (fun ~dir ~plain:_ ->
                    [ "-n"; "4"; "--shard-size"; "2"; "--checkpoint"; dir ]) ]
            (fun ~dir ~plain:_ ->
               [ "-n"; "4"; "--seed"; "7"; "--shard-size"; "2";
                 "--checkpoint"; dir; "--resume" ]);
          classified "--checkpoint under a file" (fun ~dir:_ ~plain ->
              [ "-n"; "2"; "--checkpoint"; Filename.concat plain "ckpt" ]);
          classified "--corpus-dir under a file" (fun ~dir:_ ~plain ->
              [ "--write-corpus"; "--corpus-count"; "1"; "--corpus-dir";
                Filename.concat plain "corpus" ]);
          classified "--min-corpus of a missing dir" (fun ~dir ~plain:_ ->
              [ "--min-corpus"; "--corpus-dir";
                Filename.concat dir "missing" ]);
        ] );
    ]
