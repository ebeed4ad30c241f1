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
    ]
