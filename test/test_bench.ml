(* The bench harness command line: a misspelt flag or an out-of-range
   experiment number must fail with exit 2 instead of falling through
   to the full (minutes-long) evaluation. *)

let bench =
  Filename.concat
    (Filename.concat (Filename.dirname Sys.executable_name) "../bench")
    "main.exe"

let exit_code args =
  Sys.command
    (Filename.quote_command bench args ~stdout:Filename.null
       ~stderr:Filename.null)

let exits code args =
  Alcotest.test_case (String.concat " " args) `Quick (fun () ->
      Alcotest.(check int) "exit code" code (exit_code args))

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
    ]
