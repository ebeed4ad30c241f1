(* The one JSON layer: the canonical printer's exact bytes, the strict
   parser, and Telemetry.Snapshot's strict decoder -- including the
   compact form ({"sites":[...],"counters":{...},...}) that older
   campaign checkpoints carry on their snapshot line, so those
   checkpoints still resume. *)

let canonical_tests =
  [
    Alcotest.test_case "canonical form: one line, fixed separators" `Quick
      (fun () ->
         Alcotest.(check string) "bytes"
           "{\"a\": 1, \"b\": [true, null, -2], \"c\": {}, \"d\": [], \
            \"e\": \"x\\ny\"}"
           (Json.to_string
              (Json.Obj
                 [ ("a", Json.Int 1);
                   ("b",
                    Json.List [ Json.Bool true; Json.Null; Json.Int (-2) ]);
                   ("c", Json.Obj []); ("d", Json.List []);
                   ("e", Json.Str "x\ny") ])));
    Alcotest.test_case "parse accepts any whitespace between tokens" `Quick
      (fun () ->
         Alcotest.(check bool) "equal" true
           (Json.parse "{\"a\":[1,2],\"b\":{}}"
            = Json.parse " { \"a\" :\n[ 1 ,\t2 ] , \"b\" : { } } "));
    Alcotest.test_case "printed floats do not parse back" `Quick (fun () ->
        List.iter
          (fun text ->
             match Json.parse text with
             | Ok _ -> Alcotest.failf "float %s accepted" text
             | Error _ -> ())
          [ "2.000"; "1e3"; "-0.5" ]);
    Alcotest.test_case "nesting: depth 256 parses, 257 is an error" `Quick
      (fun () ->
         let nested d = String.make d '[' ^ String.make d ']' in
         (match Json.parse (nested 256) with
          | Ok _ -> ()
          | Error m -> Alcotest.failf "depth 256 rejected: %s" m);
         match Json.parse (nested 257) with
         | Ok _ -> Alcotest.fail "depth 257 accepted"
         | Error m ->
           Alcotest.(check bool) m true
             (String.starts_with ~prefix:"nesting too deep" m));
  ]

(* --- Telemetry.Snapshot compatibility ----------------------------------- *)

(* A snapshot line in the compact form (no space after ',' or ':'). *)
let compact_line =
  "{\"sites\":[{\"site\":3,\"executed\":5,\"elided\":1,\"covered\":2}],\
   \"counters\":{\"heap.allocs\":2,\"meta.entries\":1},\
   \"gauges\":{\"heap.peak\":64},\"dropped\":0,\
   \"events\":[{\"kind\":\"alloc\",\"a\":4096,\"b\":16},\
   {\"kind\":\"free\",\"a\":4096,\"b\":0}]}"

let compact_snapshot =
  { Telemetry.Snapshot.sites =
      [ { Telemetry.Snapshot.s_site = 3; s_executed = 5; s_elided = 1;
          s_covered = 2 } ];
    counters = [ ("heap.allocs", 2); ("meta.entries", 1) ];
    gauges = [ ("heap.peak", 64) ];
    dropped = 0;
    events =
      [ { Telemetry.ev_kind = Telemetry.Alloc; ev_a = 4096; ev_b = 16 };
        { Telemetry.ev_kind = Telemetry.Free; ev_a = 4096; ev_b = 0 } ] }

(* Drops the whitespace outside string literals: canonical -> compact. *)
let compact s =
  let b = Buffer.create (String.length s) in
  let in_str = ref false and esc = ref false in
  String.iter
    (fun c ->
       if !in_str then begin
         Buffer.add_char b c;
         if !esc then esc := false
         else if c = '\\' then esc := true
         else if c = '"' then in_str := false
       end
       else if c = '"' then (in_str := true; Buffer.add_char b c)
       else if c <> ' ' then Buffer.add_char b c)
    s;
  Buffer.contents b

let rejects name src =
  Alcotest.test_case name `Quick (fun () ->
      match Telemetry.Snapshot.of_json src with
      | Some _ -> Alcotest.failf "accepted %s" src
      | None -> ())

let snapshot_tests =
  [
    Alcotest.test_case "of_json accepts the compact form" `Quick (fun () ->
        match Telemetry.Snapshot.of_json compact_line with
        | Some s ->
          Alcotest.(check bool) "decoded" true (s = compact_snapshot);
          Alcotest.(check string) "same value in canonical form"
            compact_line (compact (Telemetry.Snapshot.to_json s))
        | None -> Alcotest.fail "compact snapshot line rejected");
    Alcotest.test_case "a real snapshot restores from either form" `Quick
      (fun () ->
         let r =
           Sanitizer.Driver.run (Cecsan.sanitizer ())
             "int main() { char *p = (char*)malloc(16); p[3] = 'x'; \
              int v = p[3]; free(p); return v & 1; }"
         in
         let snap = r.Sanitizer.Driver.snapshot in
         let json = Telemetry.Snapshot.to_json snap in
         Alcotest.(check bool) "has sites" true
           (snap.Telemetry.Snapshot.sites <> []);
         List.iter
           (fun line ->
              match Telemetry.Snapshot.of_json line with
              | Some s -> Alcotest.(check bool) line true (s = snap)
              | None -> Alcotest.failf "rejected %s" line)
           [ json; compact json ]);
    rejects "reordered top-level keys"
      "{\"counters\":{},\"sites\":[],\"gauges\":{},\"dropped\":0,\
       \"events\":[]}";
    rejects "reordered site-row keys"
      "{\"sites\":[{\"executed\":5,\"site\":3,\"elided\":1,\"covered\":2}],\
       \"counters\":{},\"gauges\":{},\"dropped\":0,\"events\":[]}";
    rejects "reordered event keys"
      "{\"sites\":[],\"counters\":{},\"gauges\":{},\"dropped\":0,\
       \"events\":[{\"a\":1,\"kind\":\"alloc\",\"b\":2}]}";
    rejects "missing key"
      "{\"sites\":[],\"counters\":{},\"gauges\":{},\"events\":[]}";
    rejects "non-integer counter"
      "{\"sites\":[],\"counters\":{\"k\":\"1\"},\"gauges\":{},\
       \"dropped\":0,\"events\":[]}";
    rejects "float"
      "{\"sites\":[],\"counters\":{},\"gauges\":{},\"dropped\":1.5,\
       \"events\":[]}";
    rejects "unknown event kind"
      "{\"sites\":[],\"counters\":{},\"gauges\":{},\"dropped\":0,\
       \"events\":[{\"kind\":\"poke\",\"a\":1,\"b\":2}]}";
    rejects "trailing garbage" (compact_line ^ "x");
  ]

let () =
  Alcotest.run "json"
    [ ("canonical", canonical_tests); ("snapshot", snapshot_tests) ]
