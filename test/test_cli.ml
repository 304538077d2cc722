(* The command line on bad input: every rejected SQL text, flag value or
   data directory ends with exit code 1 and one line on stderr, never an
   uncaught exception. *)

let exe = Filename.concat (Filename.dirname Sys.executable_name) "../bin/robustopt.exe"

let write path contents = Out_channel.with_open_text path (fun oc -> output_string oc contents)

(* A one-table data directory: t(id, x). *)
let data_dir =
  lazy
    (let dir = Filename.temp_dir "test-cli" "" in
     write (Filename.concat dir "schema.sql") "CREATE TABLE t (id INT PRIMARY KEY, x INT);\n";
     write (Filename.concat dir "t.csv") "id,x\n1,10\n2,20\n3,30\n";
     at_exit (fun () ->
         List.iter (fun f -> Sys.remove (Filename.concat dir f)) [ "schema.sql"; "t.csv" ];
         Sys.rmdir dir);
     dir)

(* Runs the binary with [args]; returns the exit code and stderr's lines. *)
let run args =
  let err = Filename.temp_file "test-cli" ".err" in
  let code =
    Sys.command
      (Printf.sprintf "%s %s > /dev/null 2> %s" (Filename.quote exe)
         (String.concat " " (List.map Filename.quote args))
         (Filename.quote err))
  in
  let lines = In_channel.with_open_text err In_channel.input_lines in
  Sys.remove err;
  (code, lines)

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let rejected args () =
  let code, lines = run args in
  let context = String.concat " " args in
  Alcotest.(check int) (context ^ ": exit code") 1 code;
  Alcotest.(check int) (context ^ ": one line on stderr") 1 (List.length lines);
  Alcotest.(check bool)
    (context ^ ": no uncaught exception")
    false
    (List.exists (fun l -> contains l "uncaught exception") lines)

let sql_case label sql =
  Alcotest.test_case label `Quick (fun () ->
      rejected [ "run"; "-d"; Lazy.force data_dir; sql ] ())

(* [run] over the data directory with one statistics flag set. *)
let flag_case label flags =
  Alcotest.test_case label `Quick (fun () ->
      rejected ([ "run"; "-d"; Lazy.force data_dir ] @ flags @ [ "SELECT COUNT(*) FROM t" ]) ())

let () =
  Alcotest.run "cli"
    [
      ( "bad SQL",
        [
          sql_case "IS NULL" "SELECT COUNT(*) FROM t WHERE x IS NULL";
          sql_case "bare WHERE" "SELECT COUNT(*) FROM t WHERE";
          sql_case "exponent literal" "SELECT COUNT(*) FROM t WHERE x = 1.5e3";
          sql_case "unknown table" "SELECT COUNT(*) FROM nosuch";
          sql_case "unknown column" "SELECT COUNT(*) FROM t WHERE y = 1";
        ] );
      ( "bad flags",
        [
          Alcotest.test_case "unknown workload" `Quick
            (rejected [ "run"; "--workload"; "oltp"; "SELECT COUNT(*) FROM t" ]);
          Alcotest.test_case "unknown estimator" `Quick (fun () ->
              rejected [ "run"; "-d"; Lazy.force data_dir; "-e"; "magic"; "SELECT COUNT(*) FROM t" ] ());
          Alcotest.test_case "reopt threshold below 1" `Quick (fun () ->
              rejected
                [ "run"; "-d"; Lazy.force data_dir; "--reopt-threshold"; "0.5"; "SELECT COUNT(*) FROM t" ]
                ());
          Alcotest.test_case "missing data directory" `Quick
            (rejected [ "run"; "-d"; "/nonexistent/robustopt-data"; "SELECT COUNT(*) FROM t" ]);
          flag_case "sample size 0" [ "--sample-size"; "0" ];
          flag_case "negative sample size" [ "--sample-size=-5" ];
          flag_case "confidence above 100" [ "--confidence"; "150" ];
          flag_case "confidence 0" [ "--confidence"; "0" ];
          Alcotest.test_case "scale 0" `Quick
            (rejected [ "run"; "--scale=0"; "SELECT COUNT(*) FROM lineitem" ]);
          Alcotest.test_case "profile of a join" `Quick
            (rejected
               [ "profile"; "--workload"; "star"; "SELECT COUNT(*) FROM fact, dim1 WHERE d_filter = 1" ]);
        ] );
    ]
