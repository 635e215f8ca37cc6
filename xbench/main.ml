(* xbench: the repository's benchmark.

     main.exe --workload W --seed N --seconds S --trace 0|1

   Runs workload W (sim-long, serve-campaign, xcc-compile, fuzz-diff)
   on inputs generated from seed N for about S seconds and prints, as
   the last line of standard output, one JSON object: whether every op
   agreed with its oracle, ops attempted and failed, and the metrics —
   the end-to-end ones with --trace 0, the per-layer ones with
   --trace 1.  The line before it carries the host stamp, spreads and
   any failing ops; --trace 1 also writes the spans to
   .xbench/trace-W-seedN.json.  Exit status: 0 when every op was
   correct, 1 when any op failed its check, 2 on bad arguments. *)

open Xbench

let usage () =
  prerr_endline
    "usage: main.exe --workload W --seed N --seconds S --trace 0|1";
  prerr_endline ("workloads: " ^ String.concat ", " Runner.names);
  exit 2

let () =
  let workload = ref None and seed = ref None and seconds = ref None in
  let trace = ref None in
  let int_arg name s =
    match int_of_string_opt s with
    | Some n -> n
    | None ->
      Printf.eprintf "%s: not an integer: %S\n" name s;
      usage ()
  in
  let rec parse = function
    | [] -> ()
    | "--workload" :: w :: rest -> workload := Some w; parse rest
    | "--seed" :: s :: rest -> seed := Some (int_arg "--seed" s); parse rest
    | "--seconds" :: s :: rest -> (
      match float_of_string_opt s with
      | Some x when x > 0. -> seconds := Some x; parse rest
      | _ -> Printf.eprintf "--seconds: not a positive number: %S\n" s; usage ())
    | "--trace" :: ("0" | "1" as t) :: rest -> trace := Some (t = "1"); parse rest
    | arg :: _ -> Printf.eprintf "unknown argument %S\n" arg; usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some name, Some seed, Some seconds, Some trace -> (
    match Runner.find name with
    | None -> Printf.eprintf "unknown workload %S\n" name; usage ()
    | Some w ->
      (* the farm never gets more worker domains than the host has cores *)
      let domains = min 2 (Host.cores ()) in
      let r =
        Runner.run w ~seed ~seconds ~trace ~plant:false ~domains
          ~trace_dir:".xbench"
      in
      List.iter
        (fun (f : Measure.failure) ->
          Printf.eprintf "xbench: FAILED op %d (%s): %s\n" f.op f.label f.reason)
        r.failures;
      print_endline r.detail;
      print_endline
        (Measure.result_line ~correct:r.correct ~attempted:r.attempted
           ~failed:r.failed r.metrics);
      exit (if r.correct then 0 else 1))
  | _ -> usage ()
