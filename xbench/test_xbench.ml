(* The benchmark's own tests: its inputs are a pure function of the
   seed, its simulated counts do not depend on the domain count or the
   run, its checker can fail, and BENCHMARK.json names what it prints. *)

open Xbench

let workloads = [ "sim-long"; "serve-campaign"; "xcc-compile"; "fuzz-diff" ]

let same_seed_same_bytes () =
  List.iter
    (fun workload ->
      let a = Inputs.fingerprint ~workload ~seed:7 in
      let b = Inputs.fingerprint ~workload ~seed:7 in
      Alcotest.(check bool) (workload ^ ": non-empty") true (String.length a > 0);
      Alcotest.(check string) (workload ^ ": same seed, same bytes") a b;
      (* fuzz-diff's cases come from Proggen's own seeded stream *)
      if workload <> "fuzz-diff" then
        Alcotest.(check bool) (workload ^ ": other seed, other bytes") true
          (a <> Inputs.fingerprint ~workload ~seed:8))
    workloads

(* One short traced run: every sequential phase still covers a whole
   round of the inputs, and every serve phase whole rounds. *)
let traced ?(domains = 1) ?(plant = false) workload =
  match Runner.find workload with
  | None -> Alcotest.failf "no workload %s" workload
  | Some w ->
    Runner.run ~max_setups:1 w ~seed:3 ~seconds:0.01 ~trace:true ~plant
      ~domains ~trace_dir:"."

let plain ?(plant = false) workload =
  match Runner.find workload with
  | None -> Alcotest.failf "no workload %s" workload
  | Some w ->
    Runner.run ~max_setups:1 w ~seed:3 ~seconds:0.01 ~trace:false ~plant
      ~domains:1 ~trace_dir:"."

let value (r : Runner.result) name =
  match List.find_opt (fun (m : Measure.metric) -> m.name = name) r.metrics with
  | Some m -> m.value
  | None -> Alcotest.failf "metric %s missing" name

let simulated (r : Runner.result) =
  List.filter_map
    (fun (name, _) ->
      let prefixed p = String.length name > String.length p
                       && String.sub name 0 (String.length p) = p in
      if prefixed "stats." || prefixed "account." || prefixed "farm.outcome."
      then Some (name, value r name)
      else None)
    Catalog.per_layer

let counts = Alcotest.(list (pair string (float 0.)))

(* sim_cycles_per_op of the untraced phase, over its first round *)
let cycles_per_op (r : Runner.result) =
  match r.phases with
  | (p : Measure.t) :: _ -> float_of_int p.round_cycles /. float_of_int p.round_ops
  | [] -> Alcotest.fail "no phase"

let counts_independent_of_domains () =
  if Host.cores () >= 2 then begin
    let one = traced ~domains:1 "serve-campaign" in
    let two = traced ~domains:2 "serve-campaign" in
    Alcotest.(check bool) "correct at 1 domain" true one.correct;
    Alcotest.(check bool) "correct at 2 domains" true two.correct;
    Alcotest.check counts "stats, account, outcomes" (simulated one)
      (simulated two);
    Alcotest.(check (float 0.)) "sim_cycles_per_op" (cycles_per_op one)
      (cycles_per_op two)
  end

let counts_repeat () =
  let a = traced "sim-long" and b = traced "sim-long" in
  Alcotest.(check bool) "correct" true (a.correct && b.correct);
  Alcotest.check counts "simulated counts" (simulated a) (simulated b);
  Alcotest.(check (float 0.)) "sim_cycles_per_op" (cycles_per_op a)
    (cycles_per_op b)

let checker_can_fail () =
  List.iter
    (fun workload ->
      let r = plain ~plant:true workload in
      Alcotest.(check bool) (workload ^ ": planted value caught") false r.correct;
      Alcotest.(check bool) (workload ^ ": failures listed") true
        (r.failed > 0 && r.failures <> []);
      Alcotest.(check bool) (workload ^ ": ok_rate below 1") true
        (value r "ok_rate" < 1.0))
    workloads

(* BENCHMARK.json (one directory up) lists exactly the catalogue. *)
let manifest_matches () =
  let text = In_channel.with_open_bin "../BENCHMARK.json" In_channel.input_all in
  match Ximd_farm.Json.parse text with
  | Error e -> Alcotest.failf "BENCHMARK.json: %s" e
  | Ok json ->
    let names key =
      match Ximd_farm.Json.member key json with
      | Some (Ximd_farm.Json.List l) ->
        List.map
          (fun m ->
            match
              (Ximd_farm.Json.member "name" m, Ximd_farm.Json.member "unit" m)
            with
            | Some (String n), Some (String u) -> (n, u)
            | _ -> Alcotest.failf "%s: entry without name or unit" key)
          l
      | _ -> Alcotest.failf "BENCHMARK.json: no %s" key
    in
    let pairs = Alcotest.(list (pair string string)) in
    Alcotest.check pairs "end_to_end" Catalog.end_to_end (names "end_to_end");
    Alcotest.check pairs "per_layer" Catalog.per_layer (names "per_layer");
    let workload_names =
      match Ximd_farm.Json.member "workloads" json with
      | Some (Ximd_farm.Json.List l) ->
        List.filter_map
          (fun w ->
            match Ximd_farm.Json.member "name" w with
            | Some (String n) -> Some n
            | _ -> None)
          l
      | _ -> []
    in
    Alcotest.(check (list string)) "workloads" Runner.names workload_names

let () =
  Alcotest.run "xbench"
    [ ( "inputs",
        [ Alcotest.test_case "same seed, same bytes" `Quick same_seed_same_bytes ] );
      ( "counts",
        [ Alcotest.test_case "independent of the domain count" `Quick
            counts_independent_of_domains;
          Alcotest.test_case "identical run to run" `Quick counts_repeat ] );
      ( "oracle",
        [ Alcotest.test_case "a planted wrong value fails" `Quick checker_can_fail ] );
      ( "manifest",
        [ Alcotest.test_case "BENCHMARK.json names the catalogue" `Quick
            manifest_matches ] ) ]
