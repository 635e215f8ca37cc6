(* Tests for the generator library (lib/gen): seed determinism, validity
   of generated programs, the lockstep differential checker, and the
   shrinker's contract. *)

module Proggen = Ximd_gen.Proggen
module Diff = Ximd_gen.Diff
module Shrink = Ximd_gen.Shrink
module Conform = Ximd_gen.Conform

let to_alcotest = QCheck_alcotest.to_alcotest

(* --- Determinism --------------------------------------------------------- *)

let test_generate_deterministic () =
  for index = 0 to 49 do
    let a = Proggen.generate ~seed:42 ~index Proggen.case in
    let b = Proggen.generate ~seed:42 ~index Proggen.case in
    if not (Ximd_core.Program.equal_code a.Proggen.program b.Proggen.program)
    then Alcotest.failf "index %d: same (seed, index), different program" index
  done

let test_generate_varies_with_index () =
  (* Not a hard guarantee per index, but over 20 draws at least two
     distinct programs must appear or the indexing is broken. *)
  let distinct = Hashtbl.create 7 in
  for index = 0 to 19 do
    let c = Proggen.generate ~seed:7 ~index Proggen.case in
    Hashtbl.replace distinct
      (Format.asprintf "%a" Ximd_core.Program.pp_listing c.Proggen.program)
      ()
  done;
  Alcotest.(check bool) "draws vary with index" true (Hashtbl.length distinct > 1)

(* --- Validity ------------------------------------------------------------ *)

let prop_valid_program_validates =
  QCheck2.Test.make ~count:300 ~name:"valid_program passes Program.validate"
    Proggen.valid_program (fun p ->
      let config = Ximd_core.Config.make ~n_fus:(Ximd_core.Program.n_fus p) () in
      Ximd_core.Program.validate p config = Ok ())

let prop_case_validates =
  QCheck2.Test.make ~count:300 ~name:"fuzz cases pass Program.validate"
    Proggen.case (fun { Proggen.program; config } ->
      Ximd_core.Program.validate program config = Ok ())

let prop_forward_program_control_consistent =
  QCheck2.Test.make ~count:200 ~name:"forward programs are control-consistent"
    Proggen.forward_program (fun (p, _) ->
      Ximd_core.Program.control_consistent p)

let prop_forward_program_halts =
  QCheck2.Test.make ~count:100 ~name:"forward programs halt"
    Proggen.forward_program (fun (p, n_fus) ->
      let config = Ximd_core.Config.make ~n_fus ~max_cycles:2000 () in
      let obs = Ximd_ref.Interp.run ~config p in
      match obs.Ximd_ref.Observation.outcome with
      | Ximd_core.Run.Halted _ -> true
      | _ -> false)

(* --- Differential checker ------------------------------------------------ *)

let prop_diff_agrees =
  (* The standing invariant of this repo: reference and engine agree on
     every generated case, under every applicable model. *)
  QCheck2.Test.make ~count:150 ~name:"reference = engine on fuzz cases"
    Proggen.case (fun case ->
      match Diff.check_case case with
      | Diff.Agree { models } -> models <> []
      | Diff.Diverge d ->
        QCheck2.Test.fail_report (Diff.divergence_to_string d))

let test_applicable_models () =
  let parse src =
    match Ximd_asm.Source.parse src with
    | Ok p -> p
    | Error e -> Alcotest.failf "parse: %a" Ximd_asm.Source.pp_error e
  in
  let consistent = parse {|
.fus 2
  [0] nop | halt
  [1] nop | halt
|}
  in
  Alcotest.(check (list string))
    "control-consistent: all three models"
    [ "xsim"; "vsim"; "t500" ]
    (List.map Diff.model_name (Diff.applicable_models consistent));
  let split = parse {|
.fus 2
a:
  [0] nop | halt
  [1] nop | -> a
|}
  in
  (* With two FUs each bank is a singleton, so the banked model still
     applies; only the global sequencer is ruled out. *)
  Alcotest.(check (list string))
    "split control: no global" [ "xsim"; "t500" ]
    (List.map Diff.model_name (Diff.applicable_models split));
  let split_in_bank = parse {|
.fus 4
a:
  [0] nop | halt
  [1] nop | -> a
  [2] nop | halt
  [3] nop | halt
|}
  in
  Alcotest.(check (list string))
    "split inside a bank: per-FU only" [ "xsim" ]
    (List.map Diff.model_name (Diff.applicable_models split_in_bank))

(* --- Shrinker ------------------------------------------------------------ *)

let prop_shrink_preserves_predicate =
  (* Shrinking with a predicate the case satisfies returns a (weakly)
     smaller case that still satisfies it and still validates. *)
  QCheck2.Test.make ~count:60 ~name:"shrinker preserves predicate and validity"
    Proggen.case (fun case ->
      (* A predicate with some structure: the program still writes a
         nonzero value to some register under the reference. *)
      let writes_something (c : Proggen.case) =
        let obs = Ximd_ref.Interp.run ~config:c.config c.program in
        Array.exists
          (fun v -> not (Ximd_isa.Value.equal v Ximd_isa.Value.zero))
          obs.Ximd_ref.Observation.registers
      in
      QCheck2.assume (writes_something case);
      let shrunk = Shrink.minimise ~predicate:writes_something case in
      Shrink.parcels shrunk <= Shrink.parcels case
      && writes_something shrunk
      && Ximd_core.Program.validate shrunk.program shrunk.config = Ok ())

let test_shrink_reaches_minimum () =
  (* A trivially-true predicate must shrink any case to a single
     parcel: one row, one FU. *)
  let case = Proggen.generate ~seed:3 ~index:0 Proggen.case in
  let shrunk = Shrink.minimise ~predicate:(fun _ -> true) case in
  Alcotest.(check int) "one parcel left" 1 (Shrink.parcels shrunk)

(* --- Hazard logs ----------------------------------------------------------- *)

let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec go i =
    i + nn <= nh && (String.sub haystack i nn = needle || go (i + 1))
  in
  go 0

(* Typed hazards differing only in a [fus] list are a divergence, and
   the report renders both as text. *)
let test_hazard_fus_diverge () =
  let program =
    match
      Ximd_asm.Source.parse
        ".fus 2\n  [0] mov #10, r1 | halt\n  [1] mov #20, r1 | halt\n"
    with
    | Ok p -> p
    | Error e -> Alcotest.failf "parse: %a" Ximd_asm.Source.pp_error e
  in
  let config = Ximd_core.Config.make ~n_fus:2 () in
  let reference = Diff.observe_reference Diff.Per_fu program config in
  let engine =
    { reference with
      Ximd_ref.Observation.hazards =
        List.map
          (fun (cycle, h) ->
            match h with
            | Ximd_machine.Hazard.Multiple_reg_write { reg; fus } ->
              ( cycle,
                Ximd_machine.Hazard.Multiple_reg_write
                  { reg; fus = List.rev fus } )
            | h -> (cycle, h))
          reference.hazards }
  in
  Alcotest.(check bool) "the two logs differ" false
    (reference.hazards = engine.hazards);
  match Diff.compare_observations Diff.Per_fu reference engine with
  | None -> Alcotest.fail "expected a divergence"
  | Some d ->
    Alcotest.(check bool) "detail names the hazard log" true
      (contains d.detail "hazard logs differ");
    let report = Diff.divergence_to_string d in
    List.iter
      (fun text ->
        if not (contains report text) then
          Alcotest.failf "report lacks %S:\n%s" text report)
      [ "multiple writes to r1 by FUs 0,1"; "multiple writes to r1 by FUs 1,0" ]

(* --- Conformance plumbing ------------------------------------------------ *)

let test_directives_roundtrip () =
  let d =
    match
      Conform.parse_directives
        "; a comment\n\
         ; conf: fuel=123 latency=2 mem=64\n\
         ; conf: seq=prototype\n\
         body"
    with
    | Ok d -> d
    | Error e -> Alcotest.fail e
  in
  let value key = Option.map snd (List.assoc_opt key d) in
  Alcotest.(check (option string)) "fuel" (Some "123") (value "fuel");
  Alcotest.(check (option string)) "latency" (Some "2") (value "latency");
  Alcotest.(check (option string)) "seq" (Some "prototype") (value "seq");
  Alcotest.(check (option int)) "seq line" (Some 3)
    (Option.map fst (List.assoc_opt "seq" d));
  match Conform.config_of_directives d ~n_fus:2 with
  | Error e -> Alcotest.fail e
  | Ok config ->
    Alcotest.(check int) "max_cycles" 123 config.Ximd_core.Config.max_cycles;
    Alcotest.(check int) "result_latency" 2
      config.Ximd_core.Config.result_latency

(* The loader hardening contract: malformed directives are structured
   errors naming the line, never exceptions. *)
let test_directives_malformed () =
  let expect_error what source pattern =
    match Conform.parse_directives source with
    | Ok _ -> Alcotest.failf "%s: expected an error" what
    | Error e ->
      if not (contains e pattern) then
        Alcotest.failf "%s: error %S does not mention %S" what e pattern
  in
  expect_error "bare token" "; conf: fuel\n" "line 1";
  expect_error "unknown key" "x\n; conf: fule=2\n" "unknown conf key";
  expect_error "unknown key line" "x\n; conf: fule=2\n" "line 2";
  expect_error "duplicate key" "; conf: fuel=1\n; conf: fuel=2\n"
    "duplicate conf key";
  (match Conform.parse_directives "; conf: fuel=abc\n" with
   | Error e -> Alcotest.failf "value errors belong to config_of: %s" e
   | Ok d -> (
     match Conform.config_of_directives d ~n_fus:2 with
     | Ok _ -> Alcotest.fail "fuel=abc: expected an error"
     | Error e ->
       Alcotest.(check bool) "names the line" true
         (String.length e >= 6 && String.sub e 0 6 = "line 1")));
  (* out-of-range machine shape: Config.make's Invalid_argument is
     caught and converted *)
  match Conform.parse_directives "; conf: latency=99\n" with
  | Error e -> Alcotest.fail e
  | Ok d -> (
    match Conform.config_of_directives d ~n_fus:2 with
    | Ok _ -> Alcotest.fail "latency=99: expected an error"
    | Error _ -> ())

let suite =
  [ ( "generator library",
      [ Alcotest.test_case "seed determinism" `Quick
          test_generate_deterministic;
        Alcotest.test_case "index variation" `Quick
          test_generate_varies_with_index;
        Alcotest.test_case "applicable models" `Quick test_applicable_models;
        Alcotest.test_case "hazard fus differ: divergence" `Quick
          test_hazard_fus_diverge;
        Alcotest.test_case "shrink to minimum" `Quick
          test_shrink_reaches_minimum;
        Alcotest.test_case "conf directives" `Quick test_directives_roundtrip;
        Alcotest.test_case "conf directives: malformed are structured errors"
          `Quick test_directives_malformed ]
      @ List.map to_alcotest
          [ prop_valid_program_validates;
            prop_case_validates;
            prop_forward_program_control_consistent;
            prop_forward_program_halts;
            prop_diff_agrees;
            prop_shrink_preserves_predicate ] ) ]
