(* The one JSON codec: print/parse round trip, and every emitter's
   output parsing back through Json.parse even when the strings callers
   supply (job ids, FU names, PC labels, the xcc source name, metric
   names) need escaping. *)

module Json = Ximd_obs.Json
module Obs = Ximd_obs
module Core = Ximd_core
module C = Ximd_compiler
module Gen = QCheck2.Gen

(* A quote, a backslash, tab, carriage return, a raw control byte, and
   two-, three- and four-byte UTF-8. *)
let hostile = "q\"b\\s\tt\rr\x01 \xc3\xa9 \xe2\x98\x83 \xf0\x9d\x84\x9e"

(* --- Codec round trip ------------------------------------------------ *)

(* Any bytes: the printer escapes control characters and copies the
   rest, the parser copies back every non-control byte. *)
let gen_string = Gen.string_size ~gen:Gen.char (Gen.int_range 0 12)

let gen_json =
  Gen.sized_size (Gen.int_range 0 4)
  @@ Gen.fix (fun self depth ->
       let leaf =
         Gen.oneof
           [ Gen.pure Json.Null;
             Gen.map (fun b -> Json.Bool b) Gen.bool;
             Gen.map (fun i -> Json.Int i) Gen.int;
             Gen.map (fun s -> Json.String s) gen_string ]
       in
       if depth = 0 then leaf
       else
         let child = self (depth - 1) in
         Gen.oneof
           [ leaf;
             Gen.map
               (fun l -> Json.List l)
               (Gen.list_size (Gen.int_range 0 4) child);
             Gen.map
               (fun fields -> Json.Obj fields)
               (Gen.list_size (Gen.int_range 0 4)
                  (Gen.pair gen_string child)) ])

let prop_roundtrip =
  QCheck2.Test.make ~count:500 ~name:"json: parse (to_string v) = Ok v"
    ~print:Json.to_string gen_json (fun v ->
      Json.parse (Json.to_string v) = Ok v)

(* --- Every emitter parses back ------------------------------------- *)

let rec mentions needle = function
  | Json.String s -> Tobs.contains_substring s needle
  | Json.List items -> List.exists (mentions needle) items
  | Json.Obj fields ->
    List.exists
      (fun (k, v) -> Tobs.contains_substring k needle || mentions needle v)
      fields
  | Json.Null | Json.Bool _ | Json.Int _ | Json.Float _ -> false

(* [doc] parses, and when [carries] is set it contains [hostile] intact
   somewhere among its strings. *)
let parses ?(carries = false) what doc =
  match Json.parse doc with
  | Error e -> Alcotest.failf "%s does not parse: %s" what e
  | Ok v ->
    if carries && not (mentions hostile v) then
      Alcotest.failf "%s lost the caller's string" what

let test_sink_emitters () =
  let variant = Ximd_workloads.Minmax.paper_variant () in
  let program = variant.Ximd_workloads.Workload.program in
  let sink =
    Obs.Sink.create ~critpath:true
      ~n_fus:(Core.Program.n_fus program)
      ~code_len:(Core.Program.length program)
      ()
  in
  let _, state = Ximd_workloads.Workload.run ~obs:sink variant in
  let cycles = state.Core.State.stats.cycles in
  parses ~carries:true "sink chrome"
    (Obs.Chrome.to_string
       ~fu_name:(fun fu -> hostile ^ string_of_int fu)
       ~pc_label:(fun _ -> Some hostile)
       sink);
  parses "ximd-metrics/1" (Obs.Sink.metrics_json sink);
  parses "ximd-account/1"
    (Obs.Account.to_json (Option.get (Obs.Sink.account sink)) ~cycles);
  parses "ximd-critpath/1"
    (Obs.Critpath.to_json (Option.get (Obs.Sink.critpath sink))
       ~realised:cycles);
  let registry = Obs.Metrics.create () in
  Obs.Metrics.incr (Obs.Metrics.counter registry hostile);
  Obs.Metrics.set_gauge (Obs.Metrics.gauge registry (hostile ^ "g")) 3;
  Obs.Metrics.observe (Obs.Metrics.histogram registry (hostile ^ "h")) 9;
  parses ~carries:true "metrics registry" (Obs.Metrics.to_json registry)

let test_report_emitters () =
  let pipeline path =
    match Ximd_asm.Source.parse_file path with
    | Ok p -> Ximd_report.Compare.spec p
    | Error e -> Alcotest.failf "parse: %a" Ximd_asm.Source.pp_error e
  in
  (match
     Ximd_report.Compare.run
       ~ximd:(pipeline "../examples/asm/pipeline.xasm")
       ~vliw:(pipeline "../examples/asm/pipeline_vliw.xasm")
   with
   | Ok t -> parses "ximd-compare/1" (Ximd_report.Compare.to_json t)
   | Error e -> Alcotest.failf "compare: %s" e);
  let outcome, state =
    Ximd_workloads.Workload.run (Ximd_workloads.Minmax.paper_variant ())
  in
  let report = Ximd_report.Diagnostics.collect state ~outcome in
  let fus =
    List.map
      (fun (r : Ximd_report.Diagnostics.fu_report) ->
        { r with parcel = Some hostile })
      report.fus
  in
  parses ~carries:true "postmortem"
    (Ximd_report.Diagnostics.to_json { report with fus })

let test_schedobs_emitters () =
  let obs = C.Schedobs.create ~clock:(fun () -> 0.0) () in
  (match
     C.Lang.compile ~width:4 ~obs (Tpins.read_file "../examples/xc/dot.xc")
   with
   | Ok _ -> ()
   | Error es -> Alcotest.failf "compile: %s" (String.concat "; " es));
  C.Schedobs.set_source obs hostile;
  parses ~carries:true "ximd-sched/1" (C.Schedobs.to_json obs);
  parses ~carries:true "sched chrome" (C.Schedobs.to_chrome obs)

let test_farm_emitters () =
  let obs, progress = Tpins.farmobs_campaign ~odd_id:hostile in
  parses ~carries:true "ximd-campaign/1" (Obs.Farmobs.rollup_json obs);
  parses ~carries:true "campaign chrome" (Obs.Farmobs.chrome_json obs);
  List.iter (parses "ximd-progress/1") progress;
  let line =
    Json.to_string
      (Json.Obj
         [ ("workload", Json.String "minmax"); ("id", Json.String hostile) ])
  in
  match Ximd_farm.Job.of_line ~index:0 line with
  | Error e -> Alcotest.failf "job: %s" e
  | Ok job ->
    parses ~carries:true "ximd-result/1"
      (Ximd_farm.Record.to_json_string
         { Ximd_farm.Record.job;
           status = Ximd_farm.Record.Rejected { reason = hostile };
           attempts = 0;
           stats = None;
           hazards = 0;
           check = Some hostile;
           regs = [] })

let suite =
  [ ( "json",
      [ QCheck_alcotest.to_alcotest prop_roundtrip;
        Alcotest.test_case "sink emitters parse back" `Quick
          test_sink_emitters;
        Alcotest.test_case "report emitters parse back" `Quick
          test_report_emitters;
        Alcotest.test_case "schedobs emitters parse back" `Quick
          test_schedobs_emitters;
        Alcotest.test_case "farm emitters parse back" `Quick
          test_farm_emitters ] ) ]
