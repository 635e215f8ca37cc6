(* Byte pins for the emitters no other golden covers: the sink's Chrome
   trace and ximd-metrics/1 of the Figure 10 MINMAX run, the campaign
   telemetry exports and the scheduler's Chrome trace under stepped
   fake clocks, and the postmortem JSON of the deadlock example. *)

module Obs = Ximd_obs
module Core = Ximd_core
module C = Ximd_compiler

let read_file path = In_channel.with_open_text path In_channel.input_all

let pin ~golden actual =
  Alcotest.(check string) golden (read_file ("goldens/" ^ golden)) actual

(* A clock that advances by a fixed 1/1024 s on every reading, so span
   boundaries and trace timestamps are a pure function of call order. *)
let stepped_clock () =
  let t = ref 100.0 in
  fun () ->
    t := !t +. (1.0 /. 1024.0);
    !t

let test_figure10_sink () =
  let variant = Ximd_workloads.Minmax.paper_variant () in
  let program = variant.Ximd_workloads.Workload.program in
  let sink =
    Obs.Sink.create
      ~n_fus:(Core.Program.n_fus program)
      ~code_len:(Core.Program.length program)
      ()
  in
  ignore (Ximd_workloads.Workload.run ~obs:sink variant);
  let pc_label pc = Core.Program.label_at program pc in
  pin ~golden:"minmax.fig10.trace.json"
    (Obs.Chrome.to_string ~pc_label sink);
  pin ~golden:"minmax.fig10.metrics.json" (Obs.Sink.metrics_json sink ^ "\n")

(* A four-job campaign driven hook by hook on one thread: a clean job,
   a retried job named [odd_id], a dropped job that never completes,
   and a cache hit on a second domain. *)
let farmobs_campaign ~odd_id =
  let progress = ref [] in
  let obs =
    Obs.Farmobs.create ~progress_every:2
      ~progress:(fun line -> progress := line :: !progress)
      ~clock:(stepped_clock ()) ()
  in
  let good = Obs.Span.outcome ~label:"ok" ~quality:Obs.Span.Good in
  let suspect =
    Obs.Span.outcome ~label:"budget_exceeded" ~quality:Obs.Span.Suspect
  in
  for seq = 0 to 3 do
    Obs.Farmobs.on_enqueue obs ~seq ~depth:(seq + 1)
  done;
  Obs.Farmobs.on_dequeue obs ~seq:0 ~domain:0 ~depth:3;
  Obs.Farmobs.on_session_ready obs ~seq:0 ~cache_hit:false;
  Obs.Farmobs.on_complete obs ~seq:0 ~id:"minmax-0" ~result:good
    ~attempts:1 ~cycles:38 ~n_fus:4 ();
  Obs.Farmobs.on_dequeue obs ~seq:1 ~domain:1 ~depth:2;
  Obs.Farmobs.on_session_ready obs ~seq:1 ~cache_hit:false;
  Obs.Farmobs.on_retry obs ~seq:1 ~attempt:1;
  Obs.Farmobs.on_complete obs ~seq:1 ~id:odd_id ~result:suspect
    ~attempts:2 ~cycles:100 ~n_fus:2 ();
  Obs.Farmobs.on_dequeue obs ~seq:3 ~domain:1 ~depth:1;
  Obs.Farmobs.on_session_ready obs ~seq:3 ~cache_hit:true;
  Obs.Farmobs.on_complete obs ~seq:3 ~id:"minmax-3" ~result:good
    ~attempts:1 ~cycles:38 ~n_fus:4 ();
  let registry = Obs.Metrics.create () in
  Obs.Metrics.add (Obs.Metrics.counter registry "engine.cycles") 176;
  Obs.Metrics.observe (Obs.Metrics.histogram registry "run.cycles") 38;
  Obs.Farmobs.merge_metrics obs registry;
  let acct = Obs.Account.create ~n_fus:2 in
  Obs.Account.tally acct ~fu:0 Obs.Account.Commit;
  Obs.Account.tally acct ~fu:1 Obs.Account.Halted;
  Obs.Farmobs.merge_account obs acct;
  for seq = 0 to 3 do
    Obs.Farmobs.on_emit obs ~seq
  done;
  (obs, List.rev !progress)

let test_farmobs () =
  let obs, progress = farmobs_campaign ~odd_id:{|say "hi" \ bye|} in
  pin ~golden:"campaign.rollup.json" (Obs.Farmobs.rollup_json obs);
  pin ~golden:"campaign.trace.json" (Obs.Farmobs.chrome_json obs);
  pin ~golden:"campaign.progress.jsonl"
    (String.concat "" (List.map (fun l -> l ^ "\n") progress))

(* Per-pass minor-heap words depend on the build profile, so they are
   masked; every other byte is pinned. *)
let mask_minor_words s =
  let key = "\"minor_words\":" in
  let n = String.length s and k = String.length key in
  let buf = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    if !i + k <= n && String.sub s !i k = key then begin
      Buffer.add_string buf key;
      Buffer.add_char buf '_';
      i := !i + k;
      while !i < n && (match s.[!i] with '0' .. '9' | '-' -> true | _ -> false)
      do
        incr i
      done
    end
    else begin
      Buffer.add_char buf s.[!i];
      incr i
    end
  done;
  Buffer.contents buf

let test_schedobs_chrome () =
  let obs = C.Schedobs.create ~clock:(stepped_clock ()) () in
  (match C.Lang.compile ~width:4 ~obs (read_file "../examples/xc/dot.xc") with
   | Ok _ -> ()
   | Error es -> Alcotest.failf "compile: %s" (String.concat "; " es));
  pin ~golden:"dot.sched-trace.json"
    (mask_minor_words (C.Schedobs.to_chrome obs))

let test_deadlock_postmortem () =
  let program =
    match Ximd_asm.Source.parse_file "../examples/asm/deadlock.xasm" with
    | Ok p -> p
    | Error e -> Alcotest.failf "parse: %a" Ximd_asm.Source.pp_error e
  in
  let config = Core.Config.make ~n_fus:(Core.Program.n_fus program) () in
  let session = Core.Session.create ~config ~model:Core.Engine.Per_fu program in
  let outcome =
    Core.Session.run ~watchdog:(Core.Watchdog.create ()) session
  in
  let state = Core.Session.state session in
  pin ~golden:"deadlock.postmortem.json"
    (Ximd_report.Diagnostics.to_json
       (Ximd_report.Diagnostics.collect state ~outcome)
    ^ "\n")

let suite =
  [ ( "emitter pins",
      [ Alcotest.test_case "figure 10 sink chrome + metrics" `Quick
          test_figure10_sink;
        Alcotest.test_case "farmobs rollup, chrome, progress" `Quick
          test_farmobs;
        Alcotest.test_case "schedobs chrome" `Quick test_schedobs_chrome;
        Alcotest.test_case "deadlock postmortem" `Quick
          test_deadlock_postmortem ] ) ]
