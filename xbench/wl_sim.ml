(* sim-long: long runs on reused sessions, one domain, hooks off.

   An op is one complete run ([Session.run]: reset, the variant's
   set-up, the engine) of one scaled paper coding under one sequencing
   model; the oracle is the workload's own check, applied after the
   timed interval. *)

module Core = Ximd_core
module W = Ximd_workloads

type t = {
  items : Inputs.sim_item array;
  checks : (Core.State.t -> (unit, string) result) array;
  sessions : Core.Session.t array;
  outcomes : Core.Run.outcome option array;  (* latest run of each item *)
}

(* [plant] is the benchmark's own test of its checker: item 0 (minmax
   under xsim) is then judged by the check of a minmax input whose
   largest element is one higher than the one it ran on. *)
let setup ?(plant = false) ~seed () =
  let inputs = Inputs.sim ~seed in
  let items = Array.of_list inputs.items in
  let checks = Array.map (fun (it : Inputs.sim_item) -> it.variant.check) items in
  if plant then begin
    let data = Array.copy inputs.minmax_data in
    let top = Array.fold_left max min_int data in
    data.(1) <- top + 1;
    checks.(0) <- (W.Minmax.make ~data ()).ximd.check
  end;
  let sessions =
    Array.map
      (fun (it : Inputs.sim_item) ->
        Core.Session.create ~config:it.variant.config ~model:it.model
          it.variant.program)
      items
  in
  { items; checks; sessions; outcomes = Array.make (Array.length items) None }

let n t = Array.length t.items
let label t i = t.items.(i).Inputs.label

let run_op t i =
  let item = t.items.(i) in
  let outcome = Core.Session.run ~setup:item.variant.setup t.sessions.(i) in
  t.outcomes.(i) <- Some outcome;
  Core.Run.cycles outcome

let check t i =
  match t.outcomes.(i) with
  | Some (Core.Run.Halted _) -> t.checks.(i) (Core.Session.state t.sessions.(i))
  | Some o ->
    Error
      (Printf.sprintf "did not halt: %s"
         (Ximd_ref.Observation.outcome_string o))
  | None -> Error "never ran"

let timed t ~seconds =
  Measure.sequential ~seconds ~n:(n t) ~window:(n t) ~label:(label t)
    ~op:(run_op t) ~check:(check t)

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)

(* The same op, decomposed into the public calls [Session.run] makes
   (reset, set-up, engine run), each timed; the engine call also counts
   its minor words. *)
let traced_op t tr words ~op i =
  let item = t.items.(i) in
  let state = Core.Session.state t.sessions.(i) in
  Trace.call tr "state.reset" ~op (fun () -> Core.State.reset state);
  item.variant.setup state;
  let model = Ximd_farm.Job.model_name item.model in
  let w0 = Gc.minor_words () in
  let t0 = Clock.now_ns () in
  let outcome = Core.Engine.run item.model state in
  let t1 = Clock.now_ns () in
  let w1 = Gc.minor_words () in
  let cycles = Core.Run.cycles outcome in
  Trace.record tr ("engine.run." ^ model) ~op ~t0 ~t1 ~work:cycles ();
  Sample.add (List.assoc model words) ((w1 -. w0) /. float_of_int (max 1 cycles));
  t.outcomes.(i) <- Some outcome;
  cycles

let models = [ "xsim"; "vsim"; "t500" ]

let traced t ~seconds =
  let tr = Trace.create () in
  (* state construction, timed apart from the loop *)
  Array.iteri
    (fun op (it : Inputs.sim_item) ->
      for _ = 1 to 3 do
        ignore
          (Trace.call tr "state.create" ~op (fun () ->
             Core.State.create ~config:it.variant.config it.variant.program))
      done)
    t.items;
  let words = List.map (fun m -> (m, Sample.create ())) models in
  let op_counter = ref 0 in
  let phase =
    Measure.sequential ~seconds ~n:(n t) ~window:(n t) ~label:(label t)
      ~op:(fun i ->
        let op = !op_counter in
        incr op_counter;
        traced_op t tr words ~op i)
      ~check:(fun i ->
        Trace.call tr "workload.check" ~op:(!op_counter - 1) (fun () ->
          check t i))
  in
  (* simulated counts: one pass with an account-only sink attached *)
  let c = Measure.counts () in
  Array.iter
    (fun (it : Inputs.sim_item) ->
      let sink =
        Measure.account_sink ~n_fus:it.variant.config.n_fus
          ~code_len:(Core.Program.length it.variant.program)
      in
      let s =
        Core.Session.create ~config:it.variant.config ~obs:sink
          ~model:it.model it.variant.program
      in
      ignore (Core.Session.run ~setup:it.variant.setup s);
      Measure.add_stats c (Core.Session.state s).stats;
      Option.iter (Measure.add_account c) (Ximd_obs.Sink.account sink))
    t.items;
  let layer =
    [ Measure.m "state.create_us" "us" (Trace.median_us tr "state.create");
      Measure.m "state.reset_us" "us" (Trace.median_us tr "state.reset") ]
    @ List.map
        (fun m ->
          Measure.m ("engine.ns_per_cycle." ^ m) "ns"
            (Trace.median_per_unit_ns tr ("engine.run." ^ m)))
        models
    @ List.map
        (fun (m, s) ->
          Measure.m ("engine.words_per_cycle." ^ m) "words" (Sample.median s))
        words
    @ Measure.counts_metrics c
    @ [ Measure.m "workload.check_us" "us" (Trace.median_us tr "workload.check") ]
  in
  (phase, layer, tr)
