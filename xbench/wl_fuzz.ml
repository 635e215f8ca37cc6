(* fuzz-diff: the seeded Proggen case stream, each case checked by
   [Diff.check_case] on every applicable model — the CI fuzz path.

   An op is one checked case; its oracle is the Diff verdict (the
   reference interpreter in lib/ref against the engine).  The cases are
   generated at set-up, stratified so every seed has the same mix (see
   [Inputs.fuzz]). *)

module Core = Ximd_core
module Diff = Ximd_gen.Diff

type t = {
  seed : int;
  indices : int array;  (* each case's index in the seed's stream *)
  cases : Ximd_gen.Proggen.case array;
  cycles : int array;   (* reference cycles per case, all models *)
  verdicts : Diff.verdict option array;
  plant : bool;
}

let setup ?(plant = false) ~seed () =
  let picked = Inputs.fuzz ~seed in
  { seed;
    indices = Array.map (fun (f : Inputs.fuzz_input) -> f.index) picked;
    cases = Array.map (fun (f : Inputs.fuzz_input) -> f.case) picked;
    cycles = Array.map (fun (f : Inputs.fuzz_input) -> f.cycles) picked;
    verdicts = Array.make (Array.length picked) None;
    plant }

let n t = Array.length t.cases
let window = 64
let label t i = Printf.sprintf "case %d of seed %d" t.indices.(i) t.seed

let check t i =
  match t.verdicts.(i) with
  | None -> Error "never ran"
  | Some (Diff.Agree _) when t.plant && i = 0 ->
    (* the planted wrong expectation: case 0 is expected to diverge *)
    Error "planted: expected a divergence, the models agreed"
  | Some (Diff.Agree _) -> Ok ()
  | Some (Diff.Diverge d) -> Error (Diff.divergence_to_string d)

let timed t ~seconds =
  let cycles = t.cycles in
  Measure.sequential ~seconds ~n:(n t) ~window ~label:(label t)
    ~op:(fun i ->
      t.verdicts.(i) <- Some (Diff.check_case t.cases.(i));
      cycles.(i))
    ~check:(check t)

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)

(* The traced op makes the calls [Diff.check_case] makes — the
   reference and the engine observation per applicable model — timing
   each, and judges them with the same equality. *)
let traced_op t tr models ~op i =
  let c = t.cases.(i) in
  let ms = Diff.applicable_models c.program in
  Sample.add models (float_of_int (List.length ms));
  let diverged =
    List.find_opt
      (fun m ->
        let r =
          Trace.call tr "ref.observe" ~op (fun () ->
            Diff.observe_reference m c.program c.config)
        in
        let e =
          Trace.call tr "diff.observe_engine" ~op (fun () ->
            Diff.observe_engine m c.program c.config)
        in
        not (Ximd_ref.Observation.equal r e))
      ms
  in
  t.verdicts.(i) <-
    Some
      (match diverged with
       | None -> Diff.Agree { models = ms }
       | Some m -> (
         match Diff.check_model m c.program c.config with
         | Some d -> Diff.Diverge d
         | None -> Diff.Agree { models = ms }));
  t.cycles.(i)

let traced t ~seconds =
  let tr = Trace.create () in
  Array.iteri
    (fun op (c : Ximd_gen.Proggen.case) ->
      ignore
        (Trace.call tr "proggen.generate" ~op (fun () ->
           Inputs.fuzz_case ~seed:t.seed ~index:t.indices.(op)));
      ignore
        (Trace.call tr "state.create" ~op (fun () ->
           Core.State.create ~config:c.config c.program)))
    t.cases;
  let models = Sample.create () in
  let k = ref 0 in
  let phase =
    Measure.sequential ~seconds ~n:(n t) ~window ~label:(label t)
      ~op:(fun i ->
        let op = !k in
        incr k;
        traced_op t tr models ~op i)
      ~check:(check t)
  in
  (* simulated counts: every case under every applicable model, with an
     account-only sink attached *)
  let c = Measure.counts () in
  Array.iter
    (fun (case : Ximd_gen.Proggen.case) ->
      let config =
        { case.config with
          Core.Config.hazard_policy = Ximd_machine.Hazard.Record }
      in
      List.iter
        (fun m ->
          let sink =
            Measure.account_sink ~n_fus:config.n_fus
              ~code_len:(Core.Program.length case.program)
          in
          let state = Core.State.create ~config ~obs:sink case.program in
          let model =
            match m with
            | Diff.Per_fu -> Core.Engine.Per_fu
            | Diff.Global -> Core.Engine.Global
            | Diff.Banked -> Core.Engine.Banked
          in
          ignore (Core.Engine.run model state);
          Measure.add_stats c state.stats;
          Option.iter (Measure.add_account c) (Ximd_obs.Sink.account sink))
        (Diff.applicable_models case.program))
    t.cases;
  let layer =
    [ Measure.m "state.create_us" "us" (Trace.median_us tr "state.create");
      Measure.m "proggen.generate_us" "us"
        (Trace.median_us tr "proggen.generate");
      Measure.m "ref.observe_us" "us" (Trace.median_us tr "ref.observe");
      Measure.m "diff.observe_engine_us" "us"
        (Trace.median_us tr "diff.observe_engine");
      Measure.m "diff.models_per_case" "count" (Sample.mean models) ]
    @ Measure.counts_metrics c
  in
  (phase, layer, tr)
