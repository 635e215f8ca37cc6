(* The engine's int-coded SSET labels against the signature definition
   of the partition (DESIGN.md §5): after every step,
   [Partition.of_labels state.labels] must equal [Partition.of_signatures]
   of the normalised signatures the FUs just executed (per-FU
   sequencing), or of each bank's next address (banked sequencing).
   Checked on random control-parcel/PC vectors and on every cycle of a
   traced run of each suites/ case. *)

open Ximd_isa
open Ximd_core
module Gen = QCheck2.Gen

(* Per-FU sequencing, from the state before the step: a live FU with
   its PC in the program executes its own parcel's control operation;
   every other FU counts as halted. *)
let executed_signatures (state : State.t) =
  let len = Program.length state.program in
  Array.init (State.n_fus state) (fun fu ->
    let pc = state.pcs.(fu) in
    if state.halted.(fu) || pc < 0 || pc >= len then Control.Halt
    else
      Control.normalised_signature (Program.row state.program pc).(fu).control
        ~pc)

(* Banked sequencing, from the state after the step: each FU takes its
   bank leader's next address, or halt. *)
let bank_signatures (state : State.t) =
  let n = State.n_fus state and len = Program.length state.program in
  Array.init n (fun fu ->
    let leader = if fu < n / 2 then 0 else n / 2 in
    let pc = state.pcs.(leader) in
    if state.halted.(leader) || pc < 0 || pc >= len then Control.Halt
    else Control.goto pc)

(* Steps once and returns the partition the definition predicts. *)
let step_expected model ?tracer (state : State.t) =
  match model with
  | Engine.Per_fu ->
    let sigs = executed_signatures state in
    Engine.step model ?tracer state;
    Partition.of_signatures sigs
  | Engine.Banked ->
    Engine.step model ?tracer state;
    Partition.of_signatures (bank_signatures state)
  | Engine.Global ->
    Engine.step model ?tracer state;
    Partition.initial ~n:(State.n_fus state)

(* Labels are the lowest member of each SSET. *)
let labels_canonical (state : State.t) =
  List.for_all
    (fun sset ->
      let low = List.hd sset in
      List.for_all (fun fu -> state.labels.(fu) = low) sset)
    (Partition.ssets (State.partition state))

let agrees (state : State.t) expected =
  Partition.equal (Partition.of_labels state.labels) expected
  && Partition.equal (State.partition state) expected
  && labels_canonical state

(* --- Random control-parcel/PC vectors ------------------------------- *)

(* Small address and FU ranges so that equal signatures, and unequal
   ones that normalise equal, are common. *)
let gen_control ~n ~len =
  let open Gen in
  let target =
    oneof [ map (fun a -> Control.Addr a) (int_bound (len - 1));
            return Control.Fallthrough ]
  in
  let cond =
    oneof
      [ return Cond.Always1; return Cond.Always2;
        map (fun j -> Cond.Cc j) (int_bound (n - 1));
        map (fun j -> Cond.Ss j) (int_bound (n - 1));
        map (fun m -> Cond.All_ss m) (int_range 1 ((1 lsl n) - 1));
        map (fun m -> Cond.Any_ss m) (int_range 1 ((1 lsl n) - 1)) ]
  in
  frequency
    [ (1, return Control.Halt);
      (6, map3 (fun cond t1 t2 -> Control.Branch { cond; t1; t2 }) cond target
            target) ]

type vector = {
  model : Engine.model;
  rows : Control.t array array;
  pcs : int array;  (* [len] = one past the end: falls off *)
  halted : bool array;
}

let gen_vector =
  let open Gen in
  oneofl [ Engine.Per_fu; Engine.Banked ] >>= fun model ->
  (match model with
   | Engine.Banked -> map (fun h -> 2 * h) (int_range 1 4)
   | Engine.Per_fu | Engine.Global -> int_range 1 8)
  >>= fun n ->
  int_range 1 4 >>= fun len ->
  let row =
    match model with
    | Engine.Banked ->
      (* bank-consistent: one control per bank *)
      map2
        (fun lo hi -> Array.init n (fun fu -> if fu < n / 2 then lo else hi))
        (gen_control ~n ~len) (gen_control ~n ~len)
    | Engine.Per_fu | Engine.Global ->
      array_repeat n (gen_control ~n ~len)
  in
  array_repeat len row >>= fun rows ->
  array_repeat n (int_bound len) >>= fun pcs ->
  array_repeat n (frequency [ (3, return false); (1, return true) ])
  >>= fun halted -> return { model; rows; pcs; halted }

let print_vector v =
  let n = Array.length v.pcs in
  String.concat "\n"
    (Printf.sprintf "%s, %d FUs"
       (match v.model with
        | Engine.Per_fu -> "per-FU"
        | Engine.Global -> "global"
        | Engine.Banked -> "banked")
       n
     :: List.init n (fun fu ->
          Printf.sprintf "FU%d pc=%d%s %s" fu v.pcs.(fu)
            (if v.halted.(fu) then " halted" else "")
            (String.concat " ; "
               (Array.to_list
                  (Array.map (fun r -> Control.to_string r.(fu)) v.rows)))))

let prop_random_vectors =
  QCheck2.Test.make ~count:2000 ~name:"labels = signature partition (random)"
    ~print:print_vector gen_vector (fun v ->
      let n = Array.length v.pcs in
      let program =
        Program.make ~n_fus:n (Array.map (Array.map Parcel.nop) v.rows)
      in
      let config =
        Config.make ~n_fus:n ~sequencer:Config.Prototype
          ~hazard_policy:Ximd_machine.Hazard.Record ()
      in
      let state = State.create ~config program in
      Array.blit v.pcs 0 state.pcs 0 n;
      Array.blit v.halted 0 state.halted 0 n;
      let expected = step_expected v.model state in
      agrees state expected
      || QCheck2.Test.fail_reportf "labels %s: %s, expected %s"
           (String.concat ","
              (Array.to_list (Array.map string_of_int state.labels)))
           (Partition.to_string (Partition.of_labels state.labels))
           (Partition.to_string expected))

(* --- Every cycle of the suites/ corpus ------------------------------ *)

let engine_model : Ximd_gen.Diff.model -> Engine.model = function
  | Per_fu -> Engine.Per_fu
  | Global -> Engine.Global
  | Banked -> Engine.Banked

let test_suite_case path () =
  match Ximd_gen.Conform.load path with
  | Error e -> Alcotest.fail e
  | Ok case ->
    let config =
      { case.config with hazard_policy = Ximd_machine.Hazard.Record }
    in
    let fuel = min config.max_cycles 5_000 in
    List.iter
      (fun (m : Ximd_gen.Diff.model) ->
        let model = engine_model m in
        let state = State.create ~config case.program in
        let tracer = Tracer.create () in
        let expected = ref [ State.partition state ] in
        while (not (State.all_halted state)) && state.cycle < fuel do
          let cycle = state.cycle in
          let e = step_expected model ~tracer state in
          if not (agrees state e) then
            Alcotest.failf "%s (%s) cycle %d: labels give %s, expected %s"
              path (Ximd_gen.Diff.model_name m) cycle
              (Partition.to_string (State.partition state))
              (Partition.to_string e);
          expected := e :: !expected
        done;
        (* the tracer saw, at the top of each cycle, what the previous
           step produced *)
        let traced =
          List.map
            (fun (r : Tracer.row) -> Partition.to_string r.partition)
            (Tracer.rows tracer)
        in
        let predicted =
          List.filteri
            (fun i _ -> i < List.length traced)
            (List.rev_map Partition.to_string !expected)
        in
        Alcotest.(check (list string))
          (Printf.sprintf "%s (%s) traced partitions" path
             (Ximd_gen.Diff.model_name m))
          predicted traced)
      case.models

let suites_dir = "../suites"

let suite =
  [ ( "labels",
      QCheck_alcotest.to_alcotest prop_random_vectors
      :: List.map
           (fun path ->
             Alcotest.test_case (Filename.basename path) `Quick
               (test_suite_case path))
           (if Sys.file_exists suites_dir then
              Ximd_gen.Conform.discover suites_dir
            else []) ) ]
