(* Allocation gate: with no hooks attached (no tracer, sink, fault
   session or watchdog), a steady-state engine cycle allocates nothing,
   under every sequencing model.

   Each case warms a run up, then counts minor words over [k] and over
   the next [2k] cycles.  The probe's own boxing is the same on both
   calls, so it cancels in the difference, which is then exactly [k]
   times the words one cycle allocates. *)

open Ximd_core
module W = Ximd_workloads

let warmup = 64
let k = 128

let words_of f steps =
  let w0 = Gc.minor_words () in
  for _ = 1 to steps do
    f ()
  done;
  Gc.minor_words () -. w0

let gate model (v : W.Workload.variant) () =
  let state = State.create ~config:v.config v.program in
  v.setup state;
  for _ = 1 to warmup do
    Engine.step model state
  done;
  let step () = Engine.step model state in
  let once = words_of step k in
  let twice = words_of step (2 * k) in
  if State.all_halted state || state.cycle <> warmup + (3 * k) then
    Alcotest.failf "the run ended at cycle %d, inside the measured window"
      state.cycle;
  Alcotest.(check int)
    (Printf.sprintf "minor words over %d steady-state cycles" k)
    0
    (int_of_float (twice -. once))

(* Sizes chosen so every run is still going after [warmup + 3k]
   cycles: iosync's devices answer only after 500 cycles, so the window
   sits in its polling loops; bitcount's window crosses its all-FU
   barrier several times. *)
let workloads =
  let slow = { W.Iosync.first = 500; second = 500; third = 500 } in
  [ ( "minmax",
      W.Minmax.make ~data:(Array.init 400 (fun i -> (i * 7919 mod 1000) - 500))
        () );
    ("classify", W.Classify.make ~n:400 ());
    ("ll1", W.Livermore.loop1 ~n:400 ());
    ("iosync", W.Iosync.make ~p1_latencies:slow ~p2_latencies:slow ());
    ( "bitcount",
      W.Bitcount.make
        ~data:(Array.init 125 (fun i -> Int32.of_int (i * 0x9e3779b9)))
        () ) ]

let cases =
  List.concat_map
    (fun (name, (w : W.Workload.t)) ->
      let vliw = Option.get w.vliw in
      List.map
        (fun (model, label, v) ->
          Alcotest.test_case
            (Printf.sprintf "%s/%s: 0 words per cycle" name label)
            `Quick (gate model v))
        [ (Engine.Per_fu, "xsim", w.ximd);
          (Engine.Global, "vsim", vliw);
          (Engine.Banked, "t500", vliw) ])
    workloads

(* The workloads above leave some opcodes out (float compares, ftoi):
   every ALU operation, on float-valued operands, allocates nothing. *)
let test_alu () =
  let module Alu = Ximd_machine.Alu in
  let open Ximd_isa in
  let a = Value.of_float 1.5 and b = Value.of_float (-2.25) in
  let last = ref Value.zero and cc = ref false in
  let check name f =
    let once = words_of f k and twice = words_of f (2 * k) in
    Alcotest.(check int) (name ^ ": minor words") 0
      (int_of_float (twice -. once))
  in
  List.iter
    (fun op ->
      check (Opcode.binop_to_string op) (fun () ->
        last := Alu.eval_bin_exn op a b))
    Opcode.all_binops;
  List.iter
    (fun op ->
      check (Opcode.unop_to_string op) (fun () -> last := Alu.eval_un op a))
    Opcode.all_unops;
  List.iter
    (fun op ->
      check (Opcode.cmpop_to_string op) (fun () ->
        cc := Alu.eval_cmp op a b))
    Opcode.all_cmpops

let suite =
  [ ( "allocation",
      Alcotest.test_case "every ALU op: 0 words" `Quick test_alu :: cases ) ]
