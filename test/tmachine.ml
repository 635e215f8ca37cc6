(* Unit tests for the machine substrates: register file, memory, ALU,
   I/O ports, hazard log. *)

open Ximd_isa
module M = Ximd_machine

let value = Alcotest.testable Value.pp Value.equal

let fresh_log () = M.Hazard.create_log M.Hazard.Record

(* --- Regfile --------------------------------------------------------- *)

let test_regfile_staging () =
  let rf = M.Regfile.create () in
  let log = fresh_log () in
  let r = Reg.make 7 in
  M.Regfile.stage_write rf ~fu:0 r (Value.of_int 42);
  (* Staged writes invisible until commit — start-of-cycle reads. *)
  Alcotest.check value "before commit" Value.zero (M.Regfile.read rf r);
  M.Regfile.commit rf ~cycle:0 ~log;
  Alcotest.check value "after commit" (Value.of_int 42) (M.Regfile.read rf r);
  Alcotest.(check int) "no hazards" 0 (M.Hazard.count log)

let test_regfile_multiwrite_hazard () =
  let rf = M.Regfile.create () in
  let log = fresh_log () in
  let r = Reg.make 9 in
  M.Regfile.stage_write rf ~fu:2 r (Value.of_int 1);
  M.Regfile.stage_write rf ~fu:5 r (Value.of_int 2);
  M.Regfile.commit rf ~cycle:3 ~log;
  Alcotest.(check int) "one hazard" 1 (M.Hazard.count log);
  (match M.Hazard.events log with
   | [ { cycle = 3; hazard = M.Hazard.Multiple_reg_write { reg; fus } } ] ->
     Alcotest.(check int) "reg" 9 (Reg.index reg);
     Alcotest.(check (list int)) "fus" [ 2; 5 ] (List.sort compare fus)
   | _ -> Alcotest.fail "expected Multiple_reg_write at cycle 3");
  (* Documented recovery: highest FU wins. *)
  Alcotest.check value "highest FU wins" (Value.of_int 2)
    (M.Regfile.read rf r)

let test_regfile_raise_policy () =
  let rf = M.Regfile.create () in
  let log = M.Hazard.create_log M.Hazard.Raise in
  let r = Reg.make 1 in
  M.Regfile.stage_write rf ~fu:0 r Value.one;
  M.Regfile.stage_write rf ~fu:1 r Value.one;
  Alcotest.(check bool) "raises" true
    (match M.Regfile.commit rf ~cycle:0 ~log with
     | exception M.Hazard.Error _ -> true
     | () -> false)

let test_regfile_same_fu_double_write_is_hazard () =
  (* Even a single FU writing one register twice in a cycle is flagged —
     the parcel shapes make it impossible on the real machine, so it
     indicates a simulator-user bug. *)
  let rf = M.Regfile.create () in
  let log = fresh_log () in
  let r = Reg.make 4 in
  M.Regfile.stage_write rf ~fu:3 r Value.one;
  M.Regfile.stage_write rf ~fu:3 r (Value.of_int 2);
  M.Regfile.commit rf ~cycle:0 ~log;
  Alcotest.(check int) "flagged" 1 (M.Hazard.count log)

(* --- Memory ---------------------------------------------------------- *)

let test_memory_staging () =
  let mem = M.Memory.create ~words:64 () in
  let log = fresh_log () in
  M.Memory.stage_write mem ~fu:0 ~cycle:0 ~log 10 (Value.of_int 5);
  Alcotest.check value "before commit" Value.zero
    (M.Memory.read mem ~fu:1 ~cycle:0 ~log 10);
  M.Memory.commit mem ~cycle:0 ~log;
  Alcotest.check value "after commit" (Value.of_int 5)
    (M.Memory.read mem ~fu:1 ~cycle:1 ~log 10);
  Alcotest.(check int) "no hazards" 0 (M.Hazard.count log)

let test_memory_bounds () =
  let mem = M.Memory.create ~words:16 () in
  let log = fresh_log () in
  let v = M.Memory.read mem ~fu:0 ~cycle:0 ~log 99 in
  Alcotest.check value "oob read returns zero" Value.zero v;
  M.Memory.stage_write mem ~fu:1 ~cycle:0 ~log (-1) Value.one;
  Alcotest.(check int) "two hazards" 2 (M.Hazard.count log);
  Alcotest.check_raises "set raises"
    (Invalid_argument "Memory.set: address 16 out of bounds") (fun () ->
      M.Memory.set mem 16 Value.one)

let test_memory_multiwrite () =
  let mem = M.Memory.create ~words:16 () in
  let log = fresh_log () in
  M.Memory.stage_write mem ~fu:0 ~cycle:7 ~log 3 (Value.of_int 10);
  M.Memory.stage_write mem ~fu:6 ~cycle:7 ~log 3 (Value.of_int 20);
  M.Memory.commit mem ~cycle:7 ~log;
  Alcotest.(check int) "hazard" 1 (M.Hazard.count log);
  Alcotest.check value "highest FU wins" (Value.of_int 20) (M.Memory.get mem 3)

let test_memory_distributed_banks () =
  (* Prototype organisation: 4 FUs, 16 words, 4-word banks. *)
  let mem =
    M.Memory.create ~organisation:(M.Memory.Distributed { n_fus = 4 })
      ~words:16 ()
  in
  let log = fresh_log () in
  (* FU 1 owns words 4..7. *)
  M.Memory.stage_write mem ~fu:1 ~cycle:0 ~log 5 (Value.of_int 9);
  M.Memory.commit mem ~cycle:0 ~log;
  Alcotest.check value "own bank" (Value.of_int 9)
    (M.Memory.read mem ~fu:1 ~cycle:1 ~log 5);
  Alcotest.(check int) "no hazard yet" 0 (M.Hazard.count log);
  (* FU 0 reaching into FU 1's bank is a fault. *)
  let v = M.Memory.read mem ~fu:0 ~cycle:1 ~log 5 in
  Alcotest.check value "foreign bank reads zero" Value.zero v;
  Alcotest.(check int) "hazard recorded" 1 (M.Hazard.count log)

let test_memory_distributed_divides () =
  Alcotest.(check bool) "uneven banks rejected" true
    (match
       M.Memory.create ~organisation:(M.Memory.Distributed { n_fus = 3 })
         ~words:16 ()
     with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* --- Alu -------------------------------------------------------------- *)

let eval_ok op a b =
  match M.Alu.eval_bin op (Value.of_int a) (Value.of_int b) with
  | Ok v -> v
  | Error M.Alu.Division_by_zero -> Alcotest.fail "unexpected fault"

let test_alu_int_arith () =
  Alcotest.check value "add" (Value.of_int 7) (eval_ok Opcode.Iadd 3 4);
  Alcotest.check value "sub" (Value.of_int (-1)) (eval_ok Opcode.Isub 3 4);
  Alcotest.check value "mul" (Value.of_int 12) (eval_ok Opcode.Imult 3 4);
  Alcotest.check value "div rounds to zero" (Value.of_int (-2))
    (eval_ok Opcode.Idiv (-7) 3);
  Alcotest.check value "mod sign of dividend" (Value.of_int (-1))
    (eval_ok Opcode.Imod (-7) 3);
  (* 32-bit wraparound. *)
  Alcotest.check value "add wraps" (Value.of_int32 Int32.min_int)
    (eval_ok Opcode.Iadd 0x7fffffff 1);
  Alcotest.check value "mul wraps" (Value.of_int32 0x80000000l)
    (eval_ok Opcode.Imult 0x40000000 2)

let test_alu_div_by_zero () =
  List.iter
    (fun op ->
      match M.Alu.eval_bin op Value.one Value.zero with
      | Error M.Alu.Division_by_zero -> ()
      | Ok _ -> Alcotest.fail "division by zero not detected")
    [ Opcode.Idiv; Opcode.Imod ]

let test_alu_shifts_masked () =
  (* Shift amounts use only the low five bits of b. *)
  Alcotest.check value "shl 33 = shl 1" (Value.of_int 2)
    (eval_ok Opcode.Shl 1 33);
  Alcotest.check value "shr logical" (Value.of_int 0x7fffffff)
    (eval_ok Opcode.Shr (-1) 1);
  Alcotest.check value "sar arithmetic" (Value.of_int (-1))
    (eval_ok Opcode.Sar (-1) 1);
  Alcotest.check value "shl by 0" (Value.of_int 5) (eval_ok Opcode.Shl 5 32)

let test_alu_logic () =
  Alcotest.check value "and" (Value.of_int 0b1000) (eval_ok Opcode.And 0b1100 0b1010);
  Alcotest.check value "or" (Value.of_int 0b1110) (eval_ok Opcode.Or 0b1100 0b1010);
  Alcotest.check value "xor" (Value.of_int 0b0110) (eval_ok Opcode.Xor 0b1100 0b1010);
  Alcotest.check value "not" (Value.of_int (-1))
    (M.Alu.eval_un Opcode.Not Value.zero)

let test_alu_float_single_rounding () =
  (* The sum rounds to float32 each step: 1e8 + 1 is not representable. *)
  let a = Value.of_float 1e8 and b = Value.of_float 1.0 in
  (match M.Alu.eval_bin Opcode.Fadd a b with
   | Ok v ->
     Alcotest.(check (float 0.)) "float32 absorption" 1e8 (Value.to_float v)
   | Error _ -> Alcotest.fail "no fault expected");
  match M.Alu.eval_bin Opcode.Fdiv (Value.of_float 1.0) (Value.of_float 0.0)
  with
  | Ok v ->
    Alcotest.(check bool) "float div by zero is inf" true
      (Value.to_float v = infinity)
  | Error _ -> Alcotest.fail "IEEE division produces infinity, not a fault"

let test_alu_conversions () =
  Alcotest.check value "itof" (Value.of_float 5.0)
    (M.Alu.eval_un Opcode.Itof (Value.of_int 5));
  Alcotest.check value "ftoi truncates" (Value.of_int 2)
    (M.Alu.eval_un Opcode.Ftoi (Value.of_float 2.9));
  Alcotest.check value "ftoi negative" (Value.of_int (-2))
    (M.Alu.eval_un Opcode.Ftoi (Value.of_float (-2.9)))

let test_alu_compares () =
  let c op a b = M.Alu.eval_cmp op (Value.of_int a) (Value.of_int b) in
  Alcotest.(check bool) "lt" true (c Opcode.Lt (-5) 3);
  Alcotest.(check bool) "signed lt" false (c Opcode.Lt 3 (-5));
  Alcotest.(check bool) "eq" true (c Opcode.Eq 7 7);
  Alcotest.(check bool) "ge" true (c Opcode.Ge 7 7);
  let f op a b = M.Alu.eval_cmp op (Value.of_float a) (Value.of_float b) in
  Alcotest.(check bool) "flt" true (f Opcode.Flt 1.5 2.5);
  Alcotest.(check bool) "fge" false (f Opcode.Fge 1.5 2.5)

(* --- Ioport ----------------------------------------------------------- *)

let test_ioport_absolute () =
  let io = M.Ioport.create () in
  let log = fresh_log () in
  M.Ioport.script io ~port:0
    [ (M.Ioport.At 5, Value.of_int 11); (M.Ioport.At 9, Value.of_int 22) ];
  Alcotest.check value "not ready" Value.zero
    (M.Ioport.read io ~fu:0 ~cycle:4 ~log 0);
  Alcotest.check value "ready" (Value.of_int 11)
    (M.Ioport.read io ~fu:0 ~cycle:5 ~log 0);
  Alcotest.check value "second not yet" Value.zero
    (M.Ioport.read io ~fu:0 ~cycle:6 ~log 0);
  Alcotest.check value "second" (Value.of_int 22)
    (M.Ioport.read io ~fu:0 ~cycle:20 ~log 0);
  Alcotest.check value "exhausted" Value.zero
    (M.Ioport.read io ~fu:0 ~cycle:30 ~log 0);
  Alcotest.(check int) "pending drained" 0 (M.Ioport.pending io ~port:0)

let test_ioport_relative () =
  let io = M.Ioport.create () in
  let log = fresh_log () in
  M.Ioport.script io ~port:2
    [ (M.Ioport.After 10, Value.of_int 1); (M.Ioport.After 10, Value.of_int 2) ];
  Alcotest.check value "gap from zero" Value.zero
    (M.Ioport.read io ~fu:0 ~cycle:9 ~log 2);
  Alcotest.check value "first at 10" (Value.of_int 1)
    (M.Ioport.read io ~fu:0 ~cycle:12 ~log 2);
  (* Second becomes ready 10 cycles after consumption (12), i.e. 22. *)
  Alcotest.check value "second not at 21" Value.zero
    (M.Ioport.read io ~fu:0 ~cycle:21 ~log 2);
  Alcotest.check value "second at 22" (Value.of_int 2)
    (M.Ioport.read io ~fu:0 ~cycle:22 ~log 2)

let test_ioport_write_log () =
  let io = M.Ioport.create () in
  let log = fresh_log () in
  M.Ioport.write io ~fu:0 ~cycle:3 ~log 1 (Value.of_int 7);
  M.Ioport.write io ~fu:1 ~cycle:5 ~log 1 (Value.of_int 8);
  let out = M.Ioport.output io ~port:1 in
  Alcotest.(check (list (pair int int))) "write log in order"
    [ (3, 7); (5, 8) ]
    (List.map (fun (c, v) -> (c, Value.to_int v)) out)

let test_ioport_range () =
  let io = M.Ioport.create ~n_ports:4 () in
  let log = fresh_log () in
  Alcotest.check value "bad port reads zero" Value.zero
    (M.Ioport.read io ~fu:2 ~cycle:0 ~log 9);
  M.Ioport.write io ~fu:2 ~cycle:0 ~log 9 Value.one;
  Alcotest.(check int) "two hazards" 2 (M.Hazard.count log)

let test_ioport_script_validation () =
  let io = M.Ioport.create () in
  Alcotest.(check bool) "zero value rejected" true
    (match M.Ioport.script io ~port:0 [ (M.Ioport.At 1, Value.zero) ] with
     | exception Invalid_argument _ -> true
     | () -> false);
  Alcotest.(check bool) "negative time rejected" true
    (match M.Ioport.script io ~port:0 [ (M.Ioport.At (-1), Value.one) ] with
     | exception Invalid_argument _ -> true
     | () -> false)

(* --- Memory.fold_nonzero against the naive scan ----------------------- *)

module Gen = QCheck2.Gen

type mem_op =
  | Set of int * int
  | Stage of { fu : int; addr : int; v : int }
  | Commit
  | Reset

(* Memories of every shape the fold must handle: a partial single page
   (64, 192 words) and the research model's 64 pages, each shared and
   split into four per-FU banks. *)
let gen_memory_shape =
  Gen.pair
    (Gen.oneofl [ 64; 192; 65536 ])
    (Gen.oneofl [ M.Memory.Shared; M.Memory.Distributed { n_fus = 4 } ])

let gen_mem_ops words =
  (* Small values, zero often, so words are overwritten with zero and
     allocated pages come to hold zeros. *)
  let addr = Gen.oneof [ Gen.int_bound (words - 1); Gen.int_bound 7 ] in
  let v = Gen.frequency [ (2, Gen.return 0); (3, Gen.int_range (-3) 3) ] in
  Gen.list_size (Gen.int_bound 40)
    (Gen.frequency
       [ (4, Gen.map2 (fun a v -> Set (a, v)) addr v);
         ( 4,
           Gen.map3
             (fun fu addr v -> Stage { fu; addr; v })
             (Gen.int_bound 3) addr v );
         (3, Gen.return Commit);
         (1, Gen.return Reset) ])

let apply_mem_op mem log = function
  | Set (a, v) -> M.Memory.set mem a (Value.of_int v)
  | Stage { fu; addr; v } ->
    M.Memory.stage_write mem ~fu ~cycle:0 ~log addr (Value.of_int v)
  | Commit -> M.Memory.commit mem ~cycle:0 ~log
  | Reset -> M.Memory.reset mem

let prop_fold_nonzero_is_scan =
  QCheck2.Test.make ~count:300
    ~name:"Memory.fold_nonzero = get scan of every word"
    (Gen.bind gen_memory_shape (fun (words, organisation) ->
       Gen.map3
         (fun a v ops -> (words, organisation, a, v, ops))
         (Gen.int_bound (words - 1))
         (Gen.int_range 1 9) (gen_mem_ops words)))
    (fun (words, organisation, a, v, ops) ->
      let mem = M.Memory.create ~organisation ~words () in
      let log = fresh_log () in
      (* a word written non-zero, then zero: its page stays allocated *)
      M.Memory.set mem a (Value.of_int v);
      M.Memory.set mem a Value.zero;
      List.iter (apply_mem_op mem log) ops;
      let scan = ref [] in
      for addr = words - 1 downto 0 do
        let x = M.Memory.get mem addr in
        if not (Value.equal x Value.zero) then scan := (addr, x) :: !scan
      done;
      let fold =
        List.rev
          (M.Memory.fold_nonzero (fun addr x acc -> (addr, x) :: acc) mem [])
      in
      fold = !scan)

(* --- Hazard equality is rendered-text equality ------------------------- *)

(* Small domains so that pairs differing in a single field are common. *)
let gen_hazard =
  let small = Gen.int_range (-1) 2 in
  let fus = Gen.list_size (Gen.int_bound 2) (Gen.int_bound 2) in
  Gen.oneof
    [ Gen.map2
        (fun r fus -> M.Hazard.Multiple_reg_write { reg = Reg.make r; fus })
        (Gen.int_bound 2) fus;
      Gen.map2
        (fun addr fus -> M.Hazard.Multiple_mem_write { addr; fus })
        small fus;
      Gen.map2
        (fun addr fu -> M.Hazard.Mem_out_of_bounds { addr; fu })
        small small;
      Gen.map (fun fu -> M.Hazard.Div_by_zero { fu }) small;
      Gen.map2 (fun cc fu -> M.Hazard.Undefined_cc { cc; fu }) small small;
      Gen.map2 (fun fu addr -> M.Hazard.Fell_off_end { fu; addr }) small small;
      Gen.map2
        (fun port fu -> M.Hazard.Port_out_of_range { port; fu })
        small small ]

(* A quarter of the pairs are a hazard and a structurally equal but
   physically distinct copy of it. *)
let gen_hazard_pair =
  Gen.bind gen_hazard (fun h1 ->
    Gen.frequency
      [ (1, Gen.return (h1, Marshal.from_string (Marshal.to_string h1 []) 0));
        (3, Gen.map (fun h2 -> (h1, h2)) gen_hazard) ])

let prop_hazard_equal_iff_rendered_equal =
  QCheck2.Test.make ~count:2000
    ~name:"Hazard: h1 = h2 iff to_string h1 = to_string h2" gen_hazard_pair
    (fun (h1, h2) ->
      h1 = h2 = String.equal (M.Hazard.to_string h1) (M.Hazard.to_string h2))

let suite =
  [ ( "machine",
      [ Alcotest.test_case "regfile staging" `Quick test_regfile_staging;
        Alcotest.test_case "regfile multi-write hazard" `Quick
          test_regfile_multiwrite_hazard;
        Alcotest.test_case "regfile raise policy" `Quick
          test_regfile_raise_policy;
        Alcotest.test_case "regfile same-FU double write" `Quick
          test_regfile_same_fu_double_write_is_hazard;
        Alcotest.test_case "memory staging" `Quick test_memory_staging;
        Alcotest.test_case "memory bounds" `Quick test_memory_bounds;
        Alcotest.test_case "memory multi-write" `Quick test_memory_multiwrite;
        Alcotest.test_case "distributed banks" `Quick
          test_memory_distributed_banks;
        Alcotest.test_case "distributed must divide" `Quick
          test_memory_distributed_divides;
        Alcotest.test_case "alu int arithmetic" `Quick test_alu_int_arith;
        Alcotest.test_case "alu division by zero" `Quick
          test_alu_div_by_zero;
        Alcotest.test_case "alu shift masking" `Quick test_alu_shifts_masked;
        Alcotest.test_case "alu logic" `Quick test_alu_logic;
        Alcotest.test_case "alu float32 rounding" `Quick
          test_alu_float_single_rounding;
        Alcotest.test_case "alu conversions" `Quick test_alu_conversions;
        Alcotest.test_case "alu compares" `Quick test_alu_compares;
        Alcotest.test_case "ioport absolute" `Quick test_ioport_absolute;
        Alcotest.test_case "ioport relative" `Quick test_ioport_relative;
        Alcotest.test_case "ioport write log" `Quick test_ioport_write_log;
        Alcotest.test_case "ioport range" `Quick test_ioport_range;
        Alcotest.test_case "ioport script validation" `Quick
          test_ioport_script_validation ]
      @ List.map QCheck_alcotest.to_alcotest
          [ prop_fold_nonzero_is_scan; prop_hazard_equal_iff_rendered_equal ]
    ) ]
