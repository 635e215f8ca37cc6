(* The int-coded ALU and Value against a restatement of the 32-bit
   semantics on Int32: every binop, unop and cmpop on random operands
   mixed with edge values (min_int32, -1, shift amounts >= 32, NaNs,
   signed zeros, infinities). *)

open Ximd_isa
module Alu = Ximd_machine.Alu
module Gen = QCheck2.Gen

let fl = Int32.float_of_bits
let bits = Int32.bits_of_float

let ref_bin (op : Opcode.binop) a b =
  let shift f = f a (Int32.to_int b land 31) in
  match op with
  | Iadd -> Some (Int32.add a b)
  | Isub -> Some (Int32.sub a b)
  | Imult -> Some (Int32.mul a b)
  | Idiv -> if b = 0l then None else Some (Int32.div a b)
  | Imod -> if b = 0l then None else Some (Int32.rem a b)
  | And -> Some (Int32.logand a b)
  | Or -> Some (Int32.logor a b)
  | Xor -> Some (Int32.logxor a b)
  | Shl -> Some (shift Int32.shift_left)
  | Shr -> Some (shift Int32.shift_right_logical)
  | Sar -> Some (shift Int32.shift_right)
  | Fadd -> Some (bits (fl a +. fl b))
  | Fsub -> Some (bits (fl a -. fl b))
  | Fmult -> Some (bits (fl a *. fl b))
  | Fdiv -> Some (bits (fl a /. fl b))

let ref_un (op : Opcode.unop) a =
  match op with
  | Mov -> a
  | Ineg -> Int32.neg a
  | Not -> Int32.lognot a
  | Fneg -> bits (-.fl a)
  | Itof -> bits (Int32.to_float a)
  | Ftoi -> Int32.of_float (fl a)

let ref_cmp (op : Opcode.cmpop) a b =
  let i = Int32.compare a b and f = compare (fl a) (fl b) in
  match op with
  | Eq -> i = 0
  | Ne -> i <> 0
  | Lt -> i < 0
  | Le -> i <= 0
  | Gt -> i > 0
  | Ge -> i >= 0
  | Feq -> f = 0
  | Fne -> f <> 0
  | Flt -> f < 0
  | Fle -> f <= 0
  | Fgt -> f > 0
  | Fge -> f >= 0

let edges =
  [ Int32.min_int; Int32.max_int; -1l; 0l; 1l; 2l; 7l; -7l; 31l; 32l; 33l;
    63l; 64l; -31l; -32l; -33l;
    0x7fc00000l (* quiet NaN *); 0xffc00000l (* negative NaN *);
    0x7f800001l (* signalling NaN *); 0x7f800000l (* +inf *);
    0xff800000l (* -inf *); 0x80000000l (* -0.0 *); 0x3f800000l (* 1.0 *);
    0xbf800000l (* -1.0 *); 0x4f000000l (* 2^31 *); 0xcf000001l ]

let word = Gen.oneof [ Gen.oneofl edges; Gen.int32 ]

let v = Value.of_int32

let show_pair (a, b) = Printf.sprintf "(0x%08lx, 0x%08lx)" a b

let prop_alu_matches_int32 =
  QCheck2.Test.make ~count:3000 ~name:"int-coded ALU = Int32 reference"
    ~print:show_pair (Gen.pair word word) (fun (a, b) ->
      List.for_all
        (fun op ->
          let got =
            match Alu.eval_bin op (v a) (v b) with
            | Ok r -> Some (Value.to_int32 r)
            | Error Alu.Division_by_zero -> None
          in
          got = ref_bin op a b
          || QCheck2.Test.fail_reportf "%s" (Opcode.binop_to_string op))
        Opcode.all_binops
      && List.for_all
           (fun op ->
             Value.to_int32 (Alu.eval_un op (v a)) = ref_un op a
             || QCheck2.Test.fail_reportf "%s" (Opcode.unop_to_string op))
           Opcode.all_unops
      && List.for_all
           (fun op ->
             Alu.eval_cmp op (v a) (v b) = ref_cmp op a b
             || QCheck2.Test.fail_reportf "%s" (Opcode.cmpop_to_string op))
           Opcode.all_cmpops)

let prop_value_round_trips =
  QCheck2.Test.make ~count:3000 ~name:"Value conversions = Int32 views"
    ~print:(fun (a, n) -> Printf.sprintf "0x%08lx, %d" a n)
    (Gen.pair word Gen.int) (fun (a, n) ->
      Value.to_int32 (v a) = a
      && Value.equal (Value.of_int32 (Value.to_int32 (v a))) (v a)
      && Value.to_int (v a) = Int32.to_int a
      && Value.equal (Value.of_int n) (v (Int32.of_int n))
      && Value.to_string (v a) = Int32.to_string a
      && Format.asprintf "%a" Value.pp (v a) = Int32.to_string a
      && Format.asprintf "%a" Value.pp_hex (v a) = Printf.sprintf "0x%08lx" a
      && Int64.bits_of_float (Value.to_float (v a))
         = Int64.bits_of_float (fl a)
      && Value.equal (Value.of_float (fl a)) (v (bits (fl a)))
      && Value.is_true (v a) = (a <> 0l))

let prop_value_order =
  QCheck2.Test.make ~count:1000 ~name:"Value.compare = Int32.compare"
    ~print:show_pair (Gen.pair word word) (fun (a, b) ->
      Int.compare (Value.compare (v a) (v b)) 0
      = Int.compare (Int32.compare a b) 0
      && Value.equal (v a) (v b) = Int32.equal a b)

(* The wrap-around cases named in the ISA: each against its Int32 value. *)
let test_wraps () =
  let bin op a b =
    match Alu.eval_bin op (v a) (v b) with
    | Ok r -> Value.to_int32 r
    | Error _ -> Alcotest.fail "unexpected fault"
  in
  let check = Alcotest.(check int32) in
  check "min_int32 / -1 wraps" Int32.min_int (bin Idiv Int32.min_int (-1l));
  check "min_int32 mod -1" 0l (bin Imod Int32.min_int (-1l));
  check "shift amount mod 32" 2l (bin Shl 1l 33l);
  check "shr is logical" 0x7fffffffl (bin Shr (-1l) 1l);
  check "shr of a negative by 0" (-1l) (bin Shr (-1l) 32l);
  check "sar keeps the sign" (-1l) (bin Sar (-2l) 1l);
  check "mult wraps" 0l (bin Imult Int32.min_int 2l);
  check "neg min_int32" Int32.min_int
    (Value.to_int32 (Alu.eval_un Ineg (v Int32.min_int)));
  Alcotest.(check bool) "NaN feq NaN (compare's order)" true
    (Alu.eval_cmp Feq (v 0x7fc00000l) (v 0x7fc00000l));
  Alcotest.(check bool) "NaN flt -inf (compare's order)" true
    (Alu.eval_cmp Flt (v 0x7fc00000l) (v 0xff800000l))

let suite =
  [ ( "alu-int",
      Alcotest.test_case "32-bit wraps" `Quick test_wraps
      :: List.map QCheck_alcotest.to_alcotest
           [ prop_alu_matches_int32; prop_value_round_trips; prop_value_order ]
    ) ]
