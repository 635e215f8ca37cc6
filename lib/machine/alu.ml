open Ximd_isa

type fault = Division_by_zero

exception Fault of fault

(* Everything below computes on the [int] view of {!Value.t} and
   converts floats locally, so no [int32] or [float] crosses a module
   boundary (see value.mli): the non-faulting paths allocate nothing. *)

let[@inline] float_of_value (v : Value.t) =
  Int32.float_of_bits (Int32.of_int (v :> int))

let[@inline] value_of_float f =
  Value.of_int (Int32.to_int (Int32.bits_of_float f))

let eval_bin_exn (op : Opcode.binop) (a : Value.t) (b : Value.t) =
  let x = (a :> int) and y = (b :> int) in
  match op with
  | Iadd -> Value.of_int (x + y)
  | Isub -> Value.of_int (x - y)
  | Imult -> Value.of_int (x * y)
  | Idiv ->
    if y = 0 then raise (Fault Division_by_zero) else Value.of_int (x / y)
  | Imod ->
    if y = 0 then raise (Fault Division_by_zero) else Value.of_int (x mod y)
  | And -> Value.of_int (x land y)
  | Or -> Value.of_int (x lor y)
  | Xor -> Value.of_int (x lxor y)
  | Shl -> Value.of_int (x lsl (y land 31))
  | Shr -> Value.of_int ((x land 0xFFFF_FFFF) lsr (y land 31))
  | Sar -> Value.of_int (x asr (y land 31))
  | Fadd -> value_of_float (float_of_value a +. float_of_value b)
  | Fsub -> value_of_float (float_of_value a -. float_of_value b)
  | Fmult -> value_of_float (float_of_value a *. float_of_value b)
  | Fdiv -> value_of_float (float_of_value a /. float_of_value b)

let eval_bin op a b =
  match eval_bin_exn op a b with
  | v -> Ok v
  | exception Fault f -> Error f

let eval_un (op : Opcode.unop) (a : Value.t) =
  let x = (a :> int) in
  match op with
  | Mov -> a
  | Ineg -> Value.of_int (-x)
  | Not -> Value.of_int (lnot x)
  | Fneg -> value_of_float (-.float_of_value a)
  | Itof -> value_of_float (Float.of_int x)
  | Ftoi -> Value.of_int (Int32.to_int (Int32.of_float (float_of_value a)))

(* Float compares keep [compare]'s total order: NaN equals itself and
   sorts below every other float. *)
let eval_cmp (op : Opcode.cmpop) (a : Value.t) (b : Value.t) =
  let x = (a :> int) and y = (b :> int) in
  match op with
  | Eq -> x = y
  | Ne -> x <> y
  | Lt -> x < y
  | Le -> x <= y
  | Gt -> x > y
  | Ge -> x >= y
  | Feq -> Float.compare (float_of_value a) (float_of_value b) = 0
  | Fne -> Float.compare (float_of_value a) (float_of_value b) <> 0
  | Flt -> Float.compare (float_of_value a) (float_of_value b) < 0
  | Fle -> Float.compare (float_of_value a) (float_of_value b) <= 0
  | Fgt -> Float.compare (float_of_value a) (float_of_value b) > 0
  | Fge -> Float.compare (float_of_value a) (float_of_value b) >= 0
