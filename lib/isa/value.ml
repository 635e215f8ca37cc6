type t = int

(* [n] truncated to its low 32 bits, sign-extended: bit 31 moves to the
   top of the 63-bit native int and back. *)
let of_int n = (n lsl 31) asr 31
let to_int v = v
let zero = 0
let one = 1
let of_int32 = Int32.to_int
let to_int32 = Int32.of_int
let of_float f = Int32.to_int (Int32.bits_of_float f)
let to_float v = Int32.float_of_bits (Int32.of_int v)
let truth b = if b then one else zero
let is_true v = v <> 0
let equal = Int.equal
let compare = Int.compare
let pp fmt v = Format.fprintf fmt "%d" v
let pp_hex fmt v = Format.fprintf fmt "0x%08x" (v land 0xFFFF_FFFF)
let pp_float fmt v = Format.fprintf fmt "%h" (to_float v)
let to_string = string_of_int
