(** 32-bit machine values.

    The XIMD-1 research model supports two data types, 32-bit integers and
    32-bit floats (paper §2.2).  Registers and memory words are untyped
    32-bit containers; the operation executed decides the interpretation.
    A value is therefore represented as a raw 32-bit pattern, with integer
    and float views.  Float conversions round through IEEE-754 single
    precision so that bit-level behaviour matches a real 32-bit datapath.

    Representation: an immediate [int] holding the sign-extended 32-bit
    pattern (so a value is in [-2{^31}, 2{^31})).  It is an immediate
    rather than a boxed [int32] because of how the libraries are
    compiled: dune's default dev profile passes [-opaque], so nothing is
    inlined across modules, and every [int32] or [float] that crosses a
    module boundary is boxed — a minor-heap allocation per ALU result,
    register write or memory word.  An immediate costs nothing to pass.
    The same rule applies to callers on the simulator's per-cycle path:
    they compute on the [int] view (readable for free through the
    [private] type) and convert floats locally, inside one function,
    where the compiler keeps them unboxed.  Requires a 64-bit host. *)

type t = private int
(** A 32-bit bit pattern, sign-extended.  [(v :> int)] is {!to_int}. *)

val zero : t
val one : t

val of_int32 : int32 -> t
val to_int32 : t -> int32

val of_int : int -> t
(** Truncates to 32 bits (two's complement). *)

val to_int : t -> int
(** Sign-extending view of the 32-bit pattern as an OCaml [int]. *)

val of_float : float -> t
(** Rounds to IEEE-754 single precision and stores the bit pattern. *)

val to_float : t -> float
(** Reinterprets the bit pattern as an IEEE-754 single-precision float. *)

val truth : bool -> t
(** [truth b] is [one] if [b] else [zero]. *)

val is_true : t -> bool
(** [is_true v] is [true] iff [v] is non-zero. *)

val equal : t -> t -> bool
val compare : t -> t -> int

val pp : Format.formatter -> t -> unit
(** Prints the signed-integer view. *)

val pp_hex : Format.formatter -> t -> unit
val pp_float : Format.formatter -> t -> unit
val to_string : t -> string
