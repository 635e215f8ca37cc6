(* Monotonic time in nanoseconds (clock_gettime via bechamel's stub:
   no allocation, unaffected by wall-clock steps). *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let now_s () = float_of_int (now_ns ()) *. 1e-9
let seconds_between t0 t1 = float_of_int (t1 - t0) *. 1e-9
