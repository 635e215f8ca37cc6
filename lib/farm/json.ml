(* The codec lives in Ximd_obs.Json.  This alias stays because the
   benchmark under xbench/ names Ximd_farm.Json, and the benchmark's
   sources change only together with the benchmark itself. *)
include Ximd_obs.Json
