(** The architecturally observable result of a run: what the reference
    interpreter and the optimised engine must agree on, byte for byte. *)

open Ximd_isa

type row = {
  cycle : int;
  pcs : int option array;  (** per FU; [None] = halted at top of cycle *)
  ccs : bool option array;
  sss : Sync.t array;
}

type t = {
  outcome : Ximd_core.Run.outcome;
  registers : Value.t array;  (** all 256, final *)
  memory : (int * Value.t) list;  (** non-zero words, ascending address *)
  io_out : (int * (int * Value.t) list) list;
      (** port -> (cycle, value) write log, ports with output only *)
  hazards : (int * Ximd_machine.Hazard.t) list;
      (** (cycle, hazard), in occurrence order.  Typed, and compared
          structurally — exactly as strict as comparing the rendered
          text, since {!Ximd_machine.Hazard.to_string} is injective —
          so neither side pays for rendering on every run; the text is
          produced only by {!summary} and by divergence reports. *)
  trace : row list;  (** one row per executed cycle, oldest first *)
}

val outcome_string : Ximd_core.Run.outcome -> string
val row_equal : row -> row -> bool
val equal : t -> t -> bool
val pp_row : Format.formatter -> row -> unit

val summary : t -> string
(** Byte-stable plain-text summary (without the trace): the sidecar
    format of the [suites/] conformance corpus. *)
