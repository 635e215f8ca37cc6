(** Processor memory.

    The research model assumes an idealised shared memory: "Each
    functional unit can read or write to memory every cycle.  All ports
    use a single shared address space.  Memory operations complete in one
    cycle.  Multiple writes to the same location in one cycle are
    undefined." (paper §2.3).  Addresses are 32-bit-word indices.

    Two organisations are provided:
    - {!shared}: the research model — any FU reaches any word.
    - {!distributed}: the hardware prototype's organisation (§4.3,
      "Distributed Memory (1MB per FU)") — the address space is divided
      into equal per-FU banks and an FU may only access its own bank;
      foreign accesses are out-of-bounds hazards.

    Reads observe start-of-cycle contents; writes are staged and
    committed at end of cycle, with multiple-write detection as for the
    register file.  Out-of-bounds accesses report a hazard; under the
    [Record] policy a failing read returns zero and a failing write is
    dropped. *)

open Ximd_isa

type organisation =
  | Shared
  | Distributed of { n_fus : int }

type t

val create : ?organisation:organisation -> words:int -> unit -> t
(** [words] is the total number of 32-bit words. *)

val words : t -> int
val organisation : t -> organisation

val read : t -> fu:int -> cycle:int -> log:Hazard.log -> int -> Value.t
(** [read t ~fu ~cycle ~log addr]. *)

val stage_write :
  t -> fu:int -> cycle:int -> log:Hazard.log -> int -> Value.t -> unit

val commit : t -> cycle:int -> log:Hazard.log -> unit

val staged_count : t -> int
(** Number of stores currently staged (and not yet committed). *)

val reset : t -> unit
(** Rewinds to the {!create} state — all words zero, the stage empty.
    Pages already allocated are zeroed in place rather than freed, so a
    reused state keeps its working-set arenas warm. *)

val set : t -> int -> Value.t -> unit
(** Direct write for initialisation; bounds-checked, raises
    [Invalid_argument]. *)

val get : t -> int -> Value.t
(** Direct read for result checking; raises [Invalid_argument]. *)

val fold_nonzero : (int -> Value.t -> 'acc -> 'acc) -> t -> 'acc -> 'acc
(** [fold_nonzero f t init] folds [f addr value] over every non-zero
    word in ascending address order — the same words a {!get} scan of
    [0 .. words - 1] finds.  Only allocated pages are visited, so the
    cost is proportional to the pages the run has written, not to
    {!words}. *)

val load_block : t -> addr:int -> Value.t array -> unit
(** Initialise consecutive words starting at [addr]. *)

val dump_block : t -> addr:int -> len:int -> Value.t array
