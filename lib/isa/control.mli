(** Control-path operations.

    The XIMD-1 research model has no PC incrementer: "The control path
    control fields include two branch targets, T1 and T2, allowing the
    next instruction to be chosen from two explicit choices" (paper §2.2).
    The next PC is always one of the two targets, selected by the
    condition criteria.  [Halt] is a simulator convention (see DESIGN.md
    §3): the paper's example programs simply run off the end of their
    listings, so an explicit stop operation is added for the FU that has
    finished its stream.

    The hardware prototype (§4.3) instead uses a "traditional sequencer
    (incrementer + 1 explicit branch target)"; {!Fallthrough} models its
    not-taken path and is only legal under the prototype sequencer
    configuration. *)

type target =
  | Addr of int       (** explicit instruction address *)
  | Fallthrough       (** PC + 1 — prototype sequencer only *)

type t =
  | Branch of { cond : Cond.t; t1 : target; t2 : target }
      (** if [cond] then next PC := [t1] else [t2] *)
  | Halt

val goto : int -> t
(** [goto a] is an unconditional branch to address [a] (Target-1 form). *)

val goto2 : int -> t
(** Unconditional branch using the Target-2 operation. *)

val br : Cond.t -> int -> int -> t
(** [br cond t1 t2] branches to [t1] if [cond] holds, else [t2]. *)

val next : t
(** Prototype-sequencer fall-through: unconditional [Fallthrough]. *)

val halt : t

val resolve : t -> pc:int -> taken:bool -> int option
(** [resolve c ~pc ~taken] computes the next PC ([None] for [Halt]).
    [taken] is the evaluated condition. *)

val next_pc : t -> pc:int -> taken:bool -> int
(** Like {!resolve} for a branch, without the option (per-cycle callers
    allocate nothing).
    @raise Invalid_argument on [Halt]. *)

val normalised_signature : t -> pc:int -> t
(** Canonical form used by SSET/partition computation: a conditional whose
    two targets coincide is an unconditional branch, [Always2] becomes
    [Always1] with targets swapped, and [Fallthrough] is resolved against
    [pc].  Two FUs whose executed control operations have equal normalised
    signatures take provably identical next-state transitions. *)

val targets : t -> target list
val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string
