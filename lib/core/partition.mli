(** SSETs and partitions.

    "An SSET describes a set of one or more XIMD functional units which
    are currently executing a single program thread. ...  Formally, two
    functional units are in the same SSET at time t, if given the program
    and the control state of one FU, the control state of the other FU
    can be uniquely determined." (paper §2.4).

    The implementable criterion used here (DESIGN.md §5): two FUs belong
    to the same SSET at cycle [t] iff the control operations they executed
    at cycle [t-1] have equal {!Ximd_isa.Control.normalised_signature}s —
    same condition source and same (resolved) targets.  Equal signatures
    evaluate identically against the shared CC/SS state, so the FUs take
    provably identical transitions; distinct signatures mean the relative
    states are data-dependent, which is exactly the paper's fork notion
    (Figure 10's cycle 3 and cycle 9, where FUs sit at a common address
    but remain in different SSETs, are both reproduced by this rule).

    The engine does not build values of {!t}: it keeps one SSET label
    per FU in [State.labels] (the lowest FU of the SSET), updated in
    place without allocating (DESIGN.md §5).  A {!t} is materialised
    from those labels by {!of_labels} only when something observes the
    partition — {!State.partition}, for the {!Tracer}, the observability
    sink and diagnostics. *)

type t
(** A partition of FUs [0..n-1] into SSETs. *)

val initial : n:int -> t
(** All FUs in one SSET — "all functional units begin execution together
    at address 00:" (Figure 9 note). *)

val of_signatures : Ximd_isa.Control.t array -> t
(** Groups FUs by normalised-control-signature equality.  The array must
    already contain normalised signatures (index = FU). *)

val of_labels : int array -> t
(** Groups FUs by label equality (index = FU): FUs with equal labels
    share an SSET.  The engine's labels are the lowest member of each
    SSET, but any labelling works.
    @raise Invalid_argument on an empty array. *)

val of_ssets : int list list -> t
(** Builds a partition from explicit SSETs; they must form an exact
    partition of [0..n-1] for some [n].
    @raise Invalid_argument otherwise. *)

val ssets : t -> int list list
(** SSETs with members ascending, ordered by smallest member. *)

val n_fus : t -> int
val count : t -> int
(** Number of SSETs, i.e. concurrently executing instruction streams. *)

val sset_of : t -> int -> int list
(** The SSET containing the given FU. *)

val same_sset : t -> int -> int -> bool
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Paper notation: [{0,1}{2}{3,6,7}{4,5}]. *)

val to_string : t -> string

val of_string : string -> (t, string) result
(** Parses the paper notation (inverse of {!to_string}). *)
