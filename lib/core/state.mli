(** Complete machine state.

    Bundles the data path (register file, memory, I/O ports), the control
    path state (one PC, one condition code and one synchronisation signal
    per FU — the paper's [S_i], [sd_i]/[CC_i] and [SS_i]), the hazard log
    and statistics.

    Condition codes start undefined (Figure 10 prints them as [X]) and
    become defined when a compare executes on that FU.  Synchronisation
    signals start at BUSY.

    The [scratch] and [inflight] fields are preallocated working storage
    for the simulator hot loop ({!Xsim}, {!Vsim}, {!Exec}); they carry no
    architectural state between cycles and other clients should ignore
    them. *)

open Ximd_isa

type scratch = {
  parcels : Parcel.t array;  (** this cycle's fetched parcels *)
  was_live : bool array;     (** liveness at start of cycle *)
  taken : bool array;        (** branch-condition outcomes *)
  old_pcs : int array;       (** PCs at start of cycle *)
  key_c : int array;
      (** per-FU partition key ({!Engine}): the normalised condition of
          the control operation just executed, int-coded; [-1] for
          halt… *)
  key_t1 : int array;        (** …its normalised first target… *)
  key_t2 : int array;        (** …and second target *)
  str_live : bool array;     (** per-stream liveness ({!Engine}) *)
  ctrl : Parcel.t array;     (** per-stream control parcels ({!Engine}) *)
  spun : bool array;         (** per-stream: branch re-selected its PC *)
  ss_edge : bool array;      (** per-FU: sync signal changed this cycle *)
  cc_fu : int array;         (** staged condition-code updates… *)
  cc_val : bool array;       (** …with their new values *)
  mutable cc_len : int;
}
(** Per-cycle scratch buffers, sized [n_fus], reused every cycle so the
    simulators allocate nothing per step. *)

type inflight = {
  mutable ifl_len : int;
  mutable ifl_due : int array;     (** cycle whose end the write commits at *)
  mutable ifl_is_mem : bool array; (** memory store vs. register write *)
  mutable ifl_fu : int array;
  mutable ifl_loc : int array;     (** register index or memory address *)
  mutable ifl_value : Value.t array;
}
(** Pipelined datapath results not yet committed, in issue order, as
    growable parallel arrays (empty when [config.result_latency = 1]). *)

type t = {
  config : Config.t;
  mutable program : Program.t;
      (** mutable only so {!reset} can swap in the next program of a
          sweep; simulators treat it as fixed for the duration of a
          run *)
  regs : Ximd_machine.Regfile.t;
  mem : Ximd_machine.Memory.t;
  io : Ximd_machine.Ioport.t;
  log : Ximd_machine.Hazard.log;
  stats : Stats.t;
  mutable cycle : int;
  pcs : int array;
  ccs : bool option array;     (** [None] = never set ([X] in traces) *)
  sss : Sync.t array;
  halted : bool array;
  labels : int array;
      (** SSET label of each FU: the lowest FU of its SSET.  The engine
          rewrites it in place every cycle; {!partition} gives the
          {!Partition.t} view. *)
  mutable shown : Partition.t;
  shown_labels : int array;
      (** {!partition}'s last result and the labels it was built from;
          the engine never touches them *)
  scratch : scratch;
  inflight : inflight;
  faults : Ximd_machine.Fault.t option;
      (** fault-injection session; [None] (the default) costs the
          simulators a single branch per cycle and nothing else *)
  obs : Ximd_obs.Sink.t option;
      (** observability sink (see {!Ximd_obs.Sink}); [None] (the
          default) costs the simulators a single predictable branch per
          emission site and nothing else — the same discipline as
          [faults] *)
}

val create :
  ?config:Config.t ->
  ?faults:Ximd_machine.Fault.t ->
  ?obs:Ximd_obs.Sink.t ->
  Program.t ->
  t
(** Fresh state at cycle 0, all PCs at address 0, single-SSET partition.
    [faults] arms deterministic fault injection (see
    {!Ximd_machine.Fault}); omitted, the run is fault-free.  [obs]
    attaches an observability sink the simulators feed events and
    metrics into; omitted, the run is unobserved and pays nothing.
    @raise Invalid_argument if {!Program.validate} rejects the program
    under [config], or if [obs] was built for a different FU count. *)

val reset : ?program:Program.t -> t -> unit
(** Rewinds the state to cycle 0 — exactly the state {!create} would
    build — without reallocating the register/memory/scratch arenas or
    the in-flight queue, so repeated runs amortise construction (see
    {!Session}).  [program] swaps in a different program for the next
    run; omitted, the current program is kept.  The configuration (and
    with it every arena size) is fixed for the lifetime of the state.

    Registers, memory and I/O ports are zeroed/cleared: callers must
    reapply their initialisation (a {!Session} re-runs its [setup]).
    An attached fault session rewinds to replay the identical schedule;
    an attached observability sink is {!Ximd_obs.Sink.reset}.
    @raise Invalid_argument if {!Program.validate} rejects [program]
    under the state's configuration. *)

val n_fus : t -> int
val all_halted : t -> bool
(** Whether every FU has halted, without allocating. *)

val partition : t -> Partition.t
(** The current SSET partition, built from [labels] by
    {!Partition.of_labels} at most once per label change.  For
    observers (the {!Tracer}, the observability sink, diagnostics); the
    engine itself works on the labels only. *)

val live_fus : t -> int list
(** The indices of FUs that have not halted.  Allocates the result list;
    per-cycle code should use {!iter_live_fus} or {!live_fu_count}
    instead. *)

val live_fu_count : t -> int
(** Number of FUs that have not halted, without allocating. *)

val iter_live_fus : t -> (int -> unit) -> unit
(** [iter_live_fus t f] applies [f] to each live FU index in ascending
    order, without allocating. *)

val in_flight_count : t -> int
(** Number of pipelined results awaiting write-back. *)

val cc : t -> int -> bool option
val ss : t -> int -> Sync.t
val pc : t -> int -> int

val reg : t -> int -> Value.t
(** Convenience register read by index. *)

val set_reg : t -> int -> Value.t -> unit
val mem_get : t -> int -> Value.t
val mem_set : t -> int -> Value.t -> unit

val hazards : t -> Ximd_machine.Hazard.event list
