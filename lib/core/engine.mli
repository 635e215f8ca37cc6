(** The unified cycle engine: one pipeline, three sequencing models.

    The paper's central structural claim is that a VLIW is the
    degenerate case of an XIMD — one global sequencer versus one
    sequencer per functional unit (§2, Figure 3) — with the proposed
    Multiflow TRACE/500 (§1.4) sitting in between at exactly two.  This
    module encodes the claim directly: {!Xsim}, {!Vsim} and {!T500} are
    thin adapters that pass a {!model} to the same fetch → condition
    evaluation → execute → commit pipeline, and the model parameter only
    controls how FUs group into sequencer-led {e streams}:

    {t
      | {!model}   | streams            | leaders      | SS role | partition |
      |------------|--------------------|--------------|---------|-----------|
      | [Per_fu]   | one per FU         | the FU       | per-FU  | executed-signature groups |
      | [Global]   | one, all FUs       | FU 0         | none    | fixed initial SSET |
      | [Banked]   | two fixed halves   | FU 0, FU n/2 | per-FU  | banks merge at equal next PC |
    }

    Every cycle, each live stream's sequencer selects one instruction
    row and evaluates one branch condition against start-of-cycle CC/SS
    state; member FUs fetch and execute their own data parcels; all
    results commit at end of cycle; then the sequencer installs the next
    PC into every member (or halts them).  A live stream whose PC leaves
    the program reports {!Ximd_machine.Hazard.Fell_off_end} attributed
    to its sequencer's FU — for the global sequencer, the lowest FU
    still issuing — and the stream halts.

    Cross-cutting concerns (the {!Tracer}, the {!Ximd_obs.Sink}, the
    {!Ximd_machine.Fault} injector, the {!Watchdog}) are threaded
    through this one pipeline via inline hook helpers, each costing a
    single predictable branch when off; no per-engine copy exists.

    The hot loop is allocation-free: with no hooks attached (no tracer,
    sink, fault session or watchdog) and no hazard reported, a cycle
    allocates nothing.  It works in the preallocated [state.scratch]
    buffers on immediate {!Ximd_isa.Value.t}s, and keeps the partition
    as one SSET label per FU ([state.labels]), materialising a
    {!Partition.t} only for observers ({!State.partition}).  A test pins
    zero minor words per steady-state cycle. *)

type model =
  | Per_fu  (** one sequencer per FU: the XIMD machine ({!Xsim}) *)
  | Global  (** one global sequencer: the VLIW baseline ({!Vsim}) *)
  | Banked
      (** two sequencers over fixed FU halves: the TRACE/500
          restriction ({!T500}) *)

val n_streams : model -> n:int -> int
(** Number of sequencer-led streams on an [n]-FU machine: [n], [1] and
    [2] respectively. *)

val bank_consistent : Program.t -> bool
(** Whether every row's parcels agree with their bank leader's control
    fields and sync signal — the structural restriction the [Banked]
    model requires (re-exported as {!T500.bank_consistent}). *)

val step : model -> ?tracer:Tracer.t -> State.t -> unit
(** Executes one cycle under the given sequencing model (a no-op if all
    FUs have halted).  When [tracer] is given, the start-of-cycle state
    is recorded first. *)

val poll_interval : int
(** Cycles between consecutive [poll] calls in {!run} (a power of two;
    the first poll fires at cycle 0). *)

val run :
  model ->
  ?tracer:Tracer.t ->
  ?watchdog:Watchdog.t ->
  ?budget:int ->
  ?poll:(unit -> unit) ->
  State.t ->
  Run.outcome
(** Steps until all FUs halt, the configured fuel runs out, the
    optional per-run cycle [budget] is exceeded, or (when [watchdog] is
    given) a deadlock is established — see {!Watchdog}.  [budget] is a
    resource limit below the configured [max_cycles]: when it elapses
    first the outcome is {!Run.Budget_exceeded} (a budget at or above
    the fuel never fires).  [poll], when given, is called every
    {!poll_interval} cycles (first at cycle 0) so a supervisor can
    enforce wall-clock deadlines — whatever it raises escapes [run]
    unchanged.  Checks the model's structural requirements first:
    @raise Invalid_argument under [Global] if the program is not
    control-consistent, under [Banked] if the FU count is odd or
    below 2 or the program is not bank-consistent, or if [budget] is
    not positive. *)
