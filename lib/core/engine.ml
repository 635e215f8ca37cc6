open Ximd_isa
module M = Ximd_machine

(* One allocation-free cycle pipeline for all three machine models.  The
   paper's subsumption argument (§2, Figure 3) — a VLIW is the
   degenerate XIMD with one global sequencer, the TRACE/500 the
   two-sequencer point in between — is encoded structurally: the only
   thing a {!model} changes is how FUs group into sequencer-led streams
   and what the sequencer drives (SS discipline, partition rule).

   All reads observe start-of-cycle state; all writes commit at the end
   (paper §2.2, verified against the Figure 10 trace — see DESIGN.md
   §5).  The loop works entirely in the preallocated [state.scratch]
   buffers, on immediate values and int-coded partition labels: with no
   hooks attached and no hazard reported, a cycle allocates nothing.
   Hence plain loops instead of local recursive functions (a closure
   that captures state is allocated on every call) and no tuples or
   options per stream. *)

type model = Per_fu | Global | Banked

let n_streams model ~n =
  match model with Per_fu -> n | Global -> 1 | Banked -> 2

(* Streams are contiguous FU ranges [leader..last]; the leader's parcel
   carries the stream's control fields. *)
let[@inline] stream_leader model ~n k =
  match model with
  | Per_fu -> k
  | Global -> 0
  | Banked -> if k = 0 then 0 else n / 2

let[@inline] stream_last model ~n k =
  match model with
  | Per_fu -> k
  | Global -> n - 1
  | Banked -> if k = 0 then (n / 2) - 1 else n - 1

(* The FU a stream's hazards (fell-off-end, undefined CC) are attributed
   to: its sequencer.  The global sequencer is not an FU of its own, so
   blame the lowest FU still issuing — with no faults injected that is
   FU 0, the leader. *)
let[@inline] seq_fu model (state : State.t) ~leader ~last =
  match model with
  | Per_fu | Banked -> leader
  | Global ->
    let fu = ref leader in
    while !fu < last && state.halted.(!fu) do
      incr fu
    done;
    !fu

let bank_consistent program =
  let n = Program.n_fus program in
  let half = n / 2 in
  let consistent_with leader row fu =
    let (l : Parcel.t) = row.(leader) and (p : Parcel.t) = row.(fu) in
    Control.equal p.control l.control && Sync.equal p.sync l.sync
  in
  let ok = ref true in
  for addr = 0 to Program.length program - 1 do
    let row = Program.row program addr in
    for fu = 0 to n - 1 do
      let leader = if fu < half then 0 else half in
      if not (consistent_with leader row fu) then ok := false
    done
  done;
  !ok

(* ------------------------------------------------------------------ *)
(* Cross-cutting hooks.  The tracer, observability sink and fault
   injector are threaded through the pipeline exactly once, here: each
   helper costs one predictable branch when its facility is off (the
   single-branch-when-[None] discipline of [state.faults]/[state.obs]),
   and no engine-specific copy exists to drift. *)

let[@inline] hook_cycle_top ?tracer (state : State.t) =
  (match tracer with
   | Some t -> Tracer.record t (Tracer.snapshot state)
   | None -> ());
  (match state.obs with
   | None -> ()
   | Some obs ->
     (* same timing as the tracer snapshot: the partition in effect at
        the top of the cycle, before faults land *)
     Ximd_obs.Sink.on_partition obs ~cycle:state.cycle
       ~ssets:(Partition.ssets (State.partition state)));
  match state.faults with
  | None -> ()
  | Some f -> Exec.apply_faults state f

let[@inline] hook_fetch (state : State.t) ~fu ~pc =
  match state.obs with
  | None -> ()
  | Some obs -> Ximd_obs.Sink.on_fetch obs ~cycle:state.cycle ~fu ~pc

(* Set an FU's sync signal, reporting the edge (not the level) to the
   sink. *)
let[@inline] set_ss (state : State.t) ~fu sync =
  let old_ss = state.sss.(fu) in
  state.sss.(fu) <- sync;
  match state.obs with
  | None -> ()
  | Some obs ->
    if not (Sync.equal old_ss sync) then begin
      state.scratch.ss_edge.(fu) <- true;
      Ximd_obs.Sink.on_ss obs ~cycle:state.cycle ~fu
        ~to_done:(Sync.equal sync Sync.Done)
    end

let[@inline] hook_halt (state : State.t) ~fu =
  match state.obs with
  | None -> ()
  | Some obs -> Ximd_obs.Sink.on_halt obs ~cycle:state.cycle ~fu

let[@inline] hook_control (state : State.t) ~fu ~pc ~spinning ~sync =
  match state.obs with
  | None -> ()
  | Some obs ->
    Ximd_obs.Sink.on_control obs ~cycle:state.cycle ~fu ~pc ~spinning ~sync

let[@inline] hook_cycle_end (state : State.t) ~live_streams =
  match state.obs with
  | None -> ()
  | Some obs -> Ximd_obs.Sink.on_cycle_end obs ~cycle:state.cycle ~live_streams

let[@inline] hook_watchdog (state : State.t) w =
  match state.obs with
  | None -> ()
  | Some obs ->
    Ximd_obs.Sink.on_watchdog obs ~cycle:state.cycle ~quiet:(Watchdog.window w)

let[@inline] hook_finish (state : State.t) =
  match state.obs with
  | None -> ()
  | Some obs -> Ximd_obs.Sink.finish obs ~cycle:state.cycle

(* ------------------------------------------------------------------ *)
(* Why-analysis sampling (DESIGN.md §9).  The engine is the only place
   that knows why a slot was idle, so it classifies every fu×cycle slot
   for {!Ximd_obs.Account} and feeds the realised dependences to
   {!Ximd_obs.Critpath} — both behind the same single-[match]-on-[obs]
   discipline as every other hook, so a detached run pays nothing. *)

let[@inline] stream_of model ~n fu =
  match model with
  | Per_fu -> fu
  | Global -> 0
  | Banked -> if fu < n / 2 then 0 else 1

(* Only operations that stage a register or memory write can lose their
   result to an armed drop-write fault (I/O writes and compares bypass
   the staging ports). *)
let droppable = function
  | Parcel.Dbin _ | Parcel.Dun _ | Parcel.Dload _ | Parcel.Din _
  | Parcel.Dstore _ -> true
  | Parcel.Dnop | Parcel.Dcmp _ | Parcel.Dout _ -> false

let[@inline] op_reg = function
  | Operand.Reg r -> Reg.index r
  | Operand.Imm _ -> -1

(* Source/destination registers of a data op, decomposed to plain ints
   (-1 = none) so the stdlib-only obs layer never sees parcel types. *)
let issue_args = function
  | Parcel.Dnop -> (-1, -1, -1, false)
  | Parcel.Dbin { a; b; d; _ } -> (op_reg a, op_reg b, Reg.index d, false)
  | Parcel.Dun { a; d; _ } -> (op_reg a, -1, Reg.index d, false)
  | Parcel.Dcmp { a; b; _ } -> (op_reg a, op_reg b, -1, true)
  | Parcel.Dload { a; b; d } -> (op_reg a, op_reg b, Reg.index d, false)
  | Parcel.Dstore { a; b } -> (op_reg a, op_reg b, -1, false)
  | Parcel.Din { port; d } -> (op_reg port, -1, Reg.index d, false)
  | Parcel.Dout { a; port } -> (op_reg a, op_reg port, -1, false)

(* Bind a conditional branch's control producers for every issuing
   member of its stream, as of start-of-cycle state — called from the
   branch-evaluation phase, before any of this cycle's issues. *)
let bind_stream (state : State.t) obs ~leader ~last cond =
  let was_live = state.scratch.was_live in
  for fu = leader to last do
    if was_live.(fu) then
      match (cond : Cond.t) with
      | Cond.Cc j -> Ximd_obs.Sink.cp_bind_cc obs ~fu ~j
      | Cond.Ss j -> Ximd_obs.Sink.cp_bind_ss obs ~fu ~j
      | Cond.All_ss mask -> Ximd_obs.Sink.cp_bind_all obs ~fu ~mask
      | Cond.Any_ss mask ->
        let dm = ref 0 in
        for j = 0 to State.n_fus state - 1 do
          if mask land (1 lsl j) <> 0 && Sync.equal state.sss.(j) Sync.Done
          then dm := !dm lor (1 lsl j)
        done;
        Ximd_obs.Sink.cp_bind_any obs ~fu ~done_mask:!dm
      | Cond.Always1 | Cond.Always2 -> ()
  done

let[@inline] hook_bind model (state : State.t) ~ns =
  match state.obs with
  | None -> ()
  | Some obs ->
    if Ximd_obs.Sink.wants_critpath obs then begin
      let n = State.n_fus state in
      let s = state.scratch in
      for k = 0 to ns - 1 do
        if s.str_live.(k) then
          match s.ctrl.(k).control with
          | Control.Branch { cond; _ } when not (Cond.is_unconditional cond)
            ->
            bind_stream state obs ~leader:(stream_leader model ~n k)
              ~last:(stream_last model ~n k) cond
          | Control.Branch _ | Control.Halt -> ()
      done
    end

(* Classify every slot of the cycle (see {!Ximd_obs.Account} for the
   taxonomy and priority) and create the committing ops' dependence
   nodes.  Runs after control commit, so [spun]/[ss_edge] reflect this
   cycle; fault drop masks stay armed until the next cycle begins. *)
let slot_accounting model (state : State.t) obs =
  let n = State.n_fus state in
  let s = state.scratch in
  let wants_cp = Ximd_obs.Sink.wants_critpath obs in
  let latency = state.config.result_latency in
  for fu = 0 to n - 1 do
    let cls : Ximd_obs.Account.cls =
      if not s.was_live.(fu) then Halted
      else begin
        let data = s.parcels.(fu).data in
        let spun = s.spun.(stream_of model ~n fu) in
        if Parcel.is_nop data then
          if not spun then Nop_padding
          else
            match s.ctrl.(stream_of model ~n fu).control with
            | Control.Branch { cond = Cond.Ss _; _ } -> Spin_ss
            | Control.Branch { cond = Cond.All_ss _ | Cond.Any_ss _; _ } ->
              Barrier_wait
            | Control.Branch { cond = Cond.Cc _; _ } -> Spin_cc
            | Control.Branch { cond = Cond.Always1 | Cond.Always2; _ }
            | Control.Halt ->
              (* unreachable: a spinning stream executed a conditional *)
              Nop_padding
        else if spun then Squashed
        else
          let dropped =
            match state.faults with
            | Some f -> M.Fault.drops f ~fu && droppable data
            | None -> false
          in
          if dropped then Fault_lost else Commit
      end
    in
    Ximd_obs.Sink.on_slot obs ~fu cls;
    if wants_cp && cls = Commit then begin
      let r1, r2, w, sets_cc = issue_args s.parcels.(fu).data in
      Ximd_obs.Sink.cp_issue obs ~cycle:state.cycle ~fu ~pc:s.old_pcs.(fu)
        ~r1 ~r2 ~w ~sets_cc ~latency
    end
  done;
  if wants_cp then begin
    for fu = 0 to n - 1 do
      if s.ss_edge.(fu) then begin
        s.ss_edge.(fu) <- false;
        Ximd_obs.Sink.cp_ss_mark obs ~fu
      end
    done;
    Ximd_obs.Sink.cp_end_cycle obs
  end

let[@inline] hook_slots model (state : State.t) =
  match state.obs with
  | None -> ()
  | Some obs -> slot_accounting model state obs

(* A finished stream reads as DONE (DESIGN.md §5) — except under the
   global sequencer, where sync signals have no architectural role. *)
let[@inline] halt_fu model (state : State.t) ~fu =
  state.halted.(fu) <- true;
  (match model with
   | Per_fu | Banked -> set_ss state ~fu Sync.Done
   | Global -> ());
  hook_halt state ~fu

(* ------------------------------------------------------------------ *)
(* SSET labels (DESIGN.md §5).  [state.labels.(fu)] is the lowest FU
   whose partition key equals [fu]'s; keys are ints in [state.scratch],
   so relabelling compares ints and allocates nothing. *)

let halt_key = -1

(* Injective over the conditions a normalised key can carry ([Always2]
   normalises away). *)
let[@inline] cond_code (cond : Cond.t) =
  match cond with
  | Cond.Always1 -> 0
  | Cond.Always2 -> 1
  | Cond.Cc j -> 2 + (j lsl 3)
  | Cond.Ss j -> 3 + (j lsl 3)
  | Cond.All_ss mask -> 4 + (mask lsl 3)
  | Cond.Any_ss mask -> 5 + (mask lsl 3)

let[@inline] set_key (s : State.scratch) ~fu c t1 t2 =
  s.key_c.(fu) <- c;
  s.key_t1.(fu) <- t1;
  s.key_t2.(fu) <- t2

(* [fu]'s key under per-FU sequencing: the normalised signature
   ({!Control.normalised_signature}) of the control operation it just
   executed, decomposed into (condition, target 1, target 2). *)
let set_executed_key (s : State.scratch) ~fu =
  if not s.was_live.(fu) then set_key s ~fu halt_key 0 0
  else
    match s.parcels.(fu).control with
    | Control.Halt -> set_key s ~fu halt_key 0 0
    | Control.Branch { cond; _ } as control ->
      let pc = s.old_pcs.(fu) in
      let r1 = Control.next_pc control ~pc ~taken:true
      and r2 = Control.next_pc control ~pc ~taken:false in
      if r1 = r2 then set_key s ~fu 0 r1 r1
      else begin
        match cond with
        | Cond.Always1 -> set_key s ~fu 0 r1 r1
        | Cond.Always2 -> set_key s ~fu 0 r2 r2
        | Cond.Cc _ | Cond.Ss _ | Cond.All_ss _ | Cond.Any_ss _ ->
          set_key s ~fu (cond_code cond) r1 r2
      end

(* Each FU takes the label of the first lower SSET leader with an equal
   key, or its own index. *)
let relabel (state : State.t) n =
  let s = state.scratch and labels = state.labels in
  for fu = 0 to n - 1 do
    let label = ref fu and j = ref 0 in
    while !j < fu do
      let l = !j in
      if labels.(l) = l
         && s.key_c.(l) = s.key_c.(fu)
         && s.key_t1.(l) = s.key_t1.(fu)
         && s.key_t2.(l) = s.key_t2.(fu)
      then begin
        label := l;
        j := fu
      end
      else incr j
    done;
    labels.(fu) <- !label
  done

(* SSETs with a live member: one bit per label (labels are FU indices,
   so one int holds them all). *)
let live_sets (state : State.t) n =
  let mask = ref 0 in
  for fu = 0 to n - 1 do
    if not state.halted.(fu) then mask := !mask lor (1 lsl state.labels.(fu))
  done;
  let m = ref !mask and count = ref 0 in
  while !m <> 0 do
    m := !m land (!m - 1);
    incr count
  done;
  !count

(* A bank's key: the address its sequencer fetches next, or halt. *)
let[@inline] bank_key (state : State.t) ~leader ~len =
  if state.halted.(leader) then halt_key
  else
    let pc = state.pcs.(leader) in
    if pc >= 0 && pc < len then pc else halt_key

(* ------------------------------------------------------------------ *)

let step model ?tracer (state : State.t) =
  if State.all_halted state then ()
  else begin
    hook_cycle_top ?tracer state;
    let n = State.n_fus state in
    let stats = state.stats in
    let s = state.scratch in
    let parcels = s.parcels
    and was_live = s.was_live
    and taken = s.taken
    and str_live = s.str_live
    and ctrl = s.ctrl in
    let program = state.program in
    let len = Program.length program in
    let ns = n_streams model ~n in
    (* Fetch.  Each live stream's sequencer selects one row; members
       fetch their own parcels.  A live stream whose PC is outside the
       program has fallen off the end: report against the sequencer's FU
       and treat the stream as fetching halt parcels. *)
    for k = 0 to ns - 1 do
      let leader = stream_leader model ~n k
      and last = stream_last model ~n k in
      let live =
        match model with
        | Per_fu | Banked -> not state.halted.(leader)
        | Global -> true (* [all_halted] already returned above *)
      in
      str_live.(k) <- live;
      if not live then begin
        ctrl.(k) <- Parcel.halted;
        for fu = leader to last do
          was_live.(fu) <- false;
          parcels.(fu) <- Parcel.halted
        done
      end
      else begin
        let pc = state.pcs.(leader) in
        let in_range = pc >= 0 && pc < len in
        if not in_range then
          M.Hazard.report state.log ~cycle:state.cycle
            (M.Hazard.Fell_off_end
               { fu = seq_fu model state ~leader ~last; addr = pc });
        let row = if in_range then Program.row program pc else [||] in
        ctrl.(k) <- (if in_range then row.(leader) else Parcel.halted);
        for fu = leader to last do
          if state.halted.(fu) then begin
            was_live.(fu) <- false;
            parcels.(fu) <- Parcel.halted
          end
          else begin
            was_live.(fu) <- true;
            parcels.(fu) <- (if in_range then row.(fu) else Parcel.halted);
            hook_fetch state ~fu ~pc
          end
        done
      end
    done;
    (* Branch-condition evaluation against start-of-cycle CC/SS, one
       evaluation per sequencer. *)
    for k = 0 to ns - 1 do
      taken.(k) <-
        str_live.(k)
        &&
        match ctrl.(k).control with
        | Control.Halt -> false
        | Control.Branch { cond; _ } ->
          Exec.eval_cond state
            ~fu:
              (seq_fu model state ~leader:(stream_leader model ~n k)
                 ~last:(stream_last model ~n k))
            cond
    done;
    (* Critical-path only: bind conditional branches' control producers
       against the same start-of-cycle state the evaluation read. *)
    hook_bind model state ~ns;
    (* Data operations: every issuing FU executes; an idle slot is a
       halted slot. *)
    for fu = 0 to n - 1 do
      if was_live.(fu) then Exec.exec_data state ~fu parcels.(fu).data
      else stats.halted_slots <- stats.halted_slots + 1
    done;
    Exec.commit_cycle state;
    (* Control commit: sync signals, next PCs, halts; spin and branch
       statistics (branches charged once per sequencer, spin slots once
       per issuing member). *)
    let old_pcs = s.old_pcs in
    Array.blit state.pcs 0 old_pcs 0 n;
    for k = 0 to ns - 1 do
      s.spun.(k) <- false;
      if str_live.(k) then begin
        let leader = stream_leader model ~n k
        and last = stream_last model ~n k in
        match ctrl.(k).control with
        | Control.Halt ->
          for fu = leader to last do
            if was_live.(fu) then halt_fu model state ~fu
          done
        | Control.Branch { cond; _ } as control ->
          (match model with
           | Global -> () (* sync signals have no architectural role *)
           | Per_fu | Banked ->
             for fu = leader to last do
               if was_live.(fu) then set_ss state ~fu parcels.(fu).sync
             done);
          if not (Cond.is_unconditional cond) then
            stats.cond_branches <- stats.cond_branches + 1;
          let pc = old_pcs.(leader) in
          let next = Control.next_pc control ~pc ~taken:taken.(k) in
          let spinning = next = pc && not (Cond.is_unconditional cond) in
          s.spun.(k) <- spinning;
          (* one spin slot per issuing member, not per sequencer: a
             spinning k-FU stream wastes k slots (the accounting
             conservation property flushed out the old per-stream
             charge, which understated Global/Banked spins) *)
          if spinning then
            for fu = leader to last do
              if was_live.(fu) then stats.spin_slots <- stats.spin_slots + 1
            done;
          for fu = leader to last do
            state.pcs.(fu) <- next
          done;
          hook_control state ~fu:leader ~pc ~spinning
            ~sync:(Cond.is_sync cond)
      end
    done;
    (* Relabel — the point where the models genuinely diverge (paper
       Figure 3):
       - per-FU sequencers group FUs by the normalised signatures of the
         control operations they just executed (see {!Partition});
       - the global sequencer's partition is fixed at the initial full
         SSET (the labels stay all 0);
       - the banked machine groups by each bank's forthcoming address:
         banks at the same PC next cycle merge, as in lock-step mode. *)
    let live_streams =
      match model with
      | Global ->
        if stats.max_streams < 1 then stats.max_streams <- 1;
        if State.all_halted state then 0 else 1
      | Per_fu ->
        for fu = 0 to n - 1 do
          set_executed_key s ~fu
        done;
        relabel state n;
        live_sets state n
      | Banked ->
        let half = n / 2 in
        let upper =
          if bank_key state ~leader:0 ~len = bank_key state ~leader:half ~len
          then 0
          else half
        in
        Array.fill state.labels 0 half 0;
        Array.fill state.labels half (n - half) upper;
        live_sets state n
    in
    if live_streams > stats.max_streams then stats.max_streams <- live_streams;
    hook_slots model state;
    hook_cycle_end state ~live_streams;
    state.cycle <- state.cycle + 1;
    stats.cycles <- state.cycle
  end

(* Model-specific structural requirements, checked by [run] (not [step],
   matching the pre-unification simulators). *)
let validate model (state : State.t) =
  match model with
  | Per_fu -> ()
  | Global ->
    if not (Program.control_consistent state.program) then
      invalid_arg
        "Vsim.run: program is not control-consistent (VLIW programs must \
         duplicate the control fields in every parcel of a row)"
  | Banked ->
    let n = State.n_fus state in
    if n < 2 || n mod 2 <> 0 then
      invalid_arg "T500.run: the two-sequencer model needs an even FU count";
    if not (bank_consistent state.program) then
      invalid_arg
        "T500.run: program is not bank-consistent (each bank has a single \
         sequencer; XIMD programs with finer partitions cannot run)"

(* How often [run]'s supervision poll fires, in cycles.  A power of two
   so the check is one mask on the hot path; the first poll lands on
   cycle 0, before any work, so a poll that raises (a wall-clock
   deadline already in the past) stops even a one-cycle run. *)
let poll_interval = 512

let run model ?tracer ?watchdog ?budget ?poll (state : State.t) =
  validate model state;
  let fuel = state.config.max_cycles in
  (* The budget is a per-run limit below the configured fuel; a budget
     at or above the fuel never fires (fuel wins, as before). *)
  let budget_limit =
    match budget with
    | None -> max_int
    | Some b ->
      if b < 1 then invalid_arg "Engine.run: budget must be positive";
      b
  in
  let rec loop () =
    if State.all_halted state then begin
      Exec.drain_pipeline state;
      state.stats.cycles <- state.cycle;
      Run.Halted { cycles = state.cycle }
    end
    else if state.cycle >= fuel then
      Run.Fuel_exhausted { cycles = state.cycle }
    else if state.cycle >= budget_limit then
      Run.Budget_exceeded { cycles = state.cycle; budget = budget_limit }
    else begin
      (match poll with
       | Some f when state.cycle land (poll_interval - 1) = 0 -> f ()
       | Some _ | None -> ());
      step model ?tracer state;
      match watchdog with
      | Some w when Watchdog.observe w state ->
        hook_watchdog state w;
        Watchdog.deadlocked state
      | Some _ | None -> loop ()
    end
  in
  let outcome = loop () in
  hook_finish state;
  outcome
