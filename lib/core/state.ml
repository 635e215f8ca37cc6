open Ximd_isa

type scratch = {
  parcels : Parcel.t array;
  was_live : bool array;
  taken : bool array;
  old_pcs : int array;
  key_c : int array;
  key_t1 : int array;
  key_t2 : int array;
  str_live : bool array;
  ctrl : Parcel.t array;
  spun : bool array;
  ss_edge : bool array;
  cc_fu : int array;
  cc_val : bool array;
  mutable cc_len : int;
}

type inflight = {
  mutable ifl_len : int;
  mutable ifl_due : int array;
  mutable ifl_is_mem : bool array;
  mutable ifl_fu : int array;
  mutable ifl_loc : int array;
  mutable ifl_value : Value.t array;
}

type t = {
  config : Config.t;
  mutable program : Program.t;
      (* mutable only for [reset ~program]: swapping in the next program
         of a sweep without rebuilding the arenas *)
  regs : Ximd_machine.Regfile.t;
  mem : Ximd_machine.Memory.t;
  io : Ximd_machine.Ioport.t;
  log : Ximd_machine.Hazard.log;
  stats : Stats.t;
  mutable cycle : int;
  pcs : int array;
  ccs : bool option array;
  sss : Sync.t array;
  halted : bool array;
  labels : int array;
  mutable shown : Partition.t;
  shown_labels : int array;
  scratch : scratch;
  inflight : inflight;
  faults : Ximd_machine.Fault.t option;
      (* [None] in the common case: the simulators and [Exec] test this
         field with a single branch and touch nothing else *)
  obs : Ximd_obs.Sink.t option;
      (* observability sink, same single-branch discipline as [faults] *)
}

(* Program.validate walks every parcel of the program.  Benchmarks and
   workload sweeps create thousands of states for the same immutable
   program/config pair, so remember recently validated pairs (compared
   by physical equality — both values are immutable). *)
let validated : (Program.t * Config.t) option array = Array.make 8 None
let validated_next = ref 0

let ensure_valid program config =
  let cached =
    Array.exists
      (function
        | Some (p, c) -> p == program && c == config
        | None -> false)
      validated
  in
  if not cached then begin
    (match Program.validate program config with
     | Ok () -> ()
     | Error errors ->
       invalid_arg
         ("State.create: invalid program:\n" ^ String.concat "\n" errors));
    validated.(!validated_next) <- Some (program, config);
    validated_next := (!validated_next + 1) mod Array.length validated
  end

let create ?(config = Config.default) ?faults ?obs program =
  ensure_valid program config;
  let n = config.n_fus in
  (match obs with
   | Some sink when Ximd_obs.Sink.n_fus sink <> config.n_fus ->
     invalid_arg "State.create: obs sink built for a different FU count"
   | Some _ | None -> ());
  { config;
    faults;
    obs;
    program;
    regs = Ximd_machine.Regfile.create ();
    mem =
      Ximd_machine.Memory.create ~organisation:config.mem_organisation
        ~words:config.mem_words ();
    io = Ximd_machine.Ioport.create ~n_ports:config.n_ports ();
    log = Ximd_machine.Hazard.create_log config.hazard_policy;
    stats = Stats.create ();
    cycle = 0;
    pcs = Array.make n 0;
    ccs = Array.make n None;
    sss = Array.make n Sync.Busy;
    halted = Array.make n false;
    labels = Array.make n 0;
    shown = Partition.initial ~n;
    shown_labels = Array.make n 0;
    scratch =
      { parcels = Array.make n Parcel.halted;
        was_live = Array.make n false;
        taken = Array.make n false;
        old_pcs = Array.make n 0;
        key_c = Array.make n 0;
        key_t1 = Array.make n 0;
        key_t2 = Array.make n 0;
        str_live = Array.make n false;
        ctrl = Array.make n Parcel.halted;
        spun = Array.make n false;
        ss_edge = Array.make n false;
        cc_fu = Array.make n 0;
        cc_val = Array.make n false;
        cc_len = 0 };
    inflight =
      (let cap = max 16 (n * config.result_latency) in
       { ifl_len = 0;
         ifl_due = Array.make cap 0;
         ifl_is_mem = Array.make cap false;
         ifl_fu = Array.make cap 0;
         ifl_loc = Array.make cap 0;
         ifl_value = Array.make cap Value.zero }) }

(* Rewind to the [create] state without reallocating any arena: the
   register file, memory pages, scratch buffers and in-flight queue are
   all reused in place.  The configuration is fixed for the lifetime of
   the state — every arena is sized from it — so only the program may be
   swapped. *)
let reset ?program t =
  let program =
    match program with
    | None -> t.program
    | Some p ->
      ensure_valid p t.config;
      p
  in
  t.program <- program;
  let n = t.config.n_fus in
  Ximd_machine.Regfile.reset t.regs;
  Ximd_machine.Memory.reset t.mem;
  Ximd_machine.Ioport.reset t.io;
  Ximd_machine.Hazard.clear t.log;
  Stats.reset t.stats;
  t.cycle <- 0;
  Array.fill t.pcs 0 n 0;
  Array.fill t.ccs 0 n None;
  Array.fill t.sss 0 n Sync.Busy;
  Array.fill t.halted 0 n false;
  Array.fill t.labels 0 n 0;
  t.scratch.cc_len <- 0;
  Array.fill t.scratch.spun 0 n false;
  Array.fill t.scratch.ss_edge 0 n false;
  t.inflight.ifl_len <- 0;
  (match t.faults with
   | None -> ()
   | Some f -> Ximd_machine.Fault.reset f);
  match t.obs with
  | None -> ()
  | Some sink -> Ximd_obs.Sink.reset sink

let n_fus t = t.config.n_fus

(* Plain loops: the stdlib iterators' local closures capture the array
   and would allocate on every call from the per-cycle path. *)
let all_halted t =
  let fu = ref 0 and n = Array.length t.halted in
  while !fu < n && t.halted.(!fu) do
    incr fu
  done;
  !fu = n

let live_fu_count t =
  let c = ref 0 in
  for fu = 0 to Array.length t.halted - 1 do
    if not t.halted.(fu) then incr c
  done;
  !c

(* Rebuilt only when the labels moved since the last call: observers
   call this every cycle, the labels change far less often. *)
let partition t =
  if t.labels <> t.shown_labels then begin
    t.shown <- Partition.of_labels t.labels;
    Array.blit t.labels 0 t.shown_labels 0 (Array.length t.labels)
  end;
  t.shown

let iter_live_fus t f =
  for fu = 0 to n_fus t - 1 do
    if not t.halted.(fu) then f fu
  done

let live_fus t =
  let rec go fu acc =
    if fu < 0 then acc
    else go (fu - 1) (if t.halted.(fu) then acc else fu :: acc)
  in
  go (n_fus t - 1) []

let in_flight_count t = t.inflight.ifl_len

let cc t i = t.ccs.(i)
let ss t i = t.sss.(i)
let pc t i = t.pcs.(i)

let reg t i = Ximd_machine.Regfile.read t.regs (Reg.make i)
let set_reg t i v = Ximd_machine.Regfile.set t.regs (Reg.make i) v
let mem_get t addr = Ximd_machine.Memory.get t.mem addr
let mem_set t addr v = Ximd_machine.Memory.set t.mem addr v

let hazards t = Ximd_machine.Hazard.events t.log
