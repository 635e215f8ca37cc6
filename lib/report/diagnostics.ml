open Ximd_isa
module Core = Ximd_core
module M = Ximd_machine

type fu_report = {
  fu : int;
  halted : bool;
  pc : int;
  parcel : string option;
  waiting : Cond.t option;
  ss : Sync.t;
  cc : bool option;
  sset : int list;
}

type t = {
  outcome : Core.Run.outcome;
  cycle : int;
  fus : fu_report list;
  hazards : M.Hazard.event list;
  faults : M.Fault.event list;
}

let collect (state : Core.State.t) ~outcome =
  let program = state.program in
  let report fu =
    let halted = state.halted.(fu) in
    let pc = state.pcs.(fu) in
    let parcel =
      if pc >= 0 && pc < Core.Program.length program then
        Some (Parcel.to_string (Core.Program.row program pc).(fu))
      else None
    in
    let waiting =
      if halted then None
      else
        match
          if pc >= 0 && pc < Core.Program.length program then
            (Core.Program.row program pc).(fu).control
          else Control.Halt
        with
        | Control.Branch { cond; _ } -> Some cond
        | Control.Halt -> None
    in
    { fu;
      halted;
      pc;
      parcel;
      waiting;
      ss = state.sss.(fu);
      cc = state.ccs.(fu);
      sset = Core.Partition.sset_of (Core.State.partition state) fu }
  in
  { outcome;
    cycle = state.cycle;
    fus = List.init (Core.State.n_fus state) report;
    hazards = Core.State.hazards state;
    faults = (match state.faults with None -> [] | Some f -> M.Fault.fired f) }

(* ------------------------------------------------------------------ *)
(* Human-readable rendering                                            *)

let pp_cc fmt = function
  | None -> Format.pp_print_string fmt "X"
  | Some true -> Format.pp_print_string fmt "T"
  | Some false -> Format.pp_print_string fmt "F"

let pp_sset fmt sset =
  Format.fprintf fmt "{%s}"
    (String.concat "," (List.map string_of_int sset))

let pp_fu fmt r =
  Format.fprintf fmt "FU%-2d %-6s pc=%02x  ss=%-4s cc=%a  sset=%a" r.fu
    (if r.halted then "halted" else "live")
    r.pc
    (Sync.to_string r.ss)
    pp_cc r.cc pp_sset r.sset;
  (match r.waiting with
   | Some cond -> Format.fprintf fmt "  waits %a" Cond.pp cond
   | None -> ());
  match r.parcel with
  | Some p -> Format.fprintf fmt "  parcel: %s" p
  | None -> Format.fprintf fmt "  parcel: <outside program>"

let pp fmt t =
  let live = List.length (List.filter (fun r -> not r.halted) t.fus) in
  Format.fprintf fmt "@[<v>postmortem: %a@,cycle %d, %d/%d FUs live"
    Core.Run.pp t.outcome t.cycle live (List.length t.fus);
  List.iter (fun r -> Format.fprintf fmt "@,  %a" pp_fu r) t.fus;
  (match t.hazards with
   | [] -> ()
   | hs ->
     Format.fprintf fmt "@,hazards (%d):" (List.length hs);
     List.iter
       (fun e -> Format.fprintf fmt "@,  %a" M.Hazard.pp_event e)
       hs);
  (match t.faults with
   | [] -> ()
   | fs ->
     Format.fprintf fmt "@,injected faults fired (%d):" (List.length fs);
     List.iter
       (fun e -> Format.fprintf fmt "@,  %a" M.Fault.pp_event e)
       fs);
  Format.fprintf fmt "@]"

(* ------------------------------------------------------------------ *)
(* JSON rendering (hand-rolled, no dependencies)                       *)

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let jstr s = "\"" ^ json_escape s ^ "\""
let jlist items = "[" ^ String.concat "," items ^ "]"
let jobj fields =
  "{"
  ^ String.concat "," (List.map (fun (k, v) -> jstr k ^ ":" ^ v) fields)
  ^ "}"

let json_of_waiting (w : Core.Run.waiting) =
  jobj
    [ ("fu", string_of_int w.fu);
      ("pc", string_of_int w.pc);
      ("cond", jstr (Cond.to_string w.cond)) ]

let json_of_outcome = function
  | Core.Run.Halted { cycles } ->
    jobj [ ("kind", jstr "halted"); ("cycles", string_of_int cycles) ]
  | Core.Run.Fuel_exhausted { cycles } ->
    jobj [ ("kind", jstr "fuel_exhausted"); ("cycles", string_of_int cycles) ]
  | Core.Run.Deadlocked { cycles; spinning } ->
    jobj
      [ ("kind", jstr "deadlocked");
        ("cycles", string_of_int cycles);
        ("spinning", jlist (List.map json_of_waiting spinning)) ]
  | Core.Run.Budget_exceeded { cycles; budget } ->
    jobj
      [ ("kind", jstr "budget_exceeded");
        ("cycles", string_of_int cycles);
        ("budget", string_of_int budget) ]

let json_of_fu r =
  jobj
    [ ("fu", string_of_int r.fu);
      ("halted", string_of_bool r.halted);
      ("pc", string_of_int r.pc);
      ("parcel", (match r.parcel with Some p -> jstr p | None -> "null"));
      ( "waiting",
        match r.waiting with
        | Some c -> jstr (Cond.to_string c)
        | None -> "null" );
      ("ss", jstr (Sync.to_string r.ss));
      ("cc", (match r.cc with None -> "null" | Some b -> string_of_bool b));
      ("sset", jlist (List.map string_of_int r.sset)) ]

let json_of_hazard (e : M.Hazard.event) =
  jobj
    [ ("cycle", string_of_int e.cycle);
      ("hazard", jstr (M.Hazard.to_string e.hazard)) ]

let json_of_fault (e : M.Fault.event) =
  jobj
    [ ("at", string_of_int e.at);
      ("kind", jstr (M.Fault.kind_name e.kind));
      ("target", string_of_int e.target) ]

let to_json t =
  jobj
    [ ("outcome", json_of_outcome t.outcome);
      ("cycle", string_of_int t.cycle);
      ("fus", jlist (List.map json_of_fu t.fus));
      ("hazards", jlist (List.map json_of_hazard t.hazards));
      ("faults", jlist (List.map json_of_fault t.faults)) ]
