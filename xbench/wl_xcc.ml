(* xcc-compile: the compiler path, every compiled program run on xsim.

   Ops, one per input, in this order each round:
   - a generated .xc function: [Lang.compile] at widths 1/2/4/8 and
     [Tracesched.compile] at width 4 on its IR, each program run on
     xsim; judged against [Interp] on the same IR;
   - a [Kernels.loop_bodies] loop at width 4 or 8: [Kernelgen.compile],
     run; judged against [Kernelgen.rolled_reference] through [Interp]
     (the recurrence, which has no loop counter, gains one);
   - the Figure 13 thread set [Kernels.all]: [Tile.generate] per thread,
     [Packing.pack_density], [Threader.build], [Threader.run]; judged
     against [Threader.reference].
   Every oracle answer is computed at set-up. *)

open Ximd_isa
module Core = Ximd_core
module C = Ximd_compiler
module Kernels = Ximd_report.Kernels

(* What one simulated run left behind, for the oracle. *)
type observed = {
  halted : bool;
  values : Value.t list;       (* results / live-outs, in oracle order *)
  mem : Value.t list;          (* at the oracle's memory addresses *)
}

type unit_input = {
  source : string;
  func : C.Ir.func;
  args : Value.t list;
  mem_init : (int * Value.t) list;
  want_values : Value.t list;
  want_mem : (int * Value.t) list;
}

type kernel_input = {
  body : C.Ir.op array;
  width : int;
  live_out : C.Ir.vreg list;
  trip : int;
  inputs : (C.Ir.vreg * Value.t) list;
  k_mem : (int * Value.t) list;
  k_want_values : Value.t list;
  k_want_mem : (int * Value.t) list;
}

type pack_input = {
  pack_args : (string * Value.t list) list;
  pack_want : (string * Value.t list) list;
}

type op_input =
  | Unit of unit_input
  | Kernel of kernel_input
  | Pack of pack_input

type t = {
  ops : op_input array;
  last : observed list array;  (* latest runs of each op *)
}

let widths = [ 1; 2; 4; 8 ]
let trace_width = 4
let pack_deps = [ ("saxpy_step", "reduce8"); ("fir4", "reduce8"); ("addrgen", "fir4") ]

let ok_or_fail what = function
  | Ok x -> x
  | Error errors -> failwith (what ^ ": " ^ String.concat "; " errors)

(* ------------------------------------------------------------------ *)
(* Set-up: inputs and oracle answers                                   *)

let interp func ~args ~mem =
  match C.Interp.run func ~args ~mem with
  | Ok o -> o
  | Error msg -> failwith ("interp: " ^ msg)

let sorted_mem (o : C.Interp.outcome) =
  List.sort compare (Hashtbl.fold (fun a v acc -> (a, v) :: acc) o.mem [])

let unit_input (u : Inputs.xc_unit) =
  let func =
    match C.Lang.parse u.xc_source with
    | Ok f -> f
    | Error e -> failwith (Format.asprintf "generated .xc: %a" C.Lang.pp_error e)
  in
  let args = List.map Value.of_int u.xc_args in
  let mem_init = List.map (fun (a, v) -> (a, Value.of_int v)) u.xc_mem in
  let o = interp func ~args ~mem:mem_init in
  { source = u.xc_source; func; args; mem_init; want_values = o.results;
    want_mem = sorted_mem o }

(* A body without an induction variable (the recurrence) gets one, so
   its trip count is defined. *)
let induction body =
  let found = ref None in
  Array.iter
    (function
      | C.Ir.Bin (Opcode.Iadd, C.Ir.V v, C.Ir.C 1l, d) when v = d ->
        if !found = None then found := Some v
      | _ -> ())
    body;
  match !found with
  | Some v -> (body, v)
  | None ->
    let v = 90 in
    (Array.append body [| C.Ir.Bin (Opcode.Iadd, C.Ir.V v, C.Ir.C 1l, v) |], v)

let kernel_input (k : Inputs.kernel_spec) =
  let _, body = List.nth Kernels.loop_bodies k.k_index in
  let body, ind = induction body in
  let live_out =
    List.sort_uniq compare (List.filter_map C.Ir.defs (Array.to_list body))
  in
  let compiled =
    match C.Kernelgen.compile ~width:k.k_width ~live_out body with
    | Ok c -> c
    | Error msg -> failwith ("kernelgen: " ^ msg)
  in
  let trip = compiled.stages - 1 + (compiled.unroll * k.k_passes) in
  let trip = if trip < compiled.min_trip then trip + compiled.unroll * 4 else trip in
  let st = Random.State.make [| k.k_seed |] in
  let inputs =
    List.map
      (fun v ->
        if v = ind then (v, Value.zero)
        else (v, Value.of_int (0x3000 + (256 * (v mod 8)) + Random.State.int st 64)))
      (C.Kernelgen.live_in body)
  in
  let k_mem =
    List.concat_map
      (fun base ->
        List.init 160 (fun i -> (base + i, Value.of_int (Random.State.int st 256))))
      [ 0x1000; 0x2000; 0x3000; 0x3100; 0x3200; 0x3300; 0x3400; 0x3500;
        0x3600; 0x3700 ]
  in
  let trip_vreg = 99 in
  let func =
    C.Kernelgen.rolled_reference ~trip:trip_vreg ~induction:ind ~live_out body
  in
  let args =
    List.map
      (fun v ->
        if v = trip_vreg then Value.of_int trip
        else Option.value (List.assoc_opt v inputs) ~default:Value.zero)
      func.params
  in
  let o = interp func ~args ~mem:k_mem in
  { body; width = k.k_width; live_out; trip; inputs; k_mem;
    k_want_values = o.results; k_want_mem = sorted_mem o }

(* Arguments for the Figure 13 threads: fir4 reads and writes memory at
   its base, chain chases pointers from its own; the two stay apart so
   the memory-free reference holds. *)
let pack_args seeded =
  let next = ref 0 in
  let arg () =
    let v = seeded.(!next mod Array.length seeded) in
    incr next;
    v
  in
  List.map
    (fun (f : C.Ir.func) ->
      let values =
        List.mapi
          (fun i _ ->
            match (f.name, i) with
            | "fir4", 0 -> Value.of_int (1000 + arg ())
            | "fir4", 1 -> Value.of_int (1 + (arg () mod 4))
            | "chain", 0 -> Value.of_int (2000 + arg ())
            | _ -> Value.of_int (arg ()))
          f.params
      in
      (f.name, values))
    Kernels.all

let build_threads () =
  ok_or_fail "threader"
    (C.Threader.build ~threads:Kernels.all ~deps:pack_deps ~wires:[] ())

let pack_input seeded =
  let pack_args = pack_args seeded in
  let t = build_threads () in
  match C.Threader.reference t ~threads:Kernels.all ~args:pack_args with
  | Ok pack_want -> { pack_args; pack_want }
  | Error msg -> failwith ("threader reference: " ^ msg)

let setup ?(plant = false) ~seed () =
  let x = Inputs.xcc ~seed in
  let units = Array.map unit_input x.units in
  if plant then begin
    let u = units.(0) in
    units.(0) <-
      { u with
        want_values =
          (match u.want_values with
           | v :: rest -> Value.of_int (Value.to_int v + 1) :: rest
           | [] -> [ Value.zero ]) }
  end;
  (* kernel and packing ops spread evenly among the units, so every
     window of ops has the same mix *)
  let special =
    Array.append
      (Array.map (fun k -> Kernel (kernel_input k)) x.kernels)
      (Array.map (fun args -> Pack (pack_input args)) x.pack_args)
  in
  let total = Array.length units + Array.length special in
  let ops = Array.make total (Unit units.(0)) in
  let next_unit = ref 0 and next_special = ref 0 in
  for i = 0 to total - 1 do
    if
      !next_special < Array.length special
      && (!next_special + 1) * total
         <= (i + 1) * (Array.length special + 1)
    then begin
      ops.(i) <- special.(!next_special);
      incr next_special
    end
    else begin
      ops.(i) <- Unit units.(!next_unit);
      incr next_unit
    end
  done;
  { ops; last = Array.make (Array.length ops) [] }

(* ------------------------------------------------------------------ *)
(* Running compiled code                                               *)

(* [time] wraps the public calls the traced run times and [engine] runs
   the engine; the plain run passes [untimed]. *)
type timer = {
  time : 'a. string -> (unit -> 'a) -> 'a;
  engine : Core.State.t -> Core.Run.outcome;
}

let untimed =
  { time = (fun _ f -> f ()); engine = Core.Engine.run Core.Engine.Per_fu }

let read_mem state addrs = List.map (fun (a, _) -> Core.State.mem_get state a) addrs

let run_state tm ?obs ~n_fus ~max_cycles program ~init =
  let config = Core.Config.make ~n_fus ~max_cycles () in
  let state =
    tm.time "state.create" (fun () -> Core.State.create ~config ?obs program)
  in
  init state;
  (tm.engine state, state)

let run_compiled tm ?obs (u : unit_input) (c : C.Codegen.compiled) =
  let init state =
    List.iter2
      (fun vreg arg ->
        match List.assoc_opt vreg c.param_regs with
        | Some r -> Ximd_machine.Regfile.set state.Core.State.regs r arg
        | None -> ())
      u.func.params u.args;
    List.iter (fun (a, v) -> Core.State.mem_set state a v) u.mem_init
  in
  let outcome, state =
    run_state tm ?obs ~n_fus:c.width ~max_cycles:1_000_000 c.program ~init
  in
  let values =
    List.map
      (fun vreg ->
        match List.assoc_opt vreg c.result_regs with
        | Some r -> Ximd_machine.Regfile.read state.regs r
        | None -> Value.zero)
      u.func.results
  in
  ( Core.Run.cycles outcome,
    { halted = Core.Run.completed outcome; values; mem = read_mem state u.want_mem },
    state )

let run_kernel tm ?obs (k : kernel_input) (g : C.Kernelgen.t) =
  let init state =
    Ximd_machine.Regfile.set state.Core.State.regs g.trip_reg (Value.of_int k.trip);
    List.iter
      (fun (v, value) ->
        match List.assoc_opt v g.live_in_regs with
        | Some r -> Ximd_machine.Regfile.set state.regs r value
        | None -> ())
      k.inputs;
    List.iter (fun (a, v) -> Core.State.mem_set state a v) k.k_mem
  in
  let outcome, state =
    run_state tm ?obs ~n_fus:g.width ~max_cycles:100_000 g.program ~init
  in
  let values =
    List.map
      (fun v ->
        match List.assoc_opt v g.live_out_regs with
        | Some r -> Ximd_machine.Regfile.read state.regs r
        | None -> Value.zero)
      k.live_out
  in
  ( Core.Run.cycles outcome,
    { halted = Core.Run.completed outcome; values; mem = read_mem state k.k_want_mem },
    state )

(* One op.  Returns simulated cycles; the observations go to [t.last].
   The traced run passes its timer. *)
let run_op ?(tm = untimed) t i =
  match t.ops.(i) with
  | Unit u ->
    let parse () =
      match tm.time "lang.parse" (fun () -> C.Lang.parse u.source) with
      | Ok f -> f
      | Error e -> failwith (Format.asprintf "%a" C.Lang.pp_error e)
    in
    (* [Lang.compile] is [Lang.parse] then [Codegen.compile], made here
       as two calls so that the traced run times each *)
    let per_width =
      List.map
        (fun width ->
          let func = parse () in
          let c =
            ok_or_fail "codegen"
              (tm.time "codegen.compile" (fun () ->
                 C.Codegen.compile ~width func))
          in
          let cycles, o, _ = run_compiled tm u c in
          (cycles, o))
        widths
    in
    let func = parse () in
    let r =
      ok_or_fail "tracesched"
        (tm.time "tracesched.compile" (fun () ->
           C.Tracesched.compile ~width:trace_width func))
    in
    let cycles, o, _ = run_compiled tm u r.compiled in
    let all = per_width @ [ (cycles, o) ] in
    t.last.(i) <- List.map snd all;
    List.fold_left (fun acc (c, _) -> acc + c) 0 all
  | Kernel k ->
    let g =
      match
        tm.time "kernelgen.compile" (fun () ->
          C.Kernelgen.compile ~width:k.width ~live_out:k.live_out k.body)
      with
      | Ok g -> g
      | Error msg -> failwith ("kernelgen: " ^ msg)
    in
    let cycles, o, _ = run_kernel tm k g in
    t.last.(i) <- [ o ];
    cycles
  | Pack p ->
    let menus =
      List.map
        (fun (f : C.Ir.func) ->
          let tiles =
            ok_or_fail "tile"
              (tm.time "tile.generate" (fun () -> C.Tile.generate ~widths f))
          in
          (f.name, C.Tile.pareto tiles))
        Kernels.all
    in
    (match tm.time "packing.pack" (fun () -> C.Packing.pack_density ~n_fus:8 menus) with
     | Ok _ -> ()
     | Error msg -> failwith ("packing: " ^ msg));
    let th = tm.time "threader.build" build_threads in
    let outcome, state =
      match C.Threader.run th ~args:p.pack_args with
      | Ok x -> x
      | Error msg -> failwith ("threader run: " ^ msg)
    in
    let results = C.Threader.results th state in
    t.last.(i) <-
      [ { halted = Core.Run.completed outcome;
          values = List.concat_map snd results;
          mem = [] } ];
    Core.Run.cycles outcome

let agree what want got =
  if List.length want = List.length got && List.for_all2 Value.equal want got
  then Ok ()
  else
    Error
      (Printf.sprintf "%s: expected [%s], got [%s]" what
         (String.concat ";" (List.map (fun v -> string_of_int (Value.to_int v)) want))
         (String.concat ";" (List.map (fun v -> string_of_int (Value.to_int v)) got)))

let check_runs ~want_values ~want_mem runs =
  let rec go k = function
    | [] -> Ok ()
    | (o : observed) :: rest ->
      if not o.halted then Error (Printf.sprintf "run %d did not halt" k)
      else
        Result.bind (agree (Printf.sprintf "run %d results" k) want_values o.values)
          (fun () ->
            Result.bind
              (agree (Printf.sprintf "run %d memory" k) (List.map snd want_mem) o.mem)
              (fun () -> go (k + 1) rest))
  in
  if runs = [] then Error "never ran" else go 0 runs

let check t i =
  match t.ops.(i) with
  | Unit u -> check_runs ~want_values:u.want_values ~want_mem:u.want_mem t.last.(i)
  | Kernel k ->
    check_runs ~want_values:k.k_want_values ~want_mem:k.k_want_mem t.last.(i)
  | Pack p ->
    check_runs ~want_values:(List.concat_map snd p.pack_want) ~want_mem:[] t.last.(i)

let label t i =
  match t.ops.(i) with
  | Unit u -> Printf.sprintf "xc %s" u.func.name
  | Kernel k -> Printf.sprintf "kernel %d-op body at width %d" (Array.length k.body) k.width
  | Pack _ -> "figure 13 thread set"

let n t = Array.length t.ops
let window = 32

let timed t ~seconds =
  Measure.sequential ~seconds ~n:(n t) ~window ~label:(label t)
    ~op:(run_op t) ~check:(check t)

(* ------------------------------------------------------------------ *)
(* Traced run                                                          *)

let traced t ~seconds =
  let tr = Trace.create () in
  let op = ref 0 in
  let words = Sample.create () in
  let tm =
    { time = (fun name f -> Trace.call tr name ~op:!op f);
      engine =
        (fun state ->
          let w0 = Gc.minor_words () in
          let t0 = Clock.now_ns () in
          let outcome = Core.Engine.run Core.Engine.Per_fu state in
          let t1 = Clock.now_ns () in
          let cycles = Core.Run.cycles outcome in
          Sample.add words
            ((Gc.minor_words () -. w0) /. float_of_int (max 1 cycles));
          Trace.record tr "engine.run.xsim" ~op:!op ~t0 ~t1 ~work:cycles ();
          outcome) }
  in
  let run_traced i =
    let cycles = run_op ~tm t i in
    incr op;
    cycles
  in
  let phase =
    Measure.sequential ~seconds ~n:(n t) ~window ~label:(label t)
      ~op:run_traced ~check:(check t)
  in
  (* Probe pass, outside the timed loop: Schedobs attached to every
     compile (its per-pass timings and loop bounds), the oracle's
     interpreter timed, static code size, and the simulated counts of
     every compiled run with an account-only sink. *)
  let pass_us = Hashtbl.create 16 in
  let static_rows = ref 0 and ii_gap = ref 0 in
  let c = Measure.counts () in
  (* the clock is scaled by 1000 so the Chrome export's integer
     microseconds carry nanoseconds *)
  let clock () = Clock.now_s () *. 1000. in
  let harvest obs =
    (match Ximd_farm.Json.parse (C.Schedobs.to_chrome obs) with
     | Ok json -> (
       match Ximd_farm.Json.member "traceEvents" json with
       | Some (Ximd_farm.Json.List events) ->
         List.iter
           (fun ev ->
             match
               ( Ximd_farm.Json.member "tid" ev,
                 Ximd_farm.Json.member "ph" ev,
                 Ximd_farm.Json.member "name" ev,
                 Ximd_farm.Json.member "dur" ev )
             with
             | Some (Int 0), Some (String "X"), Some (String name), Some d ->
               let ns = float_of_int (Option.value (Ximd_farm.Json.to_int d) ~default:0) in
               let s =
                 match Hashtbl.find_opt pass_us name with
                 | Some s -> s
                 | None ->
                   let s = Sample.create () in
                   Hashtbl.add pass_us name s;
                   s
               in
               Sample.add s (ns /. 1e3)
             | _ -> ())
           events
       | _ -> ())
     | Error _ -> ());
    List.iter
      (fun (l : C.Schedobs.loop_report) ->
        ii_gap :=
          !ii_gap + l.l_ii - max l.l_bounds.res_mii l.l_bounds.rec_mii)
      (C.Schedobs.loops obs)
  in
  let counted (state : Core.State.t) sink =
    Measure.add_stats c state.stats;
    Option.iter (Measure.add_account c) (Ximd_obs.Sink.account sink)
  in
  Array.iter
    (fun op_input ->
      incr op;
      match op_input with
      | Unit u ->
        ignore
          (Trace.call tr "interp" ~op:!op (fun () ->
             C.Interp.run u.func ~args:u.args ~mem:u.mem_init));
        let compiled =
          List.map
            (fun width ->
              let obs = C.Schedobs.create ~clock () in
              let cc = ok_or_fail "compile" (C.Lang.compile ~width ~obs u.source) in
              harvest obs;
              cc)
            widths
        in
        let obs = C.Schedobs.create ~clock () in
        let r = ok_or_fail "tracesched" (C.Tracesched.compile ~width:trace_width ~obs u.func) in
        harvest obs;
        List.iter
          (fun (cc : C.Codegen.compiled) ->
            static_rows := !static_rows + cc.static_rows;
            let sink =
              Measure.account_sink ~n_fus:cc.width
                ~code_len:(Core.Program.length cc.program)
            in
            let _, _, state = run_compiled untimed ~obs:sink u cc in
            counted state sink)
          (compiled @ [ r.compiled ])
      | Kernel k -> (
        (match C.Pipeliner.schedule ~width:k.width k.body with
         | Ok s -> ii_gap := !ii_gap + s.ii - max s.res_mii s.rec_mii
         | Error _ -> ());
        match C.Kernelgen.compile ~width:k.width ~live_out:k.live_out k.body with
        | Ok g ->
          let sink =
            Measure.account_sink ~n_fus:g.width
              ~code_len:(Core.Program.length g.program)
          in
          let _, _, state = run_kernel untimed ~obs:sink k g in
          counted state sink
        | Error _ -> ())
      | Pack _ -> ())
    t.ops;
  let pass name =
    Measure.m (Catalog.pass_metric name) "us"
      (match Hashtbl.find_opt pass_us name with
       | Some s -> Sample.median s
       | None -> 0.0)
  in
  let layer =
    [ Measure.m "state.create_us" "us" (Trace.median_us tr "state.create");
      Measure.m "engine.ns_per_cycle.xsim" "ns"
        (Trace.median_per_unit_ns tr "engine.run.xsim");
      Measure.m "engine.words_per_cycle.xsim" "words" (Sample.median words);
      Measure.m "lang.parse_us" "us" (Trace.median_us tr "lang.parse");
      Measure.m "codegen.compile_us" "us" (Trace.median_us tr "codegen.compile");
      Measure.m "tracesched.compile_us" "us"
        (Trace.median_us tr "tracesched.compile");
      Measure.m "kernelgen.compile_us" "us"
        (Trace.median_us tr "kernelgen.compile");
      Measure.m "tile.generate_us" "us" (Trace.median_us tr "tile.generate");
      Measure.m "packing.pack_us" "us" (Trace.median_us tr "packing.pack");
      Measure.m "threader.build_us" "us" (Trace.median_us tr "threader.build");
      Measure.m "codegen.static_rows" "count" (float_of_int !static_rows);
      Measure.m "pipeliner.ii_gap" "count" (float_of_int !ii_gap);
      Measure.m "interp.us" "us" (Trace.median_us tr "interp") ]
    @ List.map pass Catalog.schedobs_passes
    @ Measure.counts_metrics c
  in
  (phase, layer, tr)
