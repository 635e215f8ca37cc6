(* serve-campaign: a seeded ximd-job/1 stream through one farm pool.

   One pool is created at set-up; one submitting thread feeds it lines
   with [Farm.submit_line] in a closed loop bounded by the farm's queue,
   round after round over the 4096-line stream.  [emit] serialises each
   record with [Record.to_json_string], as the batch front-end does, and
   keeps the few facts the oracle needs.  An op is one job; its latency
   runs from submit to emit.  Each round's records are judged once its
   last one is out, while the pool idles: named workloads by their own
   check (which the farm runs), inline and file sources against
   lib/ref, everything else against the outcome class the line was
   generated to produce.  Set-up writes the sources the file jobs name
   under .xbench/ in the working directory. *)

module Core = Ximd_core
module Farm = Ximd_farm.Farm
module Record = Ximd_farm.Record
module Value = Ximd_isa.Value

type expected =
  | Named_ok
  | Class of string
  | Finished_any
  | Ref_halted of { cycles : int; hazards : int; regs : (int * Value.t) list }
  | Ref_no_halt  (* the reference ran out of fuel: a wedge or a loop *)

(* What the emit callback keeps of each record of the current round,
   by position in the round. *)
type facts = {
  cls : string array;
  cycles : int array;
  check_ok : bool array;
  hazards : int array;
  regs : (Ximd_isa.Reg.t * Value.t) list array;
  t_emit : int array;
  stats : Record.stats option array;  (* traced run only *)
  mutable bytes : int;
  emitted : int Atomic.t;
}

let new_facts n =
  { cls = Array.make n "";
    cycles = Array.make n 0;
    check_ok = Array.make n true;
    hazards = Array.make n 0;
    regs = Array.make n [];
    t_emit = Array.make n 0;
    stats = Array.make n None;
    bytes = 0;
    emitted = Atomic.make 0 }

(* Called by the pool, in stream order, with its lock held. *)
let keep f ~keep_stats (r : Record.t) json =
  let i = r.job.index mod Array.length f.cls in
  f.cls.(i) <- Record.class_label r;
  f.cycles.(i) <- (match r.stats with Some s -> s.cycles | None -> 0);
  f.check_ok.(i) <- r.check = None;
  f.hazards.(i) <- r.hazards;
  f.regs.(i) <- r.regs;
  if keep_stats then f.stats.(i) <- r.stats;
  f.bytes <- f.bytes + String.length json;
  f.t_emit.(i) <- Clock.now_ns ();
  Atomic.incr f.emitted

type t = {
  lines : string array;
  expected : expected array;
  domains : int;
  mutable farm : (Farm.t * facts) option;  (* the set-up pool, until used *)
}

(* ------------------------------------------------------------------ *)
(* Oracle                                                              *)

let reference ~source ~n_fus ~max_cycles ~regs ~dump =
  match Ximd_asm.Source.parse source with
  | Error e ->
    failwith (Format.asprintf "generated source: %a" Ximd_asm.Source.pp_error e)
  | Ok program ->
    let config =
      Core.Config.make ~n_fus ~hazard_policy:Ximd_machine.Hazard.Record
        ~max_cycles ()
    in
    let o =
      Ximd_ref.Interp.run ~model:Ximd_ref.Interp.Per_fu ~config
        ~setup:(fun m ->
          List.iter
            (fun (r, v) -> Ximd_ref.Interp.set_reg m r (Value.of_int v))
            regs)
        program
    in
    (match o.outcome with
     | Core.Run.Halted { cycles } ->
       Ref_halted
         { cycles;
           hazards = List.length o.hazards;
           regs = List.map (fun r -> (r, o.registers.(r))) dump }
     | _ -> Ref_no_halt)

let expectation (job : Inputs.job) =
  match job.expect with
  | Inputs.Named_ok -> Named_ok
  | Inputs.Class c -> Class c
  | Inputs.Finished_any -> Finished_any
  | Inputs.Program { source; n_fus; max_cycles; regs; dump } ->
    reference ~source ~n_fus ~max_cycles ~regs ~dump

let finished = [ "ok"; "hazardous"; "fuel_exhausted"; "deadlocked"; "budget_exceeded" ]

let judge expected (f : facts) k =
  let cls = f.cls.(k) in
  let want what = Error (Printf.sprintf "expected %s, got %s" what cls) in
  match expected with
  | Named_ok ->
    if cls <> "ok" then want "ok"
    else if not f.check_ok.(k) then Error "the workload's check failed"
    else Ok ()
  | Class c -> if cls = c then Ok () else want c
  | Finished_any ->
    if List.mem cls finished then Ok () else want "a finished run"
  | Ref_no_halt ->
    if cls = "deadlocked" || cls = "fuel_exhausted" then Ok ()
    else want "deadlocked or fuel_exhausted (lib/ref never halts)"
  | Ref_halted { cycles; hazards; regs } ->
    let cls_ref = if hazards > 0 then "hazardous" else "ok" in
    if cls <> cls_ref then want cls_ref
    else if f.cycles.(k) <> cycles then
      Error (Printf.sprintf "cycles: lib/ref %d, farm %d" cycles f.cycles.(k))
    else if f.hazards.(k) <> hazards then
      Error
        (Printf.sprintf "hazards: lib/ref %d, farm %d" hazards f.hazards.(k))
    else if
      List.length f.regs.(k) <> List.length regs
      || not
           (List.for_all2
              (fun (r, v) (r', v') ->
                Ximd_isa.Reg.index r = r' && Value.equal v v')
              f.regs.(k) regs)
    then Error "dumped registers differ from lib/ref"
    else Ok ()

(* ------------------------------------------------------------------ *)

let create_farm ?obs ~n ~domains ~keep_stats () =
  let f = new_facts n in
  let emit r = keep f ~keep_stats r (Record.to_json_string r) in
  (Farm.create ~domains ?obs ~emit (), f)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

(* The sources the stream's file jobs name. *)
let write_files (jobs : Inputs.job array) =
  Array.iter
    (fun (j : Inputs.job) ->
      Option.iter
        (fun (path, text) ->
          mkdir_p (Filename.dirname path);
          Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc text))
        j.file)
    jobs

let setup ?(plant = false) ~seed ~domains () =
  let jobs = Inputs.serve ~seed in
  write_files jobs;
  let expected = Array.map expectation jobs in
  (* the planted wrong expected value: job 0 is expected to crash *)
  if plant then expected.(0) <- Class "crashed";
  { lines = Array.map (fun (j : Inputs.job) -> j.line) jobs;
    expected;
    domains;
    farm =
      Some (create_farm ~n:(Array.length jobs) ~domains ~keep_stats:false ())
  }

let dispose t =
  Option.iter (fun (farm, _) -> Farm.join farm) t.farm;
  t.farm <- None

(* Feed the stream round after round until the time is up (and at least
   one round has gone).  Each round ends when its last record is out;
   the pool then idles while the host's slowness is sampled (the pool
   keeps both cores busy, so never during a round; a round is scaled by
   the mean of the samples before and after it) and the round is
   judged.  [submit] wraps the submit call (the traced run times it);
   [on_round] sees each round's facts before the next one overwrites
   them. *)
let drive t farm (f : facts) ~seconds ~submit ~on_round =
  let n = Array.length t.lines in
  let p = Measure.create () in
  let t_submit = Array.make n 0 in
  let words0 = Measure.minor_words () in
  let deadline = Clock.now_ns () + int_of_float (seconds *. 1e9) in
  let slowness () = Calib.slowness ~domains:t.domains () in
  let round = ref 0 and slow_before = ref (slowness ()) in
  while !round = 0 || Clock.now_ns () < deadline do
    let start = Clock.now_ns () in
    for i = 0 to n - 1 do
      t_submit.(i) <- Clock.now_ns ();
      if not (submit ((!round * n) + i) (fun () -> Farm.submit_line farm t.lines.(i)))
      then failwith "farm refused a job"
    done;
    while Atomic.get f.emitted < (!round + 1) * n do
      Unix.sleepf 0.0002
    done;
    let raw_s = Clock.seconds_between start f.t_emit.(n - 1) in
    let slow_after = slowness () in
    let slow = (!slow_before +. slow_after) /. 2. in
    slow_before := slow_after;
    let cycles = ref 0 in
    for i = 0 to n - 1 do
      Sample.add p.op_ms
        (float_of_int (f.t_emit.(i) - t_submit.(i)) *. 1e-6 /. slow);
      cycles := !cycles + f.cycles.(i);
      match judge t.expected.(i) f i with
      | Ok () -> ()
      | Error reason ->
        Measure.fail p ~op:((!round * n) + i) ~label:t.lines.(i) reason
    done;
    if !round = 0 then begin
      p.round_cycles <- !cycles;
      p.round_ops <- n
    end;
    p.ops <- p.ops + n;
    p.cycles <- p.cycles + !cycles;
    p.elapsed_s <- p.elapsed_s +. raw_s;
    Sample.add p.slowness slow;
    Sample.add p.raw_ops_per_s (float_of_int n /. raw_s);
    Sample.add p.window_ops_per_s (float_of_int n *. slow /. raw_s);
    Sample.add p.window_cycles_per_s (float_of_int !cycles *. slow /. raw_s);
    on_round !round;
    incr round
  done;
  Farm.join farm;
  p.minor_words <- Measure.minor_words () -. words0;
  p.words_ops <- p.ops;
  p

let timed t ~seconds =
  let farm, f =
    match t.farm with
    | Some x -> x
    | None ->
      create_farm ~n:(Array.length t.lines) ~domains:t.domains
        ~keep_stats:false ()
  in
  t.farm <- None;
  drive t farm f ~seconds ~submit:(fun _ submit -> submit ())
    ~on_round:ignore

(* ------------------------------------------------------------------ *)
(* Traced run: the same stream through a pool with Farmobs attached.   *)

let traced t ~seconds =
  let n = Array.length t.lines in
  let tr = Trace.create () in
  let emit_tr = Trace.create () in
  (* the assembler on every inline source of the stream *)
  Array.iteri
    (fun op line ->
      match Ximd_farm.Json.parse line with
      | Ok json -> (
        match Ximd_farm.Json.member "source" json with
        | Some (Ximd_farm.Json.String source) ->
          ignore
            (Trace.call tr "asm.parse" ~op (fun () ->
               Ximd_asm.Source.parse source))
        | _ -> ())
      | Error _ -> ())
    t.lines;
  let obs = Ximd_obs.Farmobs.create ~clock:Clock.now_s () in
  let f = new_facts n in
  let emit (r : Record.t) =
    let t0 = Clock.now_ns () in
    let op = r.job.index in
    let json =
      Trace.call emit_tr "record.json" ~op (fun () -> Record.to_json_string r)
    in
    keep f ~keep_stats:true r json;
    Trace.record emit_tr "farm.emit" ~op ~t0 ~t1:(Clock.now_ns ()) ()
  in
  let farm = Farm.create ~domains:t.domains ~obs ~emit () in
  (* simulated counts and outcome classes of the first round (every
     round is the same stream) *)
  let c = Measure.counts () in
  let classes = Hashtbl.create 16 in
  let first_round r =
    if r = 0 then
      for i = 0 to n - 1 do
        Hashtbl.replace classes f.cls.(i)
          (1 + Option.value (Hashtbl.find_opt classes f.cls.(i)) ~default:0);
        match f.stats.(i) with
        | Some s ->
          c.data_ops <- c.data_ops + s.data_ops;
          c.spin_slots <- c.spin_slots + s.spin_slots;
          c.commit_ops <- c.commit_ops + s.commit_ops;
          c.max_streams <- c.max_streams + s.max_streams
        | None -> ()
      done
  in
  let p =
    drive t farm f ~seconds
      ~submit:(fun op submit -> Trace.call tr "farm.submit" ~op submit)
      ~on_round:first_round
  in
  Trace.merge ~into:tr emit_tr;
  let spans = Ximd_obs.Farmobs.spans obs in
  let ms get =
    let s = Sample.create () in
    List.iter (fun sp -> Sample.add s (get sp *. 1e3)) spans;
    s
  in
  let queue_wait = ms Ximd_obs.Span.queue_wait in
  let run_ms = ms Ximd_obs.Span.run_time in
  let busy =
    List.fold_left
      (fun acc (sp : Ximd_obs.Span.t) -> acc +. (sp.run_end_t -. sp.dequeue_t))
      0.0 spans
  in
  let hits, misses = Ximd_obs.Farmobs.session_cache_stats obs in
  let rounds = p.ops / n in
  List.iteri
    (fun i (_, total) -> c.slots.(i) <- total / max 1 rounds)
    (Ximd_obs.Farmobs.account_totals obs);
  let outcome cls =
    Measure.m ("farm.outcome." ^ cls) "count"
      (float_of_int (Option.value (Hashtbl.find_opt classes cls) ~default:0))
  in
  let layer =
    [ Measure.m "asm.parse_us" "us" (Trace.median_us tr "asm.parse");
      Measure.m "farm.submit_us" "us" (Trace.median_us tr "farm.submit");
      Measure.m "farm.queue_wait_ms.p50" "ms" (Sample.quantile queue_wait 0.5);
      Measure.m "farm.queue_wait_ms.p99" "ms" (Sample.quantile queue_wait 0.99);
      Measure.m "farm.session_hit_ratio" "ratio"
        (float_of_int hits /. float_of_int (max 1 (hits + misses)));
      Measure.m "farm.run_ms.p50" "ms" (Sample.median run_ms);
      Measure.m "farm.emit_us" "us" (Trace.median_us tr "farm.emit");
      Measure.m "record.json_us" "us" (Trace.median_us tr "record.json");
      Measure.m "record.bytes_per_record" "B"
        (float_of_int f.bytes /. float_of_int (max 1 p.ops));
      Measure.m "farm.queue_depth_hwm" "count"
        (float_of_int (Ximd_obs.Farmobs.queue_depth_high_water obs));
      Measure.m "farm.domain_busy_ratio" "ratio"
        (busy /. (float_of_int t.domains *. p.elapsed_s)) ]
    @ List.map outcome Catalog.farm_classes
    @ Measure.counts_metrics c
  in
  (p, layer, tr)
