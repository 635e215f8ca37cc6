(* The one command: set a workload up from its seed, measure it, check
   every op against its oracle, and print the result. *)

type workload =
  | W : {
      name : string;
      setup : plant:bool -> seed:int -> domains:int -> 'a;
      dispose : 'a -> unit;
      timed : 'a -> seconds:float -> Measure.t;
      traced : 'a -> seconds:float -> Measure.t * Measure.metric list * Trace.t;
    }
      -> workload

let sim_long =
  W { name = "sim-long";
      setup = (fun ~plant ~seed ~domains:_ -> Wl_sim.setup ~plant ~seed ());
      dispose = ignore;
      timed = Wl_sim.timed;
      traced = Wl_sim.traced }

let fuzz_diff =
  W { name = "fuzz-diff";
      setup = (fun ~plant ~seed ~domains:_ -> Wl_fuzz.setup ~plant ~seed ());
      dispose = ignore;
      timed = Wl_fuzz.timed;
      traced = Wl_fuzz.traced }

let serve_campaign =
  W { name = "serve-campaign";
      setup =
        (fun ~plant ~seed ~domains -> Wl_serve.setup ~plant ~seed ~domains ());
      dispose = Wl_serve.dispose;
      timed = Wl_serve.timed;
      traced = Wl_serve.traced }

let xcc_compile =
  W { name = "xcc-compile";
      setup = (fun ~plant ~seed ~domains:_ -> Wl_xcc.setup ~plant ~seed ());
      dispose = ignore;
      timed = Wl_xcc.timed;
      traced = Wl_xcc.traced }

let all = [ sim_long; serve_campaign; xcc_compile; fuzz_diff ]
let names = List.map (fun (W w) -> w.name) all
let find name = List.find_opt (fun (W w) -> w.name = name) all

(* Set-up is repeated and its median reported, so one slow repetition
   (a page-fault burst, a neighbour's load) does not move setup_s: at
   least [min_setups] times, then again while the repetitions so far
   took less than [setup_budget_s], up to [max_setups] times. *)
let min_setups = 5
let max_setups = 25
let setup_budget_s = 1.0

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : Measure.metric list;
  phases : Measure.t list;  (* the untraced phase first *)
  failures : Measure.failure list;
  detail : string;  (* one JSON line: host stamp, spreads, failures *)
}

let json_float x = Printf.sprintf "%.6g" x

let spread name s =
  let q = Sample.quantile s in
  Printf.sprintf "%S:{\"median\":%s,\"q1\":%s,\"q3\":%s,\"n\":%d}" name
    (json_float (q 0.5)) (json_float (q 0.25)) (json_float (q 0.75))
    (Sample.length s)

let failure_json (f : Measure.failure) =
  Ximd_farm.Json.(
    to_string
      (Obj
         [ ("op", Int f.op); ("input", String f.label);
           ("reason", String f.reason) ]))

let run ?(max_setups = max_setups) (W w) ~seed ~seconds ~trace ~plant ~domains
    ~trace_dir =
  let setups = Sample.create () and raw_setups = Sample.create () in
  let rec set_up k spent =
    let t0 = Clock.now_ns () in
    let x = w.setup ~plant ~seed ~domains in
    let s = Clock.seconds_between t0 (Clock.now_ns ()) in
    Sample.add raw_setups s;
    Sample.add setups (s /. Calib.slowness ());
    let spent = spent +. s in
    if k >= max_setups || (k >= min_setups && spent >= setup_budget_s) then x
    else begin
      w.dispose x;
      set_up (k + 1) spent
    end
  in
  let x = set_up 1 0.0 in
  let setup_s = Sample.median setups in
  let phases, metrics, extra =
    if not trace then begin
      let p = w.timed x ~seconds in
      ( [ p ],
        Measure.end_to_end ~setup_s p,
        [ spread "ops_per_s" p.window_ops_per_s;
          spread "ops_per_s.raw" p.raw_ops_per_s;
          spread "host_slowness" p.slowness ] )
    end
    else begin
      let plain = w.timed x ~seconds:(seconds /. 2.) in
      let traced, layer, tr = w.traced x ~seconds:(seconds /. 2.) in
      let overhead = Measure.ops_per_s traced /. Measure.ops_per_s plain in
      (* layer timings are scaled to the reference host like the
         end-to-end ones, by the traced phase's median slowness *)
      let slow = Sample.median traced.slowness in
      let scaled (m : Measure.metric) =
        match m.unit_ with
        | "s" | "ms" | "us" | "ns" -> { m with value = m.value /. slow }
        | _ -> m
      in
      let layer =
        List.map scaled layer
        @ [ Measure.m "bench.trace_overhead" "ratio" overhead ]
      in
      let value name = List.find_opt (fun (m : Measure.metric) -> m.name = name) layer in
      let metrics =
        List.map
          (fun (name, unit_) ->
            match value name with
            | Some m -> m
            | None -> Measure.m name unit_ 0.0)
          Catalog.per_layer
      in
      let missing =
        List.filter_map
          (fun (name, _) -> if value name = None then Some name else None)
          Catalog.per_layer
      in
      (try
         if not (Sys.file_exists trace_dir) then Sys.mkdir trace_dir 0o755;
         Trace.write_chrome tr
           (Filename.concat trace_dir
              (Printf.sprintf "trace-%s-seed%d.json" w.name seed))
       with Sys_error msg -> prerr_endline ("xbench: trace not written: " ^ msg));
      ( [ plain; traced ],
        metrics,
        [ spread "ops_per_s.untraced" plain.window_ops_per_s;
          spread "ops_per_s.traced" traced.window_ops_per_s;
          Printf.sprintf "\"spans\":%d,\"spans_dropped\":%d" (Trace.spans tr)
            (Trace.dropped tr);
          Printf.sprintf "\"not_exercised\":[%s]"
            (String.concat "," (List.map (Printf.sprintf "%S") missing)) ] )
    end
  in
  w.dispose x;
  let attempted = List.fold_left (fun a (p : Measure.t) -> a + p.ops) 0 phases in
  let failed = List.fold_left (fun a (p : Measure.t) -> a + p.failed) 0 phases in
  let failures =
    List.concat_map (fun (p : Measure.t) -> List.rev p.failures) phases
  in
  let detail =
    Printf.sprintf
      "{\"schema\":\"xbench-run/1\",\"workload\":%S,\"seed\":%d,\"trace\":%b,\"host\":%s,\"seconds\":%s,\"attempted\":%d,\"failed\":%d,%s,%s,\"failures\":[%s]}"
      w.name seed trace (Host.json ()) (json_float seconds) attempted failed
      (spread "setup_s" setups ^ "," ^ spread "setup_s.raw" raw_setups)
      (String.concat "," extra)
      (String.concat "," (List.map failure_json failures))
  in
  { correct = failed = 0; attempted = max 1 attempted; failed; metrics;
    phases; failures; detail }
