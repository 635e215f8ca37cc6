(* One timed phase of a workload, and the metrics derived from it.

   An op is the workload's unit of work (a run, a job, a compiled unit,
   a checked case).  Ops walk the workload's input set in order, round
   after round; the phase stops at the first window boundary after its
   time is up and never before one whole round, so every phase measures
   whole windows and a complete pass of the inputs.

   Timings are scaled to the reference host (see {!Calib}): the host's
   slowness is sampled before the first window and after every window,
   and the mean of the samples on either side of a window divides that
   window's durations. *)

type failure = { op : int; label : string; reason : string }

type t = {
  op_ms : Sample.t;              (* per-op latency *)
  window_ops_per_s : Sample.t;   (* throughput of each window *)
  window_cycles_per_s : Sample.t;
  raw_ops_per_s : Sample.t;      (* the same, unscaled *)
  slowness : Sample.t;           (* host slowness per window *)
  mutable ops : int;
  mutable failed : int;
  mutable failures : failure list;  (* first [max_listed], newest first *)
  mutable cycles : int;          (* simulated cycles over every op *)
  mutable round_cycles : int;    (* over the first complete round *)
  mutable round_ops : int;       (* ops in a round *)
  mutable elapsed_s : float;
  mutable minor_words : float;   (* allocated by the ops of whole rounds *)
  mutable words_ops : int;       (* ... and how many ops those were *)
}

let max_listed = 20

let create () =
  { op_ms = Sample.create ~capacity:4096 ();
    window_ops_per_s = Sample.create ();
    window_cycles_per_s = Sample.create ();
    raw_ops_per_s = Sample.create ();
    slowness = Sample.create ();
    ops = 0;
    failed = 0;
    failures = [];
    cycles = 0;
    round_cycles = 0;
    round_ops = 0;
    elapsed_s = 0.0;
    minor_words = 0.0;
    words_ops = 0 }

let fail t ~op ~label reason =
  t.failed <- t.failed + 1;
  if t.failed <= max_listed then
    t.failures <- { op; label; reason } :: t.failures

(* Minor words allocated so far by this domain and by every domain that
   has already terminated (OCaml 5 folds a joined domain's counters into
   the global statistics). *)
let minor_words () = (Gc.quick_stat ()).Gc.minor_words

(* The median over chunks of the ops, in the order they ran, of each
   chunk's [q]-quantile.  A chunk is the fewest whole rounds ([round]
   ops each) holding at least 1000 ops, so every chunk runs the same
   inputs and has at least ten ops beyond its 99th percentile; ops past
   the last whole chunk are left out.  A host hiccup that slows one
   stretch of ops then moves one chunk, not the figure. *)
let chunked_quantile s ~round q =
  let n = Sample.length s in
  let chunk = round * ((999 + round) / round) in
  let chunks = n / chunk in
  if chunks = 0 then Sample.quantile s q
  else begin
    let per = Sample.create () in
    for c = 0 to chunks - 1 do
      let part = Array.sub s.Sample.data (c * chunk) chunk in
      Array.sort Float.compare part;
      Sample.add per (Sample.quantile_sorted part q)
    done;
    Sample.median per
  end

(* Run a sequential phase.  [op i] runs input [i] and returns its
   simulated cycles; only [op] is timed.  [check i] judges input [i]'s
   latest run against its oracle, outside the timed interval.  A window
   is [window] consecutive ops. *)
let sequential ~seconds ~n ~window ~label ~op ~check =
  let t = create () in
  let deadline = Clock.now_ns () + int_of_float (seconds *. 1e9) in
  let w_busy = ref 0 and w_cycles = ref 0 and round_words = ref 0.0 in
  let slow_before = ref (Calib.slowness ()) in
  let w_ms = Sample.create ~capacity:window () in
  let busy = ref 0 in
  let k = ref 0 in
  let continue () =
    !k < n || Clock.now_ns () < deadline || !k mod window <> 0
  in
  while continue () do
    let i = !k mod n in
    let w0 = Gc.minor_words () in
    let t0 = Clock.now_ns () in
    let cycles = op i in
    let t1 = Clock.now_ns () in
    round_words := !round_words +. (Gc.minor_words () -. w0);
    let dt = t1 - t0 in
    busy := !busy + dt;
    Sample.add w_ms (float_of_int dt *. 1e-6);
    t.ops <- t.ops + 1;
    t.cycles <- t.cycles + cycles;
    if !k < n then begin
      t.round_cycles <- t.round_cycles + cycles;
      t.round_ops <- t.round_ops + 1
    end;
    (match check i with
     | Ok () -> ()
     | Error reason -> fail t ~op:!k ~label:(label i) reason);
    w_busy := !w_busy + dt;
    w_cycles := !w_cycles + cycles;
    incr k;
    if !k mod n = 0 then begin
      t.minor_words <- t.minor_words +. !round_words;
      t.words_ops <- t.words_ops + n;
      round_words := 0.0
    end;
    if !k mod window = 0 then begin
      let slow_after = Calib.slowness () in
      let slow = (!slow_before +. slow_after) /. 2. in
      slow_before := slow_after;
      let raw_s = float_of_int !w_busy *. 1e-9 in
      let s = raw_s /. slow in
      let ops = float_of_int (Sample.length w_ms) in
      Sample.add t.slowness slow;
      Sample.add t.raw_ops_per_s (ops /. raw_s);
      Sample.add t.window_ops_per_s (ops /. s);
      Sample.add t.window_cycles_per_s (float_of_int !w_cycles /. s);
      for j = 0 to Sample.length w_ms - 1 do
        Sample.add t.op_ms (w_ms.Sample.data.(j) /. slow)
      done;
      Sample.clear w_ms;
      w_busy := 0;
      w_cycles := 0
    end
  done;
  t.elapsed_s <- float_of_int !busy *. 1e-9;
  t

let ops_per_s t = Sample.median t.window_ops_per_s

(* ------------------------------------------------------------------ *)
(* Result line                                                         *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

let top_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
  /. (1024. *. 1024.)

(* The end-to-end metrics of an untraced phase. *)
let end_to_end ~setup_s t =
  let p q = Sample.quantile t.op_ms q in
  let attempted = max 1 t.ops in
  [ m "setup_s" "s" setup_s;
    m "ops_per_s" "1/s" (ops_per_s t);
    m "op_ms.p50" "ms" (p 0.50);
    m "op_ms.p99" "ms" (chunked_quantile t.op_ms ~round:(max 1 t.round_ops) 0.99);
    m "sim_cycles_per_s" "1/s" (Sample.median t.window_cycles_per_s);
    m "sim_cycles_per_op" "cycles"
      (float_of_int t.round_cycles /. float_of_int (max 1 t.round_ops));
    m "minor_words_per_op" "words"
      (t.minor_words /. float_of_int (max 1 t.words_ops));
    m "top_heap_mb" "MB" (top_heap_mb ());
    m "ok_rate" "ratio"
      (1.0 -. (float_of_int t.failed /. float_of_int attempted)) ]

let metric_json x =
  Printf.sprintf "%S:{\"value\":%s,\"unit\":%S}" x.name
    (if Float.is_integer x.value && Float.abs x.value < 1e15 then
       Printf.sprintf "%.1f" x.value
     else Printf.sprintf "%.17g" x.value)
    x.unit_

let result_line ~correct ~attempted ~failed metrics =
  Printf.sprintf
    "{\"correct\":%b,\"attempted\":%d,\"failed\":%d,\"metrics\":{%s}}" correct
    attempted failed
    (String.concat "," (List.map metric_json metrics))

(* ------------------------------------------------------------------ *)
(* Simulated counts: a pure function of the inputs and the simulated
   semantics, summed over one pass of the input set.                   *)

module Account = Ximd_obs.Account

type counts = {
  mutable data_ops : int;
  mutable spin_slots : int;
  mutable commit_ops : int;
  mutable max_streams : int;
  slots : int array;  (* per Account class, in Account.all order *)
}

let counts () =
  { data_ops = 0; spin_slots = 0; commit_ops = 0; max_streams = 0;
    slots = Array.make (List.length Account.all) 0 }

let add_stats c (s : Ximd_core.Stats.t) =
  c.data_ops <- c.data_ops + s.data_ops;
  c.spin_slots <- c.spin_slots + s.spin_slots;
  c.commit_ops <- c.commit_ops + s.commit_ops;
  c.max_streams <- c.max_streams + s.max_streams

let add_account c acct =
  List.iteri
    (fun i cls -> c.slots.(i) <- c.slots.(i) + Account.total acct cls)
    Account.all

(* An account-only sink, as the farm attaches to its sessions. *)
let account_sink ~n_fus ~code_len =
  Ximd_obs.Sink.create ~ring_capacity:1 ~trace:false ~profile:false
    ~account:true ~n_fus ~code_len ()

let counts_metrics c =
  [ m "stats.data_ops" "count" (float_of_int c.data_ops);
    m "stats.spin_slots" "count" (float_of_int c.spin_slots);
    m "stats.commit_ops" "count" (float_of_int c.commit_ops);
    m "stats.max_streams" "count" (float_of_int c.max_streams) ]
  @ List.mapi
      (fun i cls ->
        m ("account." ^ Account.name cls ^ "_slots") "count"
          (float_of_int c.slots.(i)))
      Account.all
