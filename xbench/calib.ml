(* Host-speed calibration.

   The benchmark's hosts are shared: the same code runs up to 1.8x
   slower for seconds at a time while neighbours are busy, and no number
   of repeats averages that away.  So the benchmark times a fixed
   integer loop (no memory traffic, no allocation) between windows of
   work, and scales every timing to a host on which that loop takes
   [reference_ns].  A change to the program under test cannot change the
   loop, so the scaled figures move with the program exactly as the raw
   ones do, minus the neighbours.  Of the loops tried on a 2-core host
   (integer, branchy, bytecode-style dispatch, cache-resident and
   DRAM-sized random walks, allocation), the integer loop tracked the
   workloads' slow spells most closely.  Raw figures are reported beside
   the scaled ones. *)

let reference_ns = 300_000.

let loop () =
  let x = ref 0 in
  for i = 1 to 300_000 do
    x := !x lxor (i * 7)
  done;
  !x

let sink = Atomic.make 0

let sample_ns () =
  let t0 = Clock.now_ns () in
  Atomic.set sink (Atomic.get sink lxor loop ());
  float_of_int (Clock.now_ns () - t0)

(* Loops timed per slowness sample. *)
let loops = 3

(* Host slowness now, relative to the reference host: the median of
   [loops] loops' durations over [reference_ns] (above 1 when slower).
   With [domains] above 1 the loop runs on that many domains at once and the
   slowest domain's figure is taken: work spread over several domains
   waits for the slowest core at every stop-the-world collection.
   Durations divided by it are reference-host durations. *)
let slowness ?(domains = 1) () =
  let one () =
    let s = Sample.create ~capacity:loops () in
    for _ = 1 to loops do
      Sample.add s (sample_ns ())
    done;
    Sample.median s
  in
  let others = List.init (domains - 1) (fun _ -> Domain.spawn one) in
  let mine = one () in
  List.fold_left (fun acc d -> Float.max acc (Domain.join d)) mine others
  /. reference_ns
