(* Seeded input generation for the four workloads.

   Everything a workload feeds the program under test is derived here
   from the command-line seed, and nothing else: the same seed gives
   byte-identical inputs (see [fingerprint] and the benchmark's tests).
   Sizes are fixed per workload; the seed varies contents, so the
   per-op cost of a workload stays comparable from seed to seed. *)

module W = Ximd_workloads
module Core = Ximd_core

let rng ~seed ~tag = Random.State.make [| seed; Hashtbl.hash tag |]
let pick st arr = arr.(Random.State.int st (Array.length arr))
let between st lo hi = lo + Random.State.int st (hi - lo + 1)

(* ------------------------------------------------------------------ *)
(* sim-long: scaled codings of the paper workloads                     *)

type sim_item = {
  label : string;          (* e.g. "minmax/xsim" *)
  variant : W.Workload.variant;
  model : Core.Engine.model;
}

(* Bitcount's data lives at D = 0x200 and its result at B = 0x400, so
   n >= 512 makes the two arrays overlap (the workload does not reject
   it, and its own check then fails).  The benchmark stays inside the
   documented layout: n <= 508 and a multiple of 4. *)
let bitcount_n = 124
let minmax_n = 2048
let classify_n = 1024
let livermore_n = 1024

type sim_inputs = {
  items : sim_item list;
  minmax_data : int array;
  sim_text : string;
}

let sim ~seed =
  let st = rng ~seed ~tag:"sim-long" in
  let text = Buffer.create 4096 in
  let note fmt = Printf.bprintf text fmt in
  let ints name a =
    note "%s:" name;
    Array.iter (fun x -> note " %d" x) a;
    note "\n"
  in
  let minmax_data =
    Array.init minmax_n (fun _ -> between st (-1_000_000) 1_000_000)
  in
  ints "minmax" minmax_data;
  let t1 = between st 10 30 and t2 = between st 40 60
  and t3 = between st 70 90 in
  ints "classify" [| t1; t2; t3 |];
  let bits =
    Array.init (bitcount_n + 1) (fun i ->
      if i = 0 then 0l else Random.State.bits32 st)
  in
  ints "bitcount" (Array.map Int32.to_int bits);
  let lengths = Array.init 8 (fun _ -> between st 32 64) in
  let phase2 = Array.init 4 (fun _ -> between st 150 250) in
  ints "pairsync" (Array.append lengths phase2);
  let lat () =
    { W.Iosync.first = between st 300 600;
      second = between st 300 600;
      third = between st 300 600 }
  in
  let l1 = lat () and l2 = lat () in
  ints "iosync"
    [| l1.first; l1.second; l1.third; l2.first; l2.second; l2.third |];
  let all_models name (w : W.Workload.t) =
    let x = { label = name ^ "/xsim"; variant = w.ximd; model = Per_fu } in
    match w.vliw with
    | None -> [ x ]
    | Some v ->
      [ x;
        { label = name ^ "/vsim"; variant = v; model = Global };
        { label = name ^ "/t500"; variant = v; model = Banked } ]
  in
  let pairsync masked =
    let w = W.Pairsync.make ~masked ~lengths ~phase2 () in
    { label =
        (if masked then "pairsync-masked/xsim" else "pairsync-all/xsim");
      variant = w.ximd;
      model = Per_fu }
  in
  let items =
    all_models "minmax" (W.Minmax.make ~data:minmax_data ())
    @ all_models "classify"
        (W.Classify.make ~n:classify_n ~thresholds:(t1, t2, t3) ())
    @ all_models "bitcount" (W.Bitcount.make ~data:bits ())
    @ [ pairsync true; pairsync false ]
    @ all_models "iosync"
        (W.Iosync.make ~p1_latencies:l1 ~p2_latencies:l2 ())
    @ all_models "ll1" (W.Livermore.loop1 ~n:livermore_n ())
    @ all_models "ll5" (W.Livermore.loop5 ~n:livermore_n ())
  in
  { items; minmax_data; sim_text = Buffer.contents text }

(* ------------------------------------------------------------------ *)
(* serve-campaign: a ximd-job/1 NDJSON stream                          *)

(* What the benchmark expects of each job's record, decided when the
   line is generated — never by asking the farm. *)
type expect =
  | Named_ok                       (* finishes ok; the workload's check passes *)
  | Class of string                (* exactly this outcome class *)
  | Finished_any                   (* any finished class (fault campaigns) *)
  | Program of {
      source : string;
      n_fus : int;
      max_cycles : int;
      regs : (int * int) list;
      dump : int list;
    }  (* an inline or file source, judged against lib/ref *)

(* [file] is a source file the line names, with the text set-up writes
   to it. *)
type job = { line : string; expect : expect; file : (string * string) option }

let json_str s = Ximd_farm.Json.to_string (Ximd_farm.Json.String s)

(* A countdown loop: r1 counts down from r0, r2 accumulates. *)
let countdown_source st =
  let step = between st 1 3 in
  ( 2,
    Printf.sprintf
      ".fus 2\n\
       init:\n\
      \  [0] mov r0, r1 | -> loop\n\
      \  [1] mov #%d, r2 | -> loop\n\
       loop:\n\
      \  [0] iadd r2, r1, r2 | -> test\n\
      \  [1] isub r1, #%d, r1 | -> test\n\
       test:\n\
      \  [0] gt r1, #0 | -> branch\n\
       branch:\n\
      \  [0] nop | if cc0 loop : done\n\
       done:\n\
      \  [0] nop | halt\n\
      \  [1] nop | halt\n"
      (between st 0 9) step,
    [ 1; 2 ] )

(* Straight-line parallel arithmetic on every FU, then halt. *)
let arith_source st =
  let n = between st 1 4 in
  let ops = [| "iadd"; "isub"; "imult"; "and"; "or"; "xor" |] in
  let rows = between st 2 5 in
  let b = Buffer.create 256 in
  Printf.bprintf b ".fus %d\n" n;
  for r = 0 to rows - 1 do
    Printf.bprintf b "r%d:\n" r;
    for fu = 0 to n - 1 do
      let dst = 10 + fu in
      Printf.bprintf b "  [%d] %s r%d, #%d, r%d | -> r%d\n" fu (pick st ops)
        dst (between st 1 99) dst (r + 1)
    done
  done;
  Printf.bprintf b "r%d:\n" rows;
  for fu = 0 to n - 1 do
    Printf.bprintf b "  [%d] nop | halt\n" fu
  done;
  (n, Buffer.contents b, List.init n (fun fu -> 10 + fu))

(* Two FUs write one register in the same row: a recorded hazard. *)
let hazard_source st =
  ( 2,
    Printf.sprintf
      ".fus 2\n\
       a:\n\
      \  [0] mov #%d, r5 | -> b\n\
      \  [1] mov #%d, r5 | -> b\n\
       b:\n\
      \  [0] nop | halt\n\
      \  [1] nop | halt\n"
      (between st 1 50) (between st 51 99),
    [ 5 ] )

(* Every FU waits for its neighbour's sync signal, which never rises. *)
let wedge_source st =
  let n = pick st [| 2; 4 |] in
  let b = Buffer.create 128 in
  Printf.bprintf b ".fus %d\nspin:\n" n;
  for fu = 0 to n - 1 do
    Printf.bprintf b "  [%d] nop | if ss%d fin : spin\n" fu ((fu + 1) mod n)
  done;
  Buffer.add_string b "fin:\n";
  for fu = 0 to n - 1 do
    Printf.bprintf b "  [%d] nop | halt\n" fu
  done;
  (n, Buffer.contents b, [])

let regs_json regs =
  "{"
  ^ String.concat ","
      (List.map (fun (r, v) -> Printf.sprintf "\"r%d\":%d" r v) regs)
  ^ "}"

let dump_json dump =
  "[" ^ String.concat "," (List.map (Printf.sprintf "\"r%d\"") dump) ^ "]"

(* Where set-up writes the sources that file jobs name, relative to the
   working directory (the farm opens them from there). *)
let serve_dir ~seed = Printf.sprintf ".xbench/serve-seed%d" seed

(* One block of 64 jobs, shuffled; contents are seeded.  The classes and
   their counts are those of examples/jobs/campaign.jsonl (52 lines)
   scaled to 64 by largest remainder:

     class                                  campaign.jsonl  block
     named workload under xsim                    20          25
     named workload under vsim                     4           5
     named workload under t500                     2           2
     cycle budget below the run length             6           7
     cycle budget above it                         1           1
     max_cycles below the run length               3           4
     inline source                                 2           3
     file (program, deadlock, missing file)        3           4
     fault campaign                                4           5
     malformed line or rejected spec               6           7
     deadline_ms 0                                 1           1

   Inline sources and t500 runs tie for the last place; inline sources
   take it, being the class lib/ref judges.  [suite] lists each suite
   workload with whether it has a VLIW coding and whether its XIMD
   coding may run under t500. *)
let serve_block st ~dir ~block ~suite =
  let suite_names = Array.of_list (List.map (fun (n, _, _) -> n) suite) in
  let names keep =
    Array.of_list
      (List.filter_map (fun (n, v, b) -> if keep v b then Some n else None) suite)
  in
  let vliw = names (fun v _ -> v) and banked = names (fun _ b -> b) in
  let jobs = ref [] in
  let add ?file line expect = jobs := { line; expect; file } :: !jobs in
  let k = ref 0 in
  let next () = incr k; Printf.sprintf "b%d-%d" block !k in
  (* the j-th of [count] picks of this block from [arr], in turn, so
     every round runs the same mix of names on every seed *)
  let cycle arr ~count j = arr.(((block * count) + j) mod Array.length arr) in
  let named ?(dump = false) name model =
    add
      (Printf.sprintf "{\"workload\":%s,\"id\":%s,\"model\":%s,\"seed\":%d%s}"
         (json_str name) (json_str (next ())) (json_str model)
         (Random.State.int st 1000)
         (if dump then ",\"dump_regs\":[\"r3\"]" else ""))
      Named_ok
  in
  (* as in the example, 8 of 20 xsim runs dump a register *)
  for j = 0 to 24 do
    named ~dump:(j mod 5 < 2) (cycle suite_names ~count:25 j) "xsim"
  done;
  for j = 0 to 4 do
    named (cycle vliw ~count:5 j) "vsim"
  done;
  for j = 0 to 1 do
    named (cycle banked ~count:2 j) "t500"
  done;
  for _ = 1 to 7 do
    (* budgets below every suite workload's run length (tproc, the
       shortest, halts after 6 cycles) *)
    add
      (Printf.sprintf "{\"workload\":%s,\"id\":%s,\"budget\":%d}"
         (json_str (pick st suite_names)) (json_str (next ()))
         (between st 1 5))
      (Class "budget_exceeded")
  done;
  add
    (Printf.sprintf "{\"workload\":%s,\"id\":%s,\"budget\":1000000}"
       (json_str (cycle suite_names ~count:1 0)) (json_str (next ())))
    Named_ok;
  for _ = 1 to 4 do
    add
      (Printf.sprintf "{\"workload\":%s,\"id\":%s,\"max_cycles\":%d}"
         (json_str (pick st suite_names)) (json_str (next ()))
         (between st 1 5))
      (Class "fuel_exhausted")
  done;
  (* generated programs: kind 0-2 halt (a loop, parallel arithmetic, a
     recorded hazard), kind 3 deadlocks *)
  let program kind =
    let n_fus, source, dump =
      match kind with
      | 0 -> countdown_source st
      | 1 -> arith_source st
      | 2 -> hazard_source st
      | _ -> wedge_source st
    in
    let regs = if kind = 0 then [ (0, between st 5 40) ] else [] in
    let max_cycles = 400 in
    ( Printf.sprintf ",\"max_cycles\":%d,\"regs\":%s,\"dump_regs\":%s}"
        max_cycles (regs_json regs) (dump_json dump),
      source,
      Program { source; n_fus; max_cycles; regs; dump } )
  in
  for j = 0 to 2 do
    let rest, source, expect = program (((block * 3) + j) mod 4) in
    add
      (Printf.sprintf "{\"source\":%s,\"id\":%s%s" (json_str source)
         (json_str (next ())) rest)
      expect
  done;
  (* file jobs: a halting program, a deadlocking one and a missing file,
     and a fourth of the three in turn *)
  List.iter
    (fun kind ->
      let id = next () in
      let path = Filename.concat dir (id ^ ".xasm") in
      match kind with
      | 2 ->
        add
          (Printf.sprintf "{\"file\":%s,\"id\":%s}"
             (json_str (Filename.concat dir (id ^ "-missing.xasm")))
             (json_str id))
          (Class "rejected")
      | _ ->
        let rest, source, expect =
          program (if kind = 1 then 3 else block mod 3)
        in
        add ~file:(path, source)
          (Printf.sprintf "{\"file\":%s,\"id\":%s%s" (json_str path)
             (json_str id) rest)
          expect)
    [ 0; 1; 2; block mod 3 ];
  (* fault campaigns: one of each kind, and a fifth in turn *)
  let faults =
    [| (fun () -> Printf.sprintf "ss@%d:1" (between st 1 8));
       (fun () -> Printf.sprintf "halt@%d:0" (between st 1 8));
       (fun () -> Printf.sprintf "drop@%d:2" (between st 1 8));
       (fun () -> Printf.sprintf "rand:%d:4:50" (between st 1 99)) |]
  in
  List.iter
    (fun kind ->
      add
        (Printf.sprintf
           "{\"workload\":\"minmax\",\"id\":%s,\"fault\":%s,\"seed\":%d,\"max_cycles\":200}"
           (json_str (next ())) (json_str (faults.(kind) ()))
           (Random.State.int st 1000))
        Finished_any)
    [ 0; 1; 2; 3; block mod 4 ];
  (* the example's six rejections, and a seventh in turn *)
  let malformed =
    [| (fun () -> "{\"this line is not JSON");
       (fun () ->
         Printf.sprintf "{\"workload\":\"minmax\",\"id\":%s,\"fuell\":3}"
           (json_str (next ())));
       (fun () ->
         Printf.sprintf "{\"workload\":\"nope%d\",\"id\":%s}"
           (Random.State.int st 100) (json_str (next ())));
       (fun () ->
         Printf.sprintf "{\"workload\":\"minmax\",\"id\":%s,\"model\":\"qsim\"}"
           (json_str (next ())));
       (fun () ->
         Printf.sprintf
           "{\"workload\":\"minmax\",\"file\":\"x.xasm\",\"id\":%s}"
           (json_str (next ())));
       (fun () ->
         Printf.sprintf "{\"workload\":\"minmax\",\"id\":%s,\"budget\":0}"
           (json_str (next ()))) |]
  in
  List.iter
    (fun kind -> add (malformed.(kind) ()) (Class "rejected"))
    [ 0; 1; 2; 3; 4; 5; block mod 6 ];
  add
    (Printf.sprintf
       "{\"workload\":%s,\"id\":%s,\"deadline_ms\":0,\"retries\":0}"
       (json_str (pick st suite_names)) (json_str (next ())))
    (Class "deadline_exceeded");
  let arr = Array.of_list (List.rev !jobs) in
  assert (Array.length arr = 64);
  for i = Array.length arr - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list arr

let serve_lines = 4096

(* The suite's workloads, with whether each has a VLIW coding and
   whether its XIMD coding obeys the t500 bank rule — decided by lib/ref,
   which restates that rule independently of the engine. *)
let suite_table () =
  List.map
    (fun (w : W.Workload.t) ->
      let p = w.ximd.program in
      let n = Core.Program.n_fus p in
      ( w.name,
        w.vliw <> None,
        n >= 2 && n mod 2 = 0 && Ximd_ref.Interp.bank_consistent p ))
    (W.Suite.all ())

let serve ~seed =
  let st = rng ~seed ~tag:"serve-campaign" in
  let suite = suite_table () in
  let dir = serve_dir ~seed in
  Array.of_list
    (List.concat
       (List.init (serve_lines / 64) (fun block ->
          serve_block st ~dir ~block ~suite)))

(* ------------------------------------------------------------------ *)
(* xcc-compile: generated .xc functions and compiler-path specs        *)

type xc_unit = {
  xc_source : string;
  xc_args : int list;            (* one per parameter *)
  xc_mem : (int * int) list;     (* memory preloaded on both sides *)
}

let xc_in_base = 600
let xc_out_base = 800

(* Expressions over the function's variables, as full trees of the
   given depth (so every function does a similar amount of work); no
   division by a variable, so no run can fault. *)
let rec xc_expr st vars depth =
  if depth = 0 then
    if Random.State.bool st then pick st vars
    else string_of_int (between st 0 15)
  else
    let sub () = xc_expr st vars (depth - 1) in
    match Random.State.int st 10 with
    | 0 -> Printf.sprintf "(%s << %d)" (sub ()) (between st 0 4)
    | 1 -> Printf.sprintf "(%s >> %d)" (sub ()) (between st 0 4)
    | 2 -> Printf.sprintf "(%s / %d)" (sub ()) (between st 1 7)
    | 3 -> Printf.sprintf "(%s %% %d)" (sub ()) (between st 2 9)
    | 4 -> Printf.sprintf "mem[%d + (%s & 15)]" xc_in_base (sub ())
    | 5 -> Printf.sprintf "(-%s)" (sub ())
    | _ ->
      Printf.sprintf "(%s %s %s)" (sub ())
        (pick st [| "+"; "-"; "*"; "&"; "|"; "^" |])
        (sub ())

let xc_cond st vars =
  Printf.sprintf "%s %s %s" (xc_expr st vars 1)
    (pick st [| "<"; "<="; ">"; ">="; "=="; "!=" |])
    (xc_expr st vars 1)

(* Every function has the same shape — an outer loop of 6 trips around
   an if/else with a nested if, a store and an assignment (in seeded
   order), an inner loop of 3 trips, then two more statements — and
   seeded expressions, conditions and constants. *)
let xc_function st k =
  let b = Buffer.create 1024 in
  let vars = [| "a"; "b"; "c"; "v0"; "v1"; "v2"; "s" |] in
  let assigned = [| "v0"; "v1"; "v2"; "s" |] in
  let assign indent vars =
    Printf.bprintf b "%s%s = %s;\n" indent (pick st assigned)
      (xc_expr st vars 2)
  in
  let branch indent vars =
    Printf.bprintf b "%sif (%s) {\n" indent (xc_cond st vars);
    assign (indent ^ "  ") vars;
    Printf.bprintf b "%s  if (%s) {\n" indent (xc_cond st vars);
    assign (indent ^ "    ") vars;
    Printf.bprintf b "%s  }\n" indent;
    Printf.bprintf b "%s} else {\n" indent;
    assign (indent ^ "  ") vars;
    Printf.bprintf b "%s}\n" indent
  in
  let store indent vars =
    Printf.bprintf b "%smem[%d + (%s & 31)] = %s;\n" indent xc_out_base
      (xc_expr st vars 1) (xc_expr st vars 2)
  in
  let stmts = [| branch; store; assign |] in
  for i = 2 downto 1 do
    let j = Random.State.int st (i + 1) in
    let x = stmts.(i) in
    stmts.(i) <- stmts.(j);
    stmts.(j) <- x
  done;
  let outer = Array.append vars [| "i" |] in
  let inner = Array.append outer [| "j" |] in
  Printf.bprintf b "func g%d(a, b, c) {\n" k;
  Printf.bprintf b "  v0 = %d; v1 = a; v2 = b; s = 0;\n" (between st 0 9);
  Printf.bprintf b "  i = 0;\n  while (i < 6) {\n";
  Array.iter (fun stmt -> stmt "    " outer) stmts;
  Printf.bprintf b "    j = 0;\n    while (j < 3) {\n";
  assign "      " inner;
  Printf.bprintf b "      j = j + 1;\n    }\n";
  Printf.bprintf b "    s = s + mem[%d + i];\n" xc_in_base;
  Printf.bprintf b "    i = i + 1;\n  }\n";
  branch "  " vars;
  assign "  " vars;
  Printf.bprintf b "  return v0, v1, v2, s;\n}\n";
  Buffer.contents b

(* One software-pipelining spec: a Kernels.loop_bodies entry, a width,
   a trip count (fitted to the compiled loop's contract at set-up) and
   seeded live-in and memory values. *)
type kernel_spec = {
  k_index : int;          (* into Kernels.loop_bodies *)
  k_width : int;
  k_passes : int;         (* kernel passes, K in T = S - 1 + u * K *)
  k_seed : int;           (* live-in / memory contents *)
}

type xcc_inputs = {
  units : xc_unit array;
  kernels : kernel_spec array;
  pack_args : int array array;
      (* seeded arguments for the Figure 13 threads, one set per run *)
}

let xcc_units = 256
let xcc_packs = 4

let xcc ~seed =
  let st = rng ~seed ~tag:"xcc-compile" in
  let units =
    Array.init xcc_units (fun k ->
      let xc_source = xc_function st k in
      { xc_source;
        xc_args = List.init 3 (fun _ -> between st (-50) 50);
        xc_mem = List.init 48 (fun i -> (xc_in_base + i, between st (-99) 99))
      })
  in
  let n_bodies = List.length Ximd_report.Kernels.loop_bodies in
  let kernels =
    Array.init (4 * n_bodies) (fun i ->
      { k_index = i mod n_bodies;
        k_width = (if i / n_bodies mod 2 = 0 then 4 else 8);
        k_passes = between st 8 16;
        k_seed = Random.State.bits st })
  in
  let pack_args =
    Array.init xcc_packs (fun _ -> Array.init 32 (fun _ -> between st 1 200))
  in
  { units; kernels; pack_args }

let xcc_text x =
  let b = Buffer.create 65536 in
  Array.iter
    (fun u ->
      Buffer.add_string b u.xc_source;
      Printf.bprintf b "args %s\nmem %s\n"
        (String.concat " " (List.map string_of_int u.xc_args))
        (String.concat " "
           (List.map (fun (a, v) -> Printf.sprintf "%d=%d" a v) u.xc_mem)))
    x.units;
  Array.iter
    (fun k ->
      Printf.bprintf b "kernel %d w%d passes %d seed %d\n" k.k_index k.k_width
        k.k_passes k.k_seed)
    x.kernels;
  Array.iter
    (fun args ->
      Printf.bprintf b "pack %s\n"
        (String.concat " " (Array.to_list (Array.map string_of_int args))))
    x.pack_args;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* fuzz-diff: the seeded Proggen case stream                           *)

let fuzz_cases = 2048

let fuzz_case ~seed ~index =
  Ximd_gen.Proggen.generate ~seed ~index Ximd_gen.Proggen.case

(* What lib/ref observes of a case under each model it runs under:
   (cycles, hazards). *)
let reference_runs (c : Ximd_gen.Proggen.case) =
  List.map
    (fun m ->
      let o = Ximd_gen.Diff.observe_reference m c.program c.config in
      (Core.Run.cycles o.outcome, List.length o.hazards))
    (Ximd_gen.Diff.applicable_models c.program)

(* What makes a case cheap or dear to check, from its configuration and
   simulated behaviour alone (never from how fast the code under test
   runs it): the memory the engine-side observation sweeps, how many
   models it runs under, whether it runs to its fuel, its width, and
   whether it records a hazard on most cycles. *)
let stratum (c : Ximd_gen.Proggen.case) runs =
  let mem =
    match c.config.mem_organisation with
    | Ximd_machine.Memory.Distributed _ -> 2
    | Ximd_machine.Memory.Shared -> if c.config.mem_words > 4096 then 1 else 0
  in
  let fuel =
    List.exists (fun (cycles, _) -> cycles >= c.config.max_cycles) runs
  in
  let wide = Core.Program.n_fus c.program > 4 in
  let hazardous = List.exists (fun (cycles, h) -> 2 * h > cycles) runs in
  (24 * mem)
  + (8 * (List.length runs - 1))
  + (4 * Bool.to_int fuel)
  + (2 * Bool.to_int wide)
  + Bool.to_int hazardous

let n_strata = 72

(* Quotas per stratum, in proportion to the generator's own mix in a
   fixed reference stream (seed 0), so every seed checks the same mix. *)
let fuzz_quotas =
  lazy
    (let sample = 2048 in
     let counts = Array.make n_strata 0 in
     for index = 0 to sample - 1 do
       let c = fuzz_case ~seed:0 ~index in
       let s = stratum c (reference_runs c) in
       counts.(s) <- counts.(s) + 1
     done;
     let quotas = Array.map (fun c -> c * fuzz_cases / sample) counts in
     (* hand the rounding remainder to the largest stratum *)
     let short = fuzz_cases - Array.fold_left ( + ) 0 quotas in
     let largest = ref 0 in
     Array.iteri (fun i c -> if c > counts.(!largest) then largest := i) counts;
     quotas.(!largest) <- quotas.(!largest) + short;
     quotas)

type fuzz_input = {
  index : int;               (* in the seed's case stream *)
  case : Ximd_gen.Proggen.case;
  cycles : int;              (* summed over its models *)
}

(* How far into the seed's case stream set-up looks. *)
let fuzz_stream = fuzz_cases + (fuzz_cases / 4)

(* The seed's case stream, stratified: of its first [fuzz_stream] cases,
   each is taken, in index order, while its stratum's quota lasts; if
   the seed produced some stratum too rarely, the first cases not yet
   taken fill the round.  Every seed classifies the same number of
   cases, so set-up does the same work on every seed. *)
let fuzz ~seed =
  let quota = Array.copy (Lazy.force fuzz_quotas) in
  let stream =
    Array.init fuzz_stream (fun index ->
      let case = fuzz_case ~seed ~index in
      let runs = reference_runs case in
      { index; case; cycles = List.fold_left (fun acc (c, _) -> acc + c) 0 runs },
      stratum case runs)
  in
  let taken = Array.make fuzz_stream false and left = ref fuzz_cases in
  let take i =
    taken.(i) <- true;
    decr left
  in
  Array.iteri
    (fun i (_, s) ->
      if quota.(s) > 0 && !left > 0 then begin
        quota.(s) <- quota.(s) - 1;
        take i
      end)
    stream;
  Array.iteri (fun i _ -> if (not taken.(i)) && !left > 0 then take i) stream;
  Array.of_list
    (List.filteri (fun i _ -> taken.(i)) (List.map fst (Array.to_list stream)))

let case_text (c : Ximd_gen.Proggen.case) =
  Format.asprintf "%a\n%s" Core.Config.pp c.config
    (Ximd_asm.Source.to_source c.program)

(* ------------------------------------------------------------------ *)

(* The exact bytes a workload's inputs consist of. *)
let fingerprint ~workload ~seed =
  match workload with
  | "sim-long" -> (sim ~seed).sim_text
  | "serve-campaign" ->
    String.concat "\n"
      (Array.to_list
         (Array.map
            (fun j ->
              match j.file with
              | None -> j.line
              | Some (path, text) -> Printf.sprintf "%s\n%s:\n%s" j.line path text)
            (serve ~seed)))
  | "xcc-compile" -> xcc_text (xcc ~seed)
  | "fuzz-diff" ->
    String.concat "\n"
      (Array.to_list
         (Array.map
            (fun f -> Printf.sprintf "case %d\n%s" f.index (case_text f.case))
            (fuzz ~seed)))
  | w -> invalid_arg ("unknown workload " ^ w)
