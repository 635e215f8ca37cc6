(* Campaign-level telemetry: one {!Span} per job, aggregated under a
   single mutex.  Hooks arrive concurrently from the pool's worker
   domains and from the producer; everything merged here is either
   timing-flavoured (exported only into the trace / heartbeat) or a
   commutative-associative fold (sums, maxes, per-class counts), so the
   logical rollup is a pure function of the campaign spec — identical
   bytes at any domain count, on any machine.

   The clock is injected at creation (lib/obs stays dependency-free and
   tests can drive a fake clock); callers pass Unix.gettimeofday. *)

type pending = {
  p_seq : int;
  mutable p_id : string;
  mutable p_domain : int;
  p_enqueue : float;
  mutable p_dequeue : float;   (* < 0 = not yet *)
  mutable p_session : float;
  mutable p_run_end : float;
  mutable p_cache_hit : bool option;
  mutable p_retries : int;
  mutable p_attempts : int;
  mutable p_result : Span.outcome option;
  mutable p_cycles : int;
  mutable p_n_fus : int;
  mutable p_markers : Span.marker list;  (* newest first *)
}

type domain_tally = {
  mutable d_jobs : int;
  mutable d_cycles : int;
  mutable d_busy : float;  (* dequeue -> run end, seconds *)
}

type t = {
  mutex : Mutex.t;
  clock : unit -> float;
  t0 : float;
  progress_every : int;
  progress : string -> unit;
  pending : (int, pending) Hashtbl.t;
  mutable spans_rev : Span.t list;
  mutable submitted : int;
  mutable completed : int;
  mutable queue_hwm : int;
  mutable queue_samples_rev : (float * int) list;
  (* logical aggregates *)
  outcomes : (string, int ref) Hashtbl.t;
  retry_hist : (int, int ref) Hashtbl.t;  (* attempts -> jobs *)
  mutable total_cycles : int;
  account_totals : int array;  (* indexed like Account.cls *)
  mutable account_slots : int;
  merged_metrics : Metrics.t;
  mutable metrics_jobs : int;
  (* fleet aggregates *)
  mutable cache_hits : int;
  mutable cache_misses : int;
  domains : (int, domain_tally) Hashtbl.t;
  mutable last_emit : float;
}

let create ?(progress_every = 0) ?(progress = fun _ -> ()) ~clock () =
  let t0 = clock () in
  { mutex = Mutex.create ();
    clock;
    t0;
    progress_every;
    progress;
    pending = Hashtbl.create 64;
    spans_rev = [];
    submitted = 0;
    completed = 0;
    queue_hwm = 0;
    queue_samples_rev = [];
    outcomes = Hashtbl.create 16;
    retry_hist = Hashtbl.create 8;
    total_cycles = 0;
    account_totals = Array.make (List.length Account.all) 0;
    account_slots = 0;
    merged_metrics = Metrics.create ();
    metrics_jobs = 0;
    cache_hits = 0;
    cache_misses = 0;
    domains = Hashtbl.create 8;
    last_emit = t0 }

let locked t f =
  Mutex.lock t.mutex;
  match f () with
  | v ->
    Mutex.unlock t.mutex;
    v
  | exception e ->
    Mutex.unlock t.mutex;
    raise e

let bump table key =
  match Hashtbl.find_opt table key with
  | Some r -> incr r
  | None -> Hashtbl.replace table key (ref 1)

(* ------------------------------------------------------------------ *)
(* Hooks *)

let on_enqueue t ~seq ~depth =
  let now = t.clock () in
  locked t (fun () ->
    t.submitted <- t.submitted + 1;
    if depth > t.queue_hwm then t.queue_hwm <- depth;
    t.queue_samples_rev <- (now, depth) :: t.queue_samples_rev;
    Hashtbl.replace t.pending seq
      { p_seq = seq;
        p_id = "";  (* "job-<seq>" synthesised at emit if never named *)
        p_domain = -1;
        p_enqueue = now;
        p_dequeue = -1.;
        p_session = -1.;
        p_run_end = -1.;
        p_cache_hit = None;
        p_retries = 0;
        p_attempts = 0;
        p_result = None;
        p_cycles = 0;
        p_n_fus = 0;
        p_markers = [] })

let on_dequeue t ~seq ~domain ~depth =
  let now = t.clock () in
  locked t (fun () ->
    t.queue_samples_rev <- (now, depth) :: t.queue_samples_rev;
    match Hashtbl.find_opt t.pending seq with
    | None -> ()
    | Some p ->
      p.p_domain <- domain;
      p.p_dequeue <- now)

let on_session_ready t ~seq ~cache_hit =
  let now = t.clock () in
  locked t (fun () ->
    if cache_hit then t.cache_hits <- t.cache_hits + 1
    else t.cache_misses <- t.cache_misses + 1;
    match Hashtbl.find_opt t.pending seq with
    | None -> ()
    | Some p ->
      p.p_session <- now;
      p.p_cache_hit <- Some cache_hit)

let on_retry t ~seq ~attempt =
  let now = t.clock () in
  locked t (fun () ->
    match Hashtbl.find_opt t.pending seq with
    | None -> ()
    | Some p ->
      p.p_retries <- p.p_retries + 1;
      p.p_markers <-
        { Span.at = now; note = Printf.sprintf "retry %d" attempt }
        :: p.p_markers)

let on_complete t ~seq ~id ~result ~attempts ?(cycles = 0) ?(n_fus = 0) () =
  let now = t.clock () in
  locked t (fun () ->
    match Hashtbl.find_opt t.pending seq with
    | None -> ()
    | Some p ->
      p.p_id <- id;
      p.p_run_end <- now;
      p.p_result <- Some result;
      p.p_attempts <- attempts;
      p.p_cycles <- cycles;
      p.p_n_fus <- n_fus)

let merge_account t acct =
  locked t (fun () ->
    List.iteri
      (fun i cls ->
        t.account_totals.(i) <- t.account_totals.(i) + Account.total acct cls)
      Account.all;
    t.account_slots <- t.account_slots + Account.slots acct)

let merge_metrics t registry =
  locked t (fun () ->
    t.metrics_jobs <- t.metrics_jobs + 1;
    Metrics.merge ~into:t.merged_metrics registry)

let add_outcomes buf t =
  let outcomes =
    List.sort compare
      (Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.outcomes [])
  in
  Buffer.add_char buf '{';
  List.iteri
    (fun i (label, n) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "%s:%d" (Json.quote label) n))
    outcomes;
  Buffer.add_char buf '}'

(* Heartbeat: the outcome counts are over the records emitted so far,
   which the pool guarantees are exactly the first [completed] stream
   positions — deterministic; only elapsed_ms/jobs_per_sec carry wall
   time. *)
let progress_line t ~now =
  let buf = Buffer.create 256 in
  Buffer.add_string buf
    (Printf.sprintf
       "{\"schema\":\"ximd-progress/1\",\"completed\":%d,\"submitted\":%d,"
       t.completed t.submitted);
  Buffer.add_string buf "\"outcomes\":";
  add_outcomes buf t;
  let elapsed = now -. t.t0 in
  Buffer.add_string buf
    (Printf.sprintf ",\"elapsed_ms\":%d,\"jobs_per_sec\":%.1f}"
       (int_of_float (elapsed *. 1000.))
       (if elapsed > 0. then float_of_int t.completed /. elapsed else 0.));
  Buffer.contents buf

let on_emit t ~seq =
  let now = t.clock () in
  locked t (fun () ->
    match Hashtbl.find_opt t.pending seq with
    | None -> ()
    | Some p ->
      Hashtbl.remove t.pending seq;
      let result =
        match p.p_result with
        | Some r -> r
        | None ->
          (* emitted without ever completing: the pool built the record
             itself (an interrupt drain the caller didn't annotate) *)
          { Span.label = "dropped"; quality = Span.Bad }
      in
      let dequeue = if p.p_dequeue < 0. then p.p_enqueue else p.p_dequeue in
      let session = if p.p_session < 0. then dequeue else p.p_session in
      let run_end = if p.p_run_end < 0. then session else p.p_run_end in
      let id =
        if p.p_id = "" then Printf.sprintf "job-%d" p.p_seq else p.p_id
      in
      let span =
        { Span.seq = p.p_seq;
          id;
          domain = p.p_domain;
          enqueue_t = p.p_enqueue;
          dequeue_t = dequeue;
          session_t = session;
          run_end_t = run_end;
          emit_t = now;
          cache_hit = p.p_cache_hit;
          retries = p.p_retries;
          attempts = p.p_attempts;
          result;
          cycles = p.p_cycles;
          n_fus = p.p_n_fus;
          markers = List.rev p.p_markers }
      in
      t.spans_rev <- span :: t.spans_rev;
      t.completed <- t.completed + 1;
      t.last_emit <- now;
      bump t.outcomes result.Span.label;
      bump t.retry_hist p.p_attempts;
      t.total_cycles <- t.total_cycles + p.p_cycles;
      if p.p_domain >= 0 then begin
        let d =
          match Hashtbl.find_opt t.domains p.p_domain with
          | Some d -> d
          | None ->
            let d = { d_jobs = 0; d_cycles = 0; d_busy = 0. } in
            Hashtbl.replace t.domains p.p_domain d;
            d
        in
        d.d_jobs <- d.d_jobs + 1;
        d.d_cycles <- d.d_cycles + p.p_cycles;
        d.d_busy <- d.d_busy +. (run_end -. dequeue)
      end;
      if t.progress_every > 0 && t.completed mod t.progress_every = 0 then
        t.progress (progress_line t ~now))

(* ------------------------------------------------------------------ *)
(* Results *)

let spans t =
  locked t (fun () ->
    List.sort
      (fun (a : Span.t) (b : Span.t) -> Int.compare a.seq b.seq)
      t.spans_rev)

let completed t = locked t (fun () -> t.completed)
let queue_depth_high_water t = locked t (fun () -> t.queue_hwm)

let session_cache_stats t =
  locked t (fun () -> (t.cache_hits, t.cache_misses))

let account_totals t =
  locked t (fun () ->
    List.mapi
      (fun i cls -> (Account.name cls, t.account_totals.(i)))
      Account.all)

let account_slots t = locked t (fun () -> t.account_slots)
let merged_metrics t = t.merged_metrics
let total_cycles t = locked t (fun () -> t.total_cycles)

(* ------------------------------------------------------------------ *)
(* Rollup.  The logical view is golden-diffable; the fleet view is
   deliberately quarantined in its own object so a byte-diff of the
   logical line never sees a wall time, a domain identity or a cache
   artefact. *)

(* Callers must hold the lock. *)
let logical_to_buffer t buf =
  let spans =
    List.sort
      (fun (a : Span.t) (b : Span.t) -> Int.compare a.seq b.seq)
      t.spans_rev
  in
  Buffer.add_string buf
    (Printf.sprintf "{\"view\":\"logical\",\"jobs\":%d," t.completed);
  Buffer.add_string buf "\"outcomes\":";
  add_outcomes buf t;
  Buffer.add_string buf
    (Printf.sprintf ",\"total_cycles\":%d," t.total_cycles);
  Buffer.add_string buf "\"retry_histogram\":{";
  let retries =
    List.sort compare
      (Hashtbl.fold (fun k r acc -> (k, !r) :: acc) t.retry_hist [])
  in
  List.iteri
    (fun i (attempts, n) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Printf.sprintf "\"%d\":%d" attempts n))
    retries;
  Buffer.add_string buf "},\"account\":{";
  List.iteri
    (fun i cls ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\"%s\":%d" (Account.name cls) t.account_totals.(i)))
    Account.all;
  Buffer.add_string buf
    (Printf.sprintf ",\"slots\":%d}," t.account_slots);
  Buffer.add_string buf "\"metrics\":";
  Buffer.add_string buf (Metrics.to_json t.merged_metrics);
  Buffer.add_string buf ",\"per_job\":[";
  List.iteri
    (fun i (s : Span.t) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"seq\":%d,\"id\":%s,\"outcome\":%s,\"attempts\":%d,\
            \"cycles\":%d,\"n_fus\":%d}"
           s.seq (Json.quote s.id)
           (Json.quote s.result.Span.label)
           s.attempts s.cycles s.n_fus))
    spans;
  Buffer.add_string buf "]}"

let logical_json t =
  locked t (fun () ->
    let buf = Buffer.create 2048 in
    logical_to_buffer t buf;
    Buffer.contents buf)

let fleet_to_buffer t buf ~now =
  Buffer.add_string buf
    (Printf.sprintf "{\"view\":\"fleet\",\"wall_ms\":%d,"
       (int_of_float ((now -. t.t0) *. 1000.)));
  Buffer.add_string buf
    (Printf.sprintf "\"queue_depth_high_water\":%d," t.queue_hwm);
  let hits = t.cache_hits and misses = t.cache_misses in
  let lookups = hits + misses in
  Buffer.add_string buf
    (Printf.sprintf
       "\"session_cache\":{\"hits\":%d,\"misses\":%d,\"hit_rate\":%.3f},"
       hits misses
       (if lookups = 0 then 0. else float_of_int hits /. float_of_int lookups));
  Buffer.add_string buf "\"domains\":[";
  let domains =
    List.sort compare
      (Hashtbl.fold (fun k d acc -> (k, d) :: acc) t.domains [])
  in
  List.iteri
    (fun i (domain, d) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           "{\"domain\":%d,\"jobs\":%d,\"cycles\":%d,\"busy_ms\":%d}" domain
           d.d_jobs d.d_cycles
           (int_of_float (d.d_busy *. 1000.))))
    domains;
  let elapsed = t.last_emit -. t.t0 in
  Buffer.add_string buf
    (Printf.sprintf "],\"jobs_per_sec\":%.1f}"
       (if elapsed > 0. then float_of_int t.completed /. elapsed else 0.))

(* Three lines by construction: line 2 is the logical view (plus a
   trailing comma), so tooling can extract and byte-diff it with
   `sed -n 2p` — no JSON parser needed. *)
let rollup_json t =
  let now = t.clock () in
  locked t (fun () ->
    let buf = Buffer.create 4096 in
    Buffer.add_string buf "{\"schema\":\"ximd-campaign/1\",\n\"logical\":";
    logical_to_buffer t buf;
    Buffer.add_string buf ",\n\"fleet\":";
    fleet_to_buffer t buf ~now;
    Buffer.add_string buf "}\n";
    Buffer.contents buf)

(* ------------------------------------------------------------------ *)
(* Chrome trace_event export: one track per domain, one complete slice
   per job (outcome-coloured), session/run sub-slices, retry and
   failure instants, a queue-depth counter track, and one async lane
   per job spanning enqueue -> emit (queue wait included). *)

let chrome_to_buffer t buf =
  let spans = spans t
  and samples = locked t (fun () -> List.rev t.queue_samples_rev) in
  let us f = int_of_float ((f -. t.t0) *. 1e6) in
  let dur a b = max 0 (int_of_float ((b -. a) *. 1e6)) in
  let e = Chrome.create buf ~process:"ximd campaign" in
  let domains =
    List.sort_uniq Int.compare
      (List.filter_map
         (fun (s : Span.t) -> if s.domain >= 0 then Some s.domain else None)
         spans)
  in
  List.iter
    (fun domain ->
      Chrome.meta e ~tid:domain ~name:(Printf.sprintf "domain %d" domain))
    domains;
  List.iter
    (fun (at, depth) ->
      Chrome.counter e ~ts:(us at) ~name:"queue_depth" ~series:"depth" depth)
    samples;
  List.iter
    (fun (s : Span.t) ->
      let label = s.result.Span.label in
      (* full-lifetime async lane: enqueue -> emit, reorder wait and
         queue wait visible as the flanks around the domain slice *)
      let lane phase at =
        Chrome.async e phase ~cat:"job" ~id:s.seq ~tid:(max 0 s.domain)
          ~ts:(us at) s.id
      in
      lane `Begin s.enqueue_t;
      lane `End s.emit_t;
      if s.domain >= 0 then begin
        let tid = s.domain in
        Chrome.slice e ~tid ~ts:(us s.dequeue_t)
          ~dur:(dur s.dequeue_t s.run_end_t)
          ~cname:(Span.cname s.result.Span.quality)
          ~args:
            (Printf.sprintf
               "{\"outcome\":%s,\"attempts\":%d,\"cycles\":%d,\
                \"queue_wait_us\":%d,\"reorder_wait_us\":%d}"
               (Json.quote label) s.attempts s.cycles
               (int_of_float (Span.queue_wait s *. 1e6))
               (int_of_float (Span.reorder_wait s *. 1e6)))
          (Printf.sprintf "%s [%s]" s.id label);
        (match s.cache_hit with
         | None -> ()
         | Some hit ->
           Chrome.slice e ~tid ~ts:(us s.dequeue_t)
             ~dur:(dur s.dequeue_t s.session_t)
             (if hit then "cache-hit" else "session-build");
           Chrome.slice e ~tid ~ts:(us s.session_t)
             ~dur:(dur s.session_t s.run_end_t) "run");
        List.iter
          (fun (m : Span.marker) ->
            Chrome.instant e ~tid ~ts:(us m.Span.at) m.Span.note)
          s.markers;
        if s.result.Span.quality <> Span.Good then
          Chrome.instant e ~tid ~ts:(us s.run_end_t) label
      end)
    spans;
  Chrome.finish e
    ~other_data:
      (Printf.sprintf "{\"jobs\":%d,\"queue_depth_high_water\":%d}"
         (List.length spans)
         (queue_depth_high_water t))

let chrome_json t =
  let buf = Buffer.create 8192 in
  chrome_to_buffer t buf;
  Buffer.contents buf

let pp_summary fmt t =
  let spans = spans t in
  let hits, misses = session_cache_stats t in
  Format.pp_open_vbox fmt 0;
  Format.fprintf fmt "campaign telemetry: %d jobs, queue high-water %d@,"
    (List.length spans)
    (queue_depth_high_water t);
  Format.fprintf fmt "  session cache: %d hits / %d misses@," hits misses;
  List.iter (fun s -> Format.fprintf fmt "  %a@," Span.pp s) spans;
  Format.pp_close_box fmt ()
