(* In-memory span recorder for the traced run.

   A span is one timed call into a layer's public function, made from
   the benchmark's own code: a name, start and end (monotonic ns), the
   op it belongs to (spans of one op share that identifier), and an
   optional work count (cycles, minor words).  Spans stay in memory
   during the run; [write_chrome] exports them when the run ends.  Per
   name, every duration is kept for the medians, while the export keeps
   at most [capacity] spans and counts the rest as dropped.

   A recorder is not thread-safe: code that records from several
   domains uses one recorder per domain (or per lock) and [merge]s. *)

type t = {
  ids : (string, int) Hashtbl.t;
  mutable names : string array;
  mutable durations : Sample.t array;  (* per name id, ns *)
  mutable per_unit : Sample.t array;   (* per name id, ns per work unit *)
  mutable len : int;
  name_of : int array;
  op_of : int array;
  t0_of : int array;
  t1_of : int array;
  mutable dropped : int;
}

let capacity = 100_000

let create () =
  { ids = Hashtbl.create 64;
    names = [||];
    durations = [||];
    per_unit = [||];
    len = 0;
    name_of = Array.make capacity 0;
    op_of = Array.make capacity 0;
    t0_of = Array.make capacity 0;
    t1_of = Array.make capacity 0;
    dropped = 0 }

let id t name =
  match Hashtbl.find_opt t.ids name with
  | Some i -> i
  | None ->
    let i = Array.length t.names in
    Hashtbl.add t.ids name i;
    t.names <- Array.append t.names [| name |];
    t.durations <- Array.append t.durations [| Sample.create () |];
    t.per_unit <- Array.append t.per_unit [| Sample.create () |];
    i

let record t name ~op ~t0 ~t1 ?work () =
  let i = id t name in
  let dur = float_of_int (t1 - t0) in
  Sample.add t.durations.(i) dur;
  (match work with
   | Some w when w > 0 -> Sample.add t.per_unit.(i) (dur /. float_of_int w)
   | _ -> ());
  if t.len < capacity then begin
    t.name_of.(t.len) <- i;
    t.op_of.(t.len) <- op;
    t.t0_of.(t.len) <- t0;
    t.t1_of.(t.len) <- t1;
    t.len <- t.len + 1
  end
  else t.dropped <- t.dropped + 1

(* Time [f ()] as a span named [name]. *)
let call t name ~op f =
  let t0 = Clock.now_ns () in
  let r = f () in
  record t name ~op ~t0 ~t1:(Clock.now_ns ()) ();
  r

let find t name = Hashtbl.find_opt t.ids name

let durations t name =
  match find t name with
  | Some i -> t.durations.(i)
  | None -> Sample.create ~capacity:1 ()

let median_ns t name = Sample.median (durations t name)
let median_us t name = median_ns t name /. 1e3

let median_per_unit_ns t name =
  match find t name with
  | Some i -> Sample.median t.per_unit.(i)
  | None -> 0.0

(* Fold [src]'s spans and samples into [dst]. *)
let merge ~into:dst src =
  Array.iteri
    (fun i name ->
      let j = id dst name in
      let d = src.durations.(i) and u = src.per_unit.(i) in
      for k = 0 to Sample.length d - 1 do
        Sample.add dst.durations.(j) d.Sample.data.(k)
      done;
      for k = 0 to Sample.length u - 1 do
        Sample.add dst.per_unit.(j) u.Sample.data.(k)
      done)
    src.names;
  for k = 0 to src.len - 1 do
    if dst.len < capacity then begin
      dst.name_of.(dst.len) <- id dst src.names.(src.name_of.(k));
      dst.op_of.(dst.len) <- src.op_of.(k);
      dst.t0_of.(dst.len) <- src.t0_of.(k);
      dst.t1_of.(dst.len) <- src.t1_of.(k);
      dst.len <- dst.len + 1
    end
    else dst.dropped <- dst.dropped + 1
  done;
  dst.dropped <- dst.dropped + src.dropped

let spans t = t.len
let dropped t = t.dropped

(* Chrome trace_event JSON: one complete ("X") event per kept span, on a
   track per layer (the name's first dotted component), with the op
   identifier as an argument. *)
let write_chrome t path =
  let base = ref max_int in
  for k = 0 to t.len - 1 do
    base := min !base t.t0_of.(k)
  done;
  let tracks = Hashtbl.create 16 in
  let track name =
    let layer =
      match String.index_opt name '.' with
      | Some i -> String.sub name 0 i
      | None -> name
    in
    match Hashtbl.find_opt tracks layer with
    | Some tid -> tid
    | None ->
      let tid = Hashtbl.length tracks in
      Hashtbl.add tracks layer tid;
      tid
  in
  let oc = open_out path in
  output_string oc "{\"traceEvents\":[\n";
  for k = 0 to t.len - 1 do
    let name = t.names.(t.name_of.(k)) in
    Printf.fprintf oc
      "%s{\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"name\":\"%s\",\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%d}}"
      (if k = 0 then "" else ",\n")
      (track name) name
      (float_of_int (t.t0_of.(k) - !base) /. 1e3)
      (float_of_int (t.t1_of.(k) - t.t0_of.(k)) /. 1e3)
      t.op_of.(k)
  done;
  Hashtbl.iter
    (fun layer tid ->
      Printf.fprintf oc
        ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%d,\"name\":\"thread_name\",\"args\":{\"name\":\"%s\"}}"
        tid layer)
    tracks;
  Printf.fprintf oc "\n],\"otherData\":{\"dropped_spans\":%d}}\n" t.dropped;
  close_out oc
