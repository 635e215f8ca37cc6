type counter = { c_name : string; mutable c_value : int }

type gauge = {
  g_name : string;
  mutable g_value : int;
  mutable g_max : int;
}

type histogram = {
  h_name : string;
  mutable h_count : int;
  mutable h_sum : int;
  mutable h_max : int;
  h_buckets : int array;
}

let n_buckets = 64

type t = {
  (* insertion order, newest first; lookup is only done at registration
     time so a list scan is fine *)
  mutable counters_rev : counter list;
  mutable gauges_rev : gauge list;
  mutable histograms_rev : histogram list;
}

let create () = { counters_rev = []; gauges_rev = []; histograms_rev = [] }

let counter t name =
  match List.find_opt (fun c -> c.c_name = name) t.counters_rev with
  | Some c -> c
  | None ->
    let c = { c_name = name; c_value = 0 } in
    t.counters_rev <- c :: t.counters_rev;
    c

let gauge t name =
  match List.find_opt (fun g -> g.g_name = name) t.gauges_rev with
  | Some g -> g
  | None ->
    let g = { g_name = name; g_value = 0; g_max = 0 } in
    t.gauges_rev <- g :: t.gauges_rev;
    g

let histogram t name =
  match List.find_opt (fun h -> h.h_name = name) t.histograms_rev with
  | Some h -> h
  | None ->
    let h =
      { h_name = name;
        h_count = 0;
        h_sum = 0;
        h_max = 0;
        h_buckets = Array.make n_buckets 0 }
    in
    t.histograms_rev <- h :: t.histograms_rev;
    h

let incr c = c.c_value <- c.c_value + 1
let add c v = c.c_value <- c.c_value + v
let set_counter c v = c.c_value <- v

let set_gauge g v =
  g.g_value <- v;
  if v > g.g_max then g.g_max <- v

let bucket_index v =
  if v <= 0 then 0
  else begin
    (* floor(log2 v) + 1, by shifting v down to zero *)
    let i = ref 0 and v = ref v in
    while !v > 0 do
      i := !i + 1;
      v := !v lsr 1
    done;
    !i
  end

let bucket_lo i = if i <= 0 then 0 else 1 lsl (i - 1)
let bucket_hi i = if i <= 0 then 0 else (1 lsl i) - 1

let observe h v =
  h.h_count <- h.h_count + 1;
  h.h_sum <- h.h_sum + v;
  if v > h.h_max then h.h_max <- v;
  let i = bucket_index v in
  h.h_buckets.(i) <- h.h_buckets.(i) + 1

let mean h =
  if h.h_count = 0 then 0.
  else float_of_int h.h_sum /. float_of_int h.h_count

let quantile h q =
  if h.h_count = 0 then 0
  else begin
    let q = if q < 0. then 0. else if q > 1. then 1. else q in
    let rank = int_of_float (ceil (q *. float_of_int h.h_count)) in
    let rank = if rank < 1 then 1 else rank in
    let seen = ref 0 and result = ref h.h_max in
    (try
       for i = 0 to n_buckets - 1 do
         seen := !seen + h.h_buckets.(i);
         if !seen >= rank then begin
           result := min h.h_max (bucket_hi i);
           raise Exit
         end
       done
     with Exit -> ());
    !result
  end

let by_name name a b = String.compare (name a) (name b)

let counters t = List.sort (by_name (fun c -> c.c_name)) t.counters_rev
let gauges t = List.sort (by_name (fun g -> g.g_name)) t.gauges_rev
let histograms t = List.sort (by_name (fun h -> h.h_name)) t.histograms_rev

(* Merging is the campaign aggregation primitive: every combination is
   commutative and associative (sum, max), so folding per-job
   registries in whatever order worker domains finish yields the same
   merged registry — the property the deterministic campaign rollup
   rests on.  Gauges merge by max on both fields: "last value" has no
   meaning across jobs, the high-water mark does. *)
let merge_counter dst (c : counter) = dst.c_value <- dst.c_value + c.c_value

let merge_gauge dst (g : gauge) =
  dst.g_value <- max dst.g_value (max g.g_value g.g_max);
  dst.g_max <- max dst.g_max g.g_max

let merge_histogram dst (h : histogram) =
  dst.h_count <- dst.h_count + h.h_count;
  dst.h_sum <- dst.h_sum + h.h_sum;
  dst.h_max <- max dst.h_max h.h_max;
  Array.iteri (fun i n -> dst.h_buckets.(i) <- dst.h_buckets.(i) + n)
    h.h_buckets

(* True when both lists registered the same names in the same order —
   the steady state when one campaign registry absorbs same-shaped
   per-job registries, letting merge skip the per-name scans. *)
let aligned name a b =
  try List.for_all2 (fun x y -> String.equal (name x) (name y)) a b
  with Invalid_argument _ -> false

let merge ~into src =
  if aligned (fun (c : counter) -> c.c_name) into.counters_rev src.counters_rev
  then List.iter2 merge_counter into.counters_rev src.counters_rev
  else
    List.iter
      (fun c -> merge_counter (counter into c.c_name) c)
      (List.rev src.counters_rev);
  if aligned (fun (g : gauge) -> g.g_name) into.gauges_rev src.gauges_rev then
    List.iter2 merge_gauge into.gauges_rev src.gauges_rev
  else
    List.iter
      (fun g -> merge_gauge (gauge into g.g_name) g)
      (List.rev src.gauges_rev);
  if aligned (fun (h : histogram) -> h.h_name) into.histograms_rev
       src.histograms_rev
  then List.iter2 merge_histogram into.histograms_rev src.histograms_rev
  else
    List.iter
      (fun h -> merge_histogram (histogram into h.h_name) h)
      (List.rev src.histograms_rev)

let reset t =
  List.iter (fun c -> c.c_value <- 0) t.counters_rev;
  List.iter
    (fun g ->
      g.g_value <- 0;
      g.g_max <- 0)
    t.gauges_rev;
  List.iter
    (fun h ->
      h.h_count <- 0;
      h.h_sum <- 0;
      h.h_max <- 0;
      Array.fill h.h_buckets 0 n_buckets 0)
    t.histograms_rev

(* ------------------------------------------------------------------ *)
(* Rendering.  JSON is emitted in name order so the bytes are a pure
   function of the recorded data. *)

let add_histogram_json buf h =
  Buffer.add_string buf
    (Printf.sprintf "{\"count\":%d,\"sum\":%d,\"max\":%d,\"mean\":%.3f,"
       h.h_count h.h_sum h.h_max (mean h));
  Buffer.add_string buf "\"buckets\":[";
  let first = ref true in
  Array.iteri
    (fun i n ->
      if n > 0 then begin
        if not !first then Buffer.add_char buf ',';
        first := false;
        Buffer.add_string buf
          (Printf.sprintf "{\"le\":%d,\"count\":%d}" (bucket_hi i) n)
      end)
    h.h_buckets;
  Buffer.add_string buf "]}"

let to_json t =
  let buf = Buffer.create 1024 in
  let sep first = if not !first then Buffer.add_char buf ',' ; first := false in
  Buffer.add_string buf "{\"counters\":{";
  let first = ref true in
  List.iter
    (fun c ->
      sep first;
      Buffer.add_string buf
        (Printf.sprintf "%s:%d" (Json.quote c.c_name) c.c_value))
    (counters t);
  Buffer.add_string buf "},\"gauges\":{";
  let first = ref true in
  List.iter
    (fun g ->
      sep first;
      Buffer.add_string buf
        (Printf.sprintf "%s:{\"value\":%d,\"max\":%d}"
           (Json.quote g.g_name) g.g_value g.g_max))
    (gauges t);
  Buffer.add_string buf "},\"histograms\":{";
  let first = ref true in
  List.iter
    (fun h ->
      sep first;
      Buffer.add_string buf (Json.quote h.h_name);
      Buffer.add_char buf ':';
      add_histogram_json buf h)
    (histograms t);
  Buffer.add_string buf "}}";
  Buffer.contents buf

let pp fmt t =
  Format.pp_open_vbox fmt 0;
  List.iter
    (fun c -> Format.fprintf fmt "%-32s %d@," c.c_name c.c_value)
    (counters t);
  List.iter
    (fun g ->
      Format.fprintf fmt "%-32s %d (max %d)@," g.g_name g.g_value g.g_max)
    (gauges t);
  List.iter
    (fun h ->
      Format.fprintf fmt
        "%-32s count %d  mean %.1f  p50 %d  p99 %d  max %d@," h.h_name
        h.h_count (mean h) (quantile h 0.5) (quantile h 0.99) h.h_max)
    (histograms t);
  Format.pp_close_box fmt ()
