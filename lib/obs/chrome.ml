(* ------------------------------------------------------------------ *)
(* The trace_event writer.  Every event starts with its phase and then
   writes its fields in a fixed order, so the bytes the goldens pin
   depend only on the events; strings go through Json. *)

type emitter = { buf : Buffer.t; mutable first : bool }

let open_event e ph =
  if e.first then e.first <- false else Buffer.add_string e.buf ",\n";
  Buffer.add_string e.buf "{\"ph\":\"";
  Buffer.add_string e.buf ph;
  Buffer.add_char e.buf '"'

let key e k =
  Buffer.add_string e.buf ",\"";
  Buffer.add_string e.buf k;
  Buffer.add_string e.buf "\":"

let int_field e k v =
  key e k;
  Buffer.add_string e.buf (string_of_int v)

let str_field e k v =
  key e k;
  Buffer.add_char e.buf '"';
  Json.escape_into e.buf v;
  Buffer.add_char e.buf '"'

let raw_field e k v =
  key e k;
  Buffer.add_string e.buf v

let close_event e = Buffer.add_char e.buf '}'

let metadata e ?tid kind name =
  open_event e "M";
  int_field e "pid" 0;
  Option.iter (int_field e "tid") tid;
  str_field e "name" kind;
  raw_field e "args" ("{\"name\":" ^ Json.quote name ^ "}");
  close_event e

let create buf ~process =
  Buffer.add_string buf "{\"traceEvents\":[\n";
  let e = { buf; first = true } in
  metadata e "process_name" process;
  e

let meta e ~tid ~name = metadata e ~tid "thread_name" name

let slice e ~tid ~ts ~dur ?cname ?args name =
  open_event e "X";
  int_field e "pid" 0;
  int_field e "tid" tid;
  int_field e "ts" ts;
  int_field e "dur" dur;
  Option.iter (str_field e "cname") cname;
  str_field e "name" name;
  Option.iter (raw_field e "args") args;
  close_event e

let instant e ~tid ~ts name =
  open_event e "i";
  int_field e "pid" 0;
  int_field e "tid" tid;
  int_field e "ts" ts;
  str_field e "s" "t";
  str_field e "name" name;
  close_event e

let counter e ~ts ~name ~series value =
  open_event e "C";
  int_field e "pid" 0;
  int_field e "ts" ts;
  str_field e "name" name;
  raw_field e "args" (Printf.sprintf "{%s:%d}" (Json.quote series) value);
  close_event e

let async e phase ~cat ~id ~tid ~ts name =
  open_event e (match phase with `Begin -> "b" | `End -> "e");
  str_field e "cat" cat;
  int_field e "id" id;
  int_field e "pid" 0;
  int_field e "tid" tid;
  int_field e "ts" ts;
  str_field e "name" name;
  close_event e

let finish ?other_data e =
  Buffer.add_string e.buf "\n],\"displayTimeUnit\":\"ms\"";
  Option.iter (raw_field e "otherData") other_data;
  Buffer.add_string e.buf "}\n"

(* ------------------------------------------------------------------ *)
(* The simulated run's trace, from a sink. *)

let sset_track_base = 1000

let members_string members =
  "{" ^ String.concat "," (List.map string_of_int members) ^ "}"

let to_buffer ?(fu_name = Printf.sprintf "FU%d")
    ?(pc_label = fun _ -> None) buf sink =
  let n = Sink.n_fus sink in
  let e = create buf ~process:"ximd" in
  for fu = 0 to n - 1 do
    meta e ~tid:fu ~name:(fu_name fu)
  done;
  (* SSET stream tracks actually used, keyed by smallest member. *)
  let timeline = Sink.timeline sink in
  let leaders =
    List.sort_uniq Int.compare
      (List.filter_map
         (fun (i : Timeline.interval) ->
           match i.members with [] -> None | fu :: _ -> Some fu)
         timeline)
  in
  List.iter
    (fun leader ->
      meta e ~tid:(sset_track_base + leader)
        ~name:(Printf.sprintf "SSET led by FU%d" leader))
    leaders;
  let slice_name pc =
    match pc_label pc with
    | Some l -> Printf.sprintf "%s (0x%02x)" l pc
    | None -> Printf.sprintf "0x%02x" pc
  in
  (* Fetch runs: merge consecutive same-pc fetches per FU into slices.
     Events arrive in chronological order, cycle by cycle. *)
  let run_pc = Array.make n (-1)
  and run_start = Array.make n 0
  and run_len = Array.make n 0 in
  let flush fu =
    if run_pc.(fu) >= 0 then begin
      slice e ~tid:fu ~ts:run_start.(fu) ~dur:run_len.(fu)
        (slice_name run_pc.(fu));
      run_pc.(fu) <- -1
    end
  in
  List.iter
    (fun (ev : Event.t) ->
      match ev with
      | Event.Fetch { cycle; fu; pc } ->
        if run_pc.(fu) = pc && run_start.(fu) + run_len.(fu) = cycle then
          run_len.(fu) <- run_len.(fu) + 1
        else begin
          flush fu;
          run_pc.(fu) <- pc;
          run_start.(fu) <- cycle;
          run_len.(fu) <- 1
        end
      | Event.Cc_broadcast { cycle; fu; value } ->
        instant e ~tid:fu ~ts:cycle
          (Printf.sprintf "cc%d=%c" fu (if value then 'T' else 'F'))
      | Event.Ss_transition { cycle; fu; to_done } ->
        instant e ~tid:fu ~ts:cycle
          (Printf.sprintf "ss%d->%s" fu (if to_done then "DONE" else "BUSY"))
      | Event.Barrier_enter { cycle; fu; pc } ->
        instant e ~tid:fu ~ts:cycle
          (Printf.sprintf "barrier enter @%02x" pc)
      | Event.Barrier_exit { cycle; fu; pc; waited } ->
        instant e ~tid:fu ~ts:cycle
          (Printf.sprintf "barrier exit @%02x (waited %d)" pc waited)
      | Event.Halt { cycle; fu } ->
        flush fu;
        instant e ~tid:fu ~ts:cycle "halt"
      | Event.Partition_change { cycle; ssets } ->
        counter e ~ts:cycle ~name:"live_streams" ~series:"streams"
          (List.length ssets)
      | Event.Fault_fired { cycle; kind; target } ->
        instant e ~tid:0 ~ts:cycle
          (Printf.sprintf "fault %s:%d" kind target)
      | Event.Watchdog_window { cycle; quiet } ->
        instant e ~tid:0 ~ts:cycle
          (Printf.sprintf "watchdog window (%d quiet cycles)" quiet)
      | Event.Commit _ -> ())
    (Sink.events sink);
  for fu = 0 to n - 1 do
    flush fu
  done;
  (* SSET timeline intervals on their leader tracks. *)
  List.iter
    (fun (i : Timeline.interval) ->
      match i.members with
      | [] -> ()
      | leader :: _ ->
        slice e
          ~tid:(sset_track_base + leader)
          ~ts:i.start_cycle
          ~dur:(Timeline.duration i)
          (members_string i.members))
    timeline;
  finish e
    ~other_data:
      (Printf.sprintf "{\"dropped_events\":%d,\"final_cycle\":%d}"
         (Sink.dropped_events sink) (Sink.final_cycle sink))

let to_string ?fu_name ?pc_label sink =
  let buf = Buffer.create 8192 in
  to_buffer ?fu_name ?pc_label buf sink;
  Buffer.contents buf
