(** Chrome [trace_event] JSON (Perfetto / chrome://tracing): the one
    writer every trace in the tree goes through, and the simulated run's
    trace built on it.

    {1 Writer}

    An {!emitter} appends one JSON document to a buffer: the
    ["traceEvents"] header and a process-name record ({!create}), one
    event per line separated by [",\n"], and a footer carrying
    ["displayTimeUnit"] and an optional ["otherData"] object
    ({!finish}).  Every event has [pid] 0; timestamps and durations are
    integers in the format's native microseconds; strings are quoted by
    {!Json}.  The sink export below, the campaign trace
    ({!Farmobs.chrome_json}) and the compiler's pass trace all use it. *)

type emitter

val create : Buffer.t -> process:string -> emitter
(** Writes the header and the ["process_name"] metadata record. *)

val meta : emitter -> tid:int -> name:string -> unit
(** A ["thread_name"] metadata record naming track [tid]. *)

val slice :
  emitter ->
  tid:int ->
  ts:int ->
  dur:int ->
  ?cname:string ->
  ?args:string ->
  string ->
  unit
(** A complete ("X") event named by the last argument.  [cname] is a
    colour name; [args] is an already-rendered JSON object. *)

val instant : emitter -> tid:int -> ts:int -> string -> unit
(** A thread-scoped instant ("i") event. *)

val counter :
  emitter -> ts:int -> name:string -> series:string -> int -> unit
(** A counter ("C") sample: one series [series] of counter [name]. *)

val async :
  emitter ->
  [ `Begin | `End ] ->
  cat:string ->
  id:int ->
  tid:int ->
  ts:int ->
  string ->
  unit
(** One end ("b" or "e") of an async slice; [cat] and [id] pair the
    ends. *)

val finish : ?other_data:string -> emitter -> unit
(** Closes the event list and the document, with a final newline.
    [other_data] is an already-rendered JSON object. *)

(** {1 The simulated run}

    Layout:
    - one track per FU (tid = FU index) carrying "X" slices — runs of
      consecutive cycles fetching the same address, named by the address
      (or the label [pc_label] supplies) — plus instants for CC
      broadcasts, SS transitions, halts, and barrier enter/exit;
    - one track per SSET stream, keyed by the stream's smallest FU
      (tid = 1000 + leader), carrying the {!Timeline} intervals;
    - "C" counter samples for the live-stream count at each partition
      change;
    - process-level instants for fired faults and the watchdog window.

    One simulated cycle maps to one microsecond of trace time, so
    Perfetto's time axis reads directly as cycles.  Output is a pure
    function of the sink's recorded data — byte-stable, no timestamps or
    environment leak in. *)

val to_buffer :
  ?fu_name:(int -> string) ->
  ?pc_label:(int -> string option) ->
  Buffer.t ->
  Sink.t ->
  unit
(** [fu_name] defaults to ["FU<i>"]; [pc_label] (e.g. the program's
    symbol table) defaults to no labels, slices named ["0x<pc>"]. *)

val to_string :
  ?fu_name:(int -> string) -> ?pc_label:(int -> string option) -> Sink.t ->
  string
