(* Every metric the benchmark reports, by name and unit.  BENCHMARK.json
   at the repository root lists the same names (the benchmark's tests
   compare the two). *)

let end_to_end =
  [ ("setup_s", "s");
    ("ops_per_s", "1/s");
    ("op_ms.p50", "ms");
    ("op_ms.p99", "ms");
    ("sim_cycles_per_s", "1/s");
    ("sim_cycles_per_op", "cycles");
    ("minor_words_per_op", "words");
    ("top_heap_mb", "MB");
    ("ok_rate", "ratio") ]

let account_classes =
  List.map
    (fun c -> ("account." ^ Ximd_obs.Account.name c ^ "_slots", "count"))
    Ximd_obs.Account.all

(* Compiler passes that Schedobs times, by the name each pass records. *)
let schedobs_passes =
  [ "lex"; "parse"; "lower"; "validate-ir"; "validate"; "regalloc";
    "schedule+emit"; "loop-bounds"; "trace-select"; "region-build";
    "region-schedule"; "emit" ]

let pass_metric name =
  "schedobs.pass."
  ^ String.map (fun c -> if c = '+' then '_' else c) name
  ^ "_us"

let farm_classes =
  [ "ok"; "hazardous"; "fuel_exhausted"; "deadlocked"; "budget_exceeded";
    "deadline_exceeded"; "crashed"; "rejected"; "dropped" ]

let per_layer =
  [ ("state.create_us", "us");
    ("state.reset_us", "us");
    ("engine.ns_per_cycle.xsim", "ns");
    ("engine.ns_per_cycle.vsim", "ns");
    ("engine.ns_per_cycle.t500", "ns");
    ("engine.words_per_cycle.xsim", "words");
    ("engine.words_per_cycle.vsim", "words");
    ("engine.words_per_cycle.t500", "words");
    ("stats.data_ops", "count");
    ("stats.spin_slots", "count");
    ("stats.commit_ops", "count");
    ("stats.max_streams", "count") ]
  @ account_classes
  @ [ ("workload.check_us", "us");
      ("asm.parse_us", "us");
      ("farm.submit_us", "us");
      ("farm.queue_wait_ms.p50", "ms");
      ("farm.queue_wait_ms.p99", "ms");
      ("farm.session_hit_ratio", "ratio");
      ("farm.run_ms.p50", "ms");
      ("farm.emit_us", "us");
      ("record.json_us", "us");
      ("record.bytes_per_record", "B");
      ("farm.queue_depth_hwm", "count");
      ("farm.domain_busy_ratio", "ratio") ]
  @ List.map (fun c -> ("farm.outcome." ^ c, "count")) farm_classes
  @ [ ("lang.parse_us", "us");
      ("codegen.compile_us", "us");
      ("tracesched.compile_us", "us");
      ("kernelgen.compile_us", "us");
      ("tile.generate_us", "us");
      ("packing.pack_us", "us");
      ("threader.build_us", "us") ]
  @ List.map (fun p -> (pass_metric p, "us")) schedobs_passes
  @ [ ("codegen.static_rows", "count");
      ("pipeliner.ii_gap", "count");
      ("interp.us", "us");
      ("proggen.generate_us", "us");
      ("ref.observe_us", "us");
      ("diff.observe_engine_us", "us");
      ("diff.models_per_case", "count");
      ("bench.trace_overhead", "ratio") ]
