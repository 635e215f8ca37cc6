(* Paper figure, table and ablation regenerator.

   Usage:
     bench/main.exe           — regenerate every paper figure/table and
                                every ablation
     bench/main.exe e2 e5     — run selected experiments (f7, e1..e8,
                                sched, a1..a6, ablations, all)

   Host-performance measurement lives in xbench/ (see BENCHMARK.json). *)

let experiments = Ximd_report.Experiments.known @ Ximd_report.Ablations.known

let run_experiment id =
  let fmt = Format.std_formatter in
  Format.pp_open_vbox fmt 0;
  (List.assoc id experiments) fmt;
  Format.pp_close_box fmt ();
  Format.pp_print_newline fmt ()

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  (* Reject typos before any (potentially long) run starts. *)
  List.iter
    (fun arg ->
      if not (List.mem_assoc arg experiments) then begin
        Printf.eprintf "unknown experiment %S (have: %s)\n" arg
          (String.concat ", " (List.map fst experiments));
        exit 1
      end)
    args;
  List.iter run_experiment (if args = [] then [ "all"; "ablations" ] else args)
