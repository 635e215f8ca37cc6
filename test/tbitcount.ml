(* BITCOUNT1 (Example 3): correctness, barrier behaviour and the
   Figure 11 control-flow structure. *)

open Ximd_workloads

let run_traced () =
  let tracer = Ximd_core.Tracer.create () in
  let workload = Bitcount.make () in
  match Workload.run_checked ~tracer workload.ximd with
  | Error msg -> Alcotest.fail msg
  | Ok (outcome, state) -> (tracer, outcome, state)

let test_ximd_checked () = ignore (run_traced ())

let test_vliw_checked () =
  match (Bitcount.make ()).vliw with
  | None -> Alcotest.fail "bitcount has a VLIW variant"
  | Some v -> (
    match Workload.run_checked v with
    | Ok _ -> ()
    | Error msg -> Alcotest.fail msg)

let test_speedup () =
  match Workload.speedup (Bitcount.make ()) with
  | Error msg -> Alcotest.fail msg
  | Ok (speedup, xc, vc) ->
    if speedup < 1.5 then
      Alcotest.failf
        "four concurrent inner loops should beat a serial VLIW clearly, got \
         %.2f (%d vs %d)"
        speedup xc vc

(* Figure 11's structure: single SSET through start-up, a fork into four
   independent threads inside the inner loops, a re-join at the barrier,
   and a single SSET through the join code at 11:-15:. *)
let test_figure11_structure () =
  let tracer, _, _ = run_traced () in
  let rows = Ximd_core.Tracer.rows tracer in
  let partitions =
    List.map
      (fun (r : Ximd_core.Tracer.row) ->
        Ximd_core.Partition.count r.partition)
      rows
  in
  (match partitions with
   | one :: _ -> Alcotest.(check int) "starts as one SSET" 1 one
   | [] -> Alcotest.fail "empty trace");
  let max_streams = List.fold_left max 0 partitions in
  Alcotest.(check int) "forks into four threads" 4 max_streams;
  (* Every visit to the join code at 11: happens as a single SSET. *)
  List.iter
    (fun (r : Ximd_core.Tracer.row) ->
      let at_join =
        Array.for_all (function Some pc -> pc = 0x11 | None -> false) r.pcs
      in
      if at_join then
        Alcotest.(check int) "single SSET at join" 1
          (Ximd_core.Partition.count r.partition))
    rows

(* Every FU drives SS = DONE while waiting at the barrier, BUSY inside
   the inner loops. *)
let test_barrier_sync_signals () =
  let tracer, _, _ = run_traced () in
  let rows = Ximd_core.Tracer.rows tracer in
  (* Find a cycle where some FU sits at the barrier and another is still
     in its inner loop; check the waiting FU reads DONE. *)
  let interesting =
    List.filter
      (fun (r : Ximd_core.Tracer.row) ->
        let at_barrier = ref false and in_loop = ref false in
        Array.iter
          (function
            | Some pc when pc = Bitcount.barrier_address -> at_barrier := true
            | Some pc when pc >= 0x04 && pc <= 0x08 -> in_loop := true
            | Some _ | None -> ())
          r.pcs;
        !at_barrier && !in_loop)
      rows
  in
  if interesting = [] then
    Alcotest.fail "expected some cycles with mixed barrier/loop occupancy";
  (* In the cycle AFTER an FU has sat at the barrier, its sync signal
     reads DONE.  Check on consecutive row pairs. *)
  let rec pairs = function
    | (a : Ximd_core.Tracer.row) :: (b : Ximd_core.Tracer.row) :: rest ->
      Array.iteri
        (fun fu pc ->
          match pc with
          | Some pc when pc = Bitcount.barrier_address ->
            (match b.sss.(fu) with
             | Ximd_isa.Sync.Done -> ()
             | Ximd_isa.Sync.Busy ->
               Alcotest.failf "FU%d at barrier must read DONE next cycle" fu)
          | Some _ | None -> ())
        a.pcs;
      pairs (b :: rest)
    | [ _ ] | [] -> ()
  in
  pairs rows

let test_zero_heavy_data () =
  (* All-zero and all-ones elements exercise the 0-pass and 32-pass
     inner-loop extremes. *)
  let data =
    Array.map Int32.of_int
      [| 0; 0; 0; 0; 0; -1; -1; -1; -1; 0; 1; 0; 1 |]
  in
  match Workload.speedup (Bitcount.make ~data ()) with
  | Error msg -> Alcotest.fail msg
  | Ok (speedup, _, _) ->
    if speedup <= 1.0 then Alcotest.failf "expected speedup, got %f" speedup

(* D[0..n] lives at 0x200 and B at 0x400: from n = 512 on the two
   overlap, so the layout's largest array is n = 508. *)
let test_layout_bound () =
  let data n = Array.init (n + 1) (fun i -> Int32.of_int (i * 2654435761)) in
  (match Workload.run_checked (Bitcount.make ~data:(data 508) ()).ximd with
   | Ok _ -> ()
   | Error msg -> Alcotest.failf "n = 508: %s" msg);
  List.iter
    (fun n ->
      match Bitcount.make ~data:(data n) () with
      | _ -> Alcotest.failf "n = %d overlaps B and must be rejected" n
      | exception Invalid_argument _ -> ())
    [ 512; 516; 1024 ]

let suite =
  [ ( "bitcount",
      [ Alcotest.test_case "ximd checked" `Quick test_ximd_checked;
        Alcotest.test_case "vliw checked" `Quick test_vliw_checked;
        Alcotest.test_case "speedup >= 1.5" `Quick test_speedup;
        Alcotest.test_case "figure 11 control-flow structure" `Quick
          test_figure11_structure;
        Alcotest.test_case "barrier sync signals" `Quick
          test_barrier_sync_signals;
        Alcotest.test_case "zero/ones extremes" `Quick test_zero_heavy_data;
        Alcotest.test_case "layout bound n < 512" `Quick test_layout_bound ]
    ) ]
