(* Compile-time observability (Schedobs): goldens, trace transparency,
   conservation, and bound soundness. *)

open Ximd_isa
module C = Ximd_compiler
module Json = Ximd_obs.Json
module Gen = QCheck2.Gen

let to_alcotest = QCheck_alcotest.to_alcotest
let read_file path = In_channel.with_open_text path In_channel.input_all

let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)

let dot_source () = read_file "../examples/xc/dot.xc"

let compile_observed ?(width = 4) source =
  let obs = C.Schedobs.create ~clock:(fun () -> 0.0) () in
  match C.Lang.compile ~width ~obs source with
  | Ok compiled -> (obs, compiled)
  | Error es -> Alcotest.failf "compile failed: %s" (String.concat "; " es)

(* --- Goldens ------------------------------------------------------------ *)

(* The CLI writes [to_json t ^ "\n"]; the golden must match the library
   byte for byte so `xcc --sched-json` output is pinned. *)
let test_dot_sched_golden () =
  let obs, _ = compile_observed (dot_source ()) in
  let json = C.Schedobs.to_json obs in
  (match Tobs.validate_json json with
   | () -> ()
   | exception Tobs.Bad_json msg -> Alcotest.failf "invalid JSON: %s" msg);
  if not (Tobs.contains_substring json "\"schema\":\"ximd-sched/1\"") then
    Alcotest.fail "missing schema tag";
  check_str "sched golden" (read_file "goldens/dot.sched.json") (json ^ "\n")

let test_dot_explain_golden () =
  let obs, _ = compile_observed (dot_source ()) in
  let explain = Format.asprintf "%a@." C.Schedobs.pp_explain obs in
  check_str "explain golden" (read_file "goldens/dot.explain.txt") explain

(* The logical artifacts must not depend on the clock: two collectors
   with wildly different clocks emit identical JSON and explain text. *)
let test_logical_artifacts_clock_free () =
  let source = dot_source () in
  let slow = ref 0.0 in
  let obs1 = C.Schedobs.create ~clock:(fun () -> slow := !slow +. 17.3; !slow) () in
  let obs2 = C.Schedobs.create ~clock:(fun () -> 0.0) () in
  (match C.Lang.compile ~width:4 ~obs:obs1 source with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "compile 1");
  (match C.Lang.compile ~width:4 ~obs:obs2 source with
   | Ok _ -> ()
   | Error _ -> Alcotest.fail "compile 2");
  check_str "json clock-free" (C.Schedobs.to_json obs2)
    (C.Schedobs.to_json obs1);
  check_str "explain clock-free"
    (Format.asprintf "%a" C.Schedobs.pp_explain obs2)
    (Format.asprintf "%a" C.Schedobs.pp_explain obs1)

(* --- Loop detection and report shape ------------------------------------ *)

let test_dot_loop_report () =
  let obs, _ = compile_observed (dot_source ()) in
  match C.Schedobs.loops obs with
  | [ l ] ->
    check_str "loop label" "dot/body_1" l.C.Schedobs.l_label;
    check_int "loop ii" 3 l.C.Schedobs.l_ii;
    check_int "res mii" 3 l.C.Schedobs.l_bounds.C.Schedobs.res_mii;
    check_int "rec mii" 2 l.C.Schedobs.l_bounds.C.Schedobs.rec_mii;
    (match l.C.Schedobs.l_binding with
     | C.Schedobs.Resource_bound -> ()
     | b -> Alcotest.failf "binding %s" (C.Schedobs.binding_name b));
    (match l.C.Schedobs.l_attempts with
     | [] -> Alcotest.fail "no attempts"
     | attempts -> (
       match List.rev attempts with
       | last :: _ ->
         check_int "last attempt is the achieved II" l.C.Schedobs.l_ii
           last.C.Schedobs.a_ii;
         (match last.C.Schedobs.a_outcome with
          | C.Schedobs.Placed -> ()
          | _ -> Alcotest.fail "last attempt not placed")
       | [] -> assert false))
  | ls -> Alcotest.failf "expected 1 loop report, got %d" (List.length ls)

let test_loop_bodies_detector () =
  let func =
    match C.Lang.parse (dot_source ()) with
    | Ok f -> f
    | Error _ -> Alcotest.fail "parse"
  in
  Alcotest.(check (list string))
    "detected loop bodies" [ "body_1" ]
    (List.map (fun (b : C.Ir.block) -> b.label) (C.Codegen.loop_bodies func))

(* --- Placement provenance ---------------------------------------------- *)

let test_block_provenance () =
  (* op1 depends on op0 (flow); three independent ops compete for the
     two remaining slots, so one of them is resource-delayed. *)
  let ops =
    [| Ir_helpers.bin Opcode.Iadd 0 1 2;
       Ir_helpers.bin Opcode.Iadd 2 1 3;
       Ir_helpers.bin Opcode.Iadd 10 11 12;
       Ir_helpers.bin Opcode.Iadd 10 11 13;
       Ir_helpers.bin Opcode.Iadd 10 11 14 |]
  in
  let sched = C.Listsched.schedule ~width:2 ops in
  let obs = C.Schedobs.create ~clock:(fun () -> 0.0) () in
  C.Schedobs.record_block obs ~label:"b" ~width:2 ~ops sched;
  match C.Schedobs.blocks obs with
  | [ b ] ->
    let placement i = List.nth b.C.Schedobs.b_placements i in
    (* row 0 ops are Free. *)
    List.iter
      (fun (p : C.Schedobs.placement) ->
        if p.row = 0 then
          match p.why with
          | C.Schedobs.Free -> ()
          | _ -> Alcotest.failf "op %d in row 0 is not free" p.op)
      b.C.Schedobs.b_placements;
    (* op 1 is pinned by its flow edge from op 0. *)
    (match (placement 1).why with
     | C.Schedobs.Dep { pred = 0; kind = C.Ddg.Flow; latency = 1 } -> ()
     | _ -> Alcotest.fail "op 1 should be dep-bound on op 0");
    (* Dep rows are consistent: pred row + latency = row. *)
    List.iter
      (fun (p : C.Schedobs.placement) ->
        match p.why with
        | C.Schedobs.Dep { pred; latency; _ } ->
          check_int
            (Printf.sprintf "op %d dep row" p.op)
            p.row
            ((placement pred).row + latency)
        | C.Schedobs.Resource { ready; delayed } ->
          check_int (Printf.sprintf "op %d resource row" p.op) p.row
            (ready + delayed)
        | C.Schedobs.Free -> ())
      b.C.Schedobs.b_placements;
    (* Some independent op was resource-delayed at width 2. *)
    if
      not
        (List.exists
           (fun (p : C.Schedobs.placement) ->
             match p.why with C.Schedobs.Resource _ -> true | _ -> false)
           b.C.Schedobs.b_placements)
    then Alcotest.fail "expected a resource-delayed op"
  | bs -> Alcotest.failf "expected 1 block report, got %d" (List.length bs)

(* --- Packing rationale --------------------------------------------------- *)

let test_pack_rationale () =
  let obs = C.Schedobs.create ~clock:(fun () -> 0.0) () in
  let tile = Tprops.tile in
  let choices =
    [ ("alpha", [ tile "alpha" 2 4; tile "alpha" 4 2 ]);
      ("beta", [ tile "beta" 2 3 ]);
      ("gamma", [ tile "gamma" 2 2 ]) ]
  in
  (match C.Packing.pack_density ~n_fus:4 ~obs choices with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "pack_density: %s" e);
  (match
     C.Packing.pack_time ~n_fus:4 ~obs
       ~deps:[ ("alpha", "beta"); ("beta", "gamma") ]
       choices
   with
   | Ok _ -> ()
   | Error e -> Alcotest.failf "pack_time: %s" e);
  match C.Schedobs.packs obs with
  | [ density; time ] ->
    check_str "density objective" "density" density.C.Schedobs.k_objective;
    check_str "time objective" "time" time.C.Schedobs.k_objective;
    Alcotest.(check bool) "density exhaustive" true density.C.Schedobs.k_exhaustive;
    check_int "density placements" 3
      (List.length density.C.Schedobs.k_placements);
    List.iter
      (fun (p : C.Schedobs.pack_placement) ->
        if not (List.mem p.p_bound [ "free"; "skyline" ]) then
          Alcotest.failf "density bound %s" p.p_bound)
      density.C.Schedobs.k_placements;
    (* The dependence chain binds beta to alpha and gamma to beta. *)
    List.iter
      (fun (p : C.Schedobs.pack_placement) ->
        match p.p_thread with
        | "beta" -> check_str "beta bound" "dep:alpha" p.p_bound
        | "gamma" -> check_str "gamma bound" "dep:beta" p.p_bound
        | _ -> check_str "alpha bound" "free" p.p_bound)
      time.C.Schedobs.k_placements;
    (* The rationale is part of the JSON export. *)
    let json = C.Schedobs.to_json obs in
    if not (Tobs.contains_substring json "\"objective\":\"density\"") then
      Alcotest.fail "packs missing from JSON"
  | ps -> Alcotest.failf "expected 2 pack reports, got %d" (List.length ps)

(* --- Conservation: sum(occupied + empty) = II x n_fus per loop ---------- *)

let json_int path j =
  match Json.to_int j with
  | Some v -> v
  | None -> Alcotest.failf "%s: not an int" path

let json_member path name j =
  match Json.member name j with
  | Some v -> v
  | None -> Alcotest.failf "%s: missing %s" path name

let check_loop_conservation path loop =
  let ii = json_int path (json_member path "ii" loop) in
  let width = json_int path (json_member path "width" loop) in
  let kernel =
    match json_member path "kernel" loop with
    | Json.List rows -> rows
    | _ -> Alcotest.failf "%s: kernel not a list" path
  in
  check_int (path ^ " kernel rows") ii (List.length kernel);
  let occupied, empty =
    List.fold_left
      (fun (o, e) row ->
        let ops =
          match json_member path "ops" row with
          | Json.List l -> List.length l
          | _ -> Alcotest.failf "%s: row ops not a list" path
        in
        let row_empty = json_int path (json_member path "empty" row) in
        check_int (path ^ " row slots") width (ops + row_empty);
        (o + ops, e + row_empty))
      (0, 0) kernel
  in
  check_int (path ^ " conservation") (ii * width) (occupied + empty);
  let slots = json_member path "slots" loop in
  check_int (path ^ " slots.occupied") occupied
    (json_int path (json_member path "occupied" slots));
  check_int (path ^ " slots.empty") empty
    (json_int path (json_member path "empty" slots));
  check_int (path ^ " slots.total") (ii * width)
    (json_int path (json_member path "total" slots))

let loops_of_json json =
  match Json.parse json with
  | Error e -> Alcotest.failf "parse sched json: %s" e
  | Ok doc -> (
    match Json.member "loops" doc with
    | Some (Json.List loops) -> loops
    | _ -> Alcotest.fail "no loops array")

let test_dot_conservation () =
  let obs, _ = compile_observed (dot_source ()) in
  let loops = loops_of_json (C.Schedobs.to_json obs) in
  check_int "dot loops" 1 (List.length loops);
  List.iter (check_loop_conservation "dot") loops

let prop_conservation =
  QCheck2.Test.make ~count:150
    ~name:"sched JSON conserves slots: sum(occupied+empty) = II x n_fus"
    (Gen.pair Tprops.gen_ops (Gen.int_range 1 8))
    (fun (ops, width) ->
      let obs = C.Schedobs.create ~clock:(fun () -> 0.0) () in
      match C.Pipeliner.schedule ~obs ~label:"prop" ~width ops with
      | Error _ -> true
      | Ok _ ->
        let loops = loops_of_json (C.Schedobs.to_json obs) in
        List.length loops = 1
        &&
        (List.iter (check_loop_conservation "prop") loops;
         true))

(* --- Bound soundness ----------------------------------------------------- *)

let prop_bounds_sound =
  QCheck2.Test.make ~count:200
    ~name:"achieved II >= RecMII and ResMII; circuit ratio = RecMII"
    (Gen.pair Tprops.gen_ops (Gen.int_range 1 8))
    (fun (ops, width) ->
      match C.Pipeliner.schedule ~width ops with
      | Error _ -> false
      | Ok s ->
        let b = C.Pipeliner.bounds ~width ops in
        s.ii >= s.rec_mii && s.ii >= s.res_mii && s.rec_mii >= 1
        && b.C.Schedobs.rec_mii = s.rec_mii
        && b.C.Schedobs.res_mii = s.res_mii
        &&
        (match b.C.Schedobs.circuit with
         | None -> b.C.Schedobs.rec_mii = 1
         | Some c ->
           c.C.Schedobs.c_distance >= 1
           && (c.C.Schedobs.c_latency + c.C.Schedobs.c_distance - 1)
                / c.C.Schedobs.c_distance
              = b.C.Schedobs.rec_mii))

(* --- Trace transparency over random lang programs ----------------------- *)

(* Random source programs: expressions over a fixed variable pool (some
   used before assignment, so some programs legitimately fail to
   compile — transparency must hold for errors too). *)
let gen_source =
  let open Gen in
  let var = oneofl [ "a"; "b"; "i"; "t" ] in
  let rec expr n =
    if n <= 0 then
      oneof [ map string_of_int (int_bound 99); var ]
    else
      oneof
        [ map string_of_int (int_bound 99);
          var;
          map2 (fun a b -> "(" ^ a ^ " + " ^ b ^ ")") (expr (n - 1)) (expr (n - 1));
          map2 (fun a b -> "(" ^ a ^ " * " ^ b ^ ")") (expr (n - 1)) (expr (n - 1));
          map2 (fun a b -> "(" ^ a ^ " - " ^ b ^ ")") (expr (n - 1)) (expr (n - 1));
          map (fun a -> "mem[(400 + " ^ a ^ ")]") (expr (n - 1)) ]
  in
  let cmp = oneofl [ "<"; "<="; ">"; ">="; "=="; "!=" ] in
  let rec stmt depth =
    let assign =
      map2 (fun v e -> v ^ " = " ^ e ^ ";") var (expr 2)
    in
    let store =
      map2 (fun a e -> "mem[" ^ a ^ "] = " ^ e ^ ";") (expr 1) (expr 2)
    in
    if depth <= 0 then oneof [ assign; store ]
    else
      oneof
        [ assign; store;
          (let* c = cmp and* l = expr 1 and* r = expr 1
           and* body = stmts (depth - 1)
           and* els = stmts (depth - 1) in
           return
             ("if (" ^ l ^ " " ^ c ^ " " ^ r ^ ") { " ^ body ^ " } else { "
              ^ els ^ " }"));
          (let* v = var and* r = expr 1 and* body = stmts (depth - 1) in
           return ("while (" ^ v ^ " < " ^ r ^ ") { " ^ body ^ " }")) ]
  and stmts depth =
    let* n = int_range 1 3 in
    let* ss = list_repeat n (stmt depth) in
    return (String.concat " " ss)
  in
  let* body = stmts 2 in
  let* ret = oneofl [ "return a;"; "return a, b;"; "return (a + b);" ] in
  return ("func f(a, b) { " ^ body ^ " " ^ ret ^ " }")

let render_compile = function
  | Ok (c : C.Codegen.compiled) ->
    Printf.sprintf "ok params=%d results=%d rows=%d regs=%d\n%s"
      (List.length c.param_regs)
      (List.length c.result_regs)
      c.static_rows c.used_regs
      (Ximd_asm.Source.to_source c.program)
  | Error es -> "error\n" ^ String.concat "\n" es

let prop_trace_transparent =
  QCheck2.Test.make ~count:120
    ~name:"tracing is transparent: identical generated code on/off"
    (Gen.pair gen_source (Gen.int_range 1 8))
    (fun (source, width) ->
      let off = C.Lang.compile ~width source in
      let obs = C.Schedobs.create ~clock:(fun () -> 0.0) () in
      let on = C.Lang.compile ~width ~obs source in
      String.equal (render_compile off) (render_compile on))

(* ------------------------------------------------------------------ *)

let suite =
  [ ( "schedobs",
      [ Alcotest.test_case "dot sched golden" `Quick test_dot_sched_golden;
        Alcotest.test_case "dot explain golden" `Quick
          test_dot_explain_golden;
        Alcotest.test_case "logical artifacts are clock-free" `Quick
          test_logical_artifacts_clock_free;
        Alcotest.test_case "dot loop report" `Quick test_dot_loop_report;
        Alcotest.test_case "loop-body detector" `Quick
          test_loop_bodies_detector;
        Alcotest.test_case "block placement provenance" `Quick
          test_block_provenance;
        Alcotest.test_case "packing rationale" `Quick test_pack_rationale;
        Alcotest.test_case "dot kernel conservation" `Quick
          test_dot_conservation;
        to_alcotest prop_conservation;
        to_alcotest prop_bounds_sound;
        to_alcotest prop_trace_transparent ] ) ]
