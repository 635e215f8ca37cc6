open Ximd_isa
module B = Ximd_asm.Builder

let d_base = 0x200
let b_base = 0x400
let barrier_address = 0x10

(* The paper's Example 3, address for address. *)
let build_ximd () =
  let t = B.create ~n_fus:4 in
  let o name = B.reg_op t name and r name = B.reg t name in
  let k = r "k" and b = r "b" and a = r "a" and tt = r "t" in
  let bi = Array.init 4 (fun i -> r (Printf.sprintf "b%d" i)) in
  let di = Array.init 4 (fun i -> r (Printf.sprintf "d%d" i)) in
  let ti = Array.init 4 (fun i -> r (Printf.sprintf "t%d" i)) in
  let ok = o "k" and on = o "n" and ob = o "b" and oa = o "a" and ot = o "t" in
  let obi = Array.map B.rop bi and odi = Array.map B.rop di in
  let oti = Array.map B.rop ti in
  let dbase j = B.imm (d_base + j) and bbase j = B.imm (b_base + j) in
  let done_ = Sync.Done in
  (* 00: *)
  B.row t ~sync:done_
    [ B.d (B.le on (B.imm 8)); B.d (B.iadd (B.imm 1) (B.imm 0) k);
      B.d (B.iadd (B.imm 0) (B.imm 0) b); B.d (B.store (B.imm 0) (bbase 0)) ];
  (* 01: *)
  B.row t ~sync:done_ ~ctl:(B.if_cc 0 (B.lbl "l30") (B.lbl "l02")) [];
  (* 02: *)
  B.label t "l02";
  B.row t
    (List.init 4 (fun i -> B.d (B.iadd (B.imm 0) (B.imm 0) bi.(i))));
  (* 03: *)
  B.row t (List.init 4 (fun i -> B.d (B.load (dbase i) ok di.(i))));
  (* 04: *)
  B.label t "l04";
  B.row t (List.init 4 (fun i -> B.d (B.eq odi.(i) (B.imm 0))));
  (* 05: *)
  B.row t
    (List.init 4 (fun i ->
       B.sp
         ~ctl:(B.if_cc i (B.lbl "l10") (B.lbl "l06"))
         (B.and_ odi.(i) (B.imm 1) ti.(i))));
  (* 06: *)
  B.label t "l06";
  B.row t (List.init 4 (fun i -> B.d (B.eq (B.imm 0) oti.(i))));
  (* 07: *)
  B.row t
    (List.init 4 (fun i ->
       B.sp
         ~ctl:(B.if_cc i (B.lbl "l04") (B.lbl "l08"))
         (B.shr odi.(i) (B.imm 1) di.(i))));
  (* 08: *)
  B.label t "l08";
  B.row t ~ctl:(B.goto (B.lbl "l04"))
    (List.init 4 (fun i -> B.d (B.iadd obi.(i) (B.imm 1) bi.(i))));
  B.pad_to t barrier_address;
  (* 10: the barrier *)
  B.label t "l10";
  B.row t ~sync:done_ ~ctl:(B.if_all_ss t (B.lbl "l11") (B.lbl "l10")) [];
  (* 11: *)
  B.label t "l11";
  B.row t ~sync:done_
    [ B.d (B.iadd ob obi.(0) b); B.d B.nop; B.d (B.iadd ok (bbase 0) a) ];
  (* 12: *)
  B.row t ~sync:done_
    [ B.d (B.iadd ob obi.(1) b); B.d (B.store ob oa);
      B.d (B.iadd ok (bbase 1) a) ];
  (* 13: *)
  B.row t ~sync:done_
    [ B.d (B.iadd ob obi.(2) b); B.d (B.store ob oa);
      B.d (B.iadd ok (bbase 2) a); B.d (B.isub on ok tt) ];
  (* 14: *)
  B.row t ~sync:done_
    [ B.d (B.iadd ob obi.(3) b); B.d (B.store ob oa);
      B.d (B.iadd ok (bbase 3) a); B.d (B.lt ot (B.imm 4)) ];
  (* 15: *)
  B.row t ~sync:done_ ~ctl:(B.if_cc 3 (B.lbl "l30") (B.lbl "l02"))
    [ B.d (B.iadd ok (B.imm 4) k); B.d (B.store ob oa);
      B.d (B.iadd (B.imm 0) (B.imm 0) b) ];
  B.pad_to t 0x30;
  (* 30: clean-up — nothing remains when n ≡ 0 (mod 4) and n > 8 *)
  B.label t "l30";
  B.halt_row t;
  let n = r "n" in
  (B.build t, n)

(* VLIW coding: one element at a time; the single branch per cycle
   serialises the four inner loops the XIMD version runs concurrently. *)
let build_vliw () =
  let t = B.create ~n_fus:4 in
  let o name = B.reg_op t name and r name = B.reg t name in
  let k = r "k" and b = r "b" and i = r "i" and ai = r "ai" in
  let d = r "d" and tt = r "t" and ba = r "ba" and rem = r "rem" in
  let ok = o "k" and on = o "n" and ob = o "b" and oi = o "i" in
  let oai = o "ai" and od = o "d" and ot = o "t" and oba = o "ba" in
  let orem = o "rem" in
  B.row t
    [ B.d (B.iadd (B.imm 1) (B.imm 0) k);
      B.d (B.store (B.imm 0) (B.imm b_base)) ];
  B.label t "outer";
  B.row t
    [ B.d (B.iadd (B.imm 0) (B.imm 0) b);
      B.d (B.iadd (B.imm 0) (B.imm 0) i) ];
  B.label t "elem";
  B.row t [ B.d (B.iadd ok oi ai) ];
  B.row t [ B.d (B.load (B.imm d_base) oai d) ];
  B.label t "bitloop";
  B.row t [ B.d (B.eq od (B.imm 0)) ];
  B.row t ~ctl:(B.if_cc 0 (B.lbl "edone") (B.lbl "t2"))
    [ B.d (B.and_ od (B.imm 1) tt) ];
  B.label t "t2";
  B.row t [ B.d (B.eq ot (B.imm 0)); B.d (B.shr od (B.imm 1) d) ];
  B.row t ~ctl:(B.if_cc 0 (B.lbl "bitloop") (B.lbl "inc")) [];
  B.label t "inc";
  B.row t ~ctl:(B.goto (B.lbl "bitloop"))
    [ B.d (B.iadd ob (B.imm 1) b) ];
  B.label t "edone";
  B.row t [ B.d (B.iadd oai (B.imm b_base) ba); B.d (B.eq oi (B.imm 3)) ];
  B.row t ~ctl:(B.if_cc 1 (B.lbl "groupend") (B.lbl "nextelem"))
    [ B.d (B.store ob oba) ];
  B.label t "nextelem";
  B.row t ~ctl:(B.goto (B.lbl "elem")) [ B.d (B.iadd oi (B.imm 1) i) ];
  B.label t "groupend";
  B.row t
    [ B.d (B.iadd ok (B.imm 4) k); B.d (B.isub on ok rem) ];
  B.row t [ B.d (B.lt orem (B.imm 4)) ];
  B.row t ~ctl:(B.if_cc 0 (B.lbl "end") (B.lbl "outer")) [];
  B.label t "end";
  B.halt_row t;
  let n = r "n" in
  (B.build t, n)

let popcount x =
  let rec loop x acc =
    if Int32.equal x 0l then acc
    else
      loop
        (Int32.shift_right_logical x 1)
        (acc + Int32.to_int (Int32.logand x 1l))
  in
  loop x 0

let reference d =
  let n = Array.length d - 1 in
  let b = Array.make (n + 1) 0l in
  let k = ref 1 in
  (* Groups k = 1, 5, ..., n-3; row 15's exit test (n - k < 4) stops
     after the group whose base exceeds n - 4. *)
  while !k <= n - 3 do
    let prefix = ref 0 in
    for j = 0 to 3 do
      prefix := !prefix + popcount d.(!k + j);
      b.(!k + j) <- Int32.of_int !prefix
    done;
    k := !k + 4
  done;
  b

let default_data =
  Array.map Int32.of_int
    [| 0;  (* unused D[0] *)
       0b1011; 0; 0xFF; 1;
       0b1010101; 7; 0b1000000; 0;
       255; 1024; 0b1111011101; 3 |]

let check_result data (state : Ximd_core.State.t) =
  let n = Array.length data - 1 in
  let expected = reference data in
  let rec loop j =
    if j > n then Ok ()
    else
      let got = Ximd_core.State.mem_get state (b_base + j) in
      if Int32.equal (Value.to_int32 got) expected.(j) then loop (j + 1)
      else
        Error
          (Printf.sprintf "B[%d]: expected %ld, got %ld" j expected.(j)
             (Value.to_int32 got))
  in
  loop 0

let setup_data data rn (state : Ximd_core.State.t) =
  let n = Array.length data - 1 in
  Ximd_machine.Regfile.set state.regs rn (Value.of_int n);
  Array.iteri
    (fun i x -> Ximd_core.State.mem_set state (d_base + i) (Value.of_int32 x))
    data

let make ?(data = default_data) () =
  let n = Array.length data - 1 in
  if n <= 8 then
    invalid_arg "Bitcount.make: the paper's code requires n > 8";
  if n mod 4 <> 0 then
    invalid_arg "Bitcount.make: clean-up-free runs require n mod 4 = 0";
  if d_base + n >= b_base then
    invalid_arg "Bitcount.make: D[0..n] must end below B (n < 512)";
  let x_program, xn = build_ximd () in
  let v_program, vn = build_vliw () in
  let config = Ximd_core.Config.make ~n_fus:4 () in
  { Workload.name = "bitcount";
    description =
      "Example 3: four concurrent bit-count loops with an explicit barrier";
    ximd =
      { Workload.sim = Workload.Ximd; program = x_program; config;
        setup = setup_data data xn; check = check_result data };
    vliw =
      Some
        { Workload.sim = Workload.Vliw; program = v_program; config;
          setup = setup_data data vn; check = check_result data } }
