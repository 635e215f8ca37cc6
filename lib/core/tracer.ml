open Ximd_isa

type row = {
  cycle : int;
  pcs : int option array;
  ccs : bool option array;
  sss : Sync.t array;
  partition : Partition.t;
}

type t = {
  mutable rows : row list; (* reverse order, at most [limit] long *)
  mutable n : int; (* rows currently held *)
  mutable dropped : int;
  limit : int; (* max_int = unbounded *)
}

let create ?limit () =
  let limit =
    match limit with
    | None -> max_int
    | Some l ->
      if l < 1 then invalid_arg "Tracer.create: limit must be positive";
      l
  in
  { rows = []; n = 0; dropped = 0; limit }

(* Bounded tracers keep the newest [limit] rows: the tail of a wedged or
   budget-busted run is the diagnostic part.  Dropping the oldest row is
   O(n) list surgery, but it only triggers past the limit — the
   unbounded default never pays it. *)
let rec drop_last = function
  | [] | [ _ ] -> []
  | r :: rest -> r :: drop_last rest

let record t row =
  if t.n = t.limit then begin
    t.rows <- drop_last t.rows;
    t.n <- t.n - 1;
    t.dropped <- t.dropped + 1
  end;
  t.rows <- row :: t.rows;
  t.n <- t.n + 1

let rows t = List.rev t.rows
let length t = t.n
let dropped t = t.dropped

let snapshot (state : State.t) =
  let n = State.n_fus state in
  { cycle = state.cycle;
    pcs =
      Array.init n (fun i ->
        if state.halted.(i) then None else Some state.pcs.(i));
    ccs = Array.copy state.ccs;
    sss = Array.copy state.sss;
    partition = State.partition state }

let cc_string ccs =
  String.concat ""
    (Array.to_list
       (Array.map
          (function Some true -> "T" | Some false -> "F" | None -> "X")
          ccs))

let pc_string = function
  | Some pc -> Printf.sprintf "%02x:" pc
  | None -> " - "

let pp_row fmt row =
  Format.fprintf fmt "Cycle %-3d" row.cycle;
  Array.iter (fun pc -> Format.fprintf fmt "  %s" (pc_string pc)) row.pcs;
  Format.fprintf fmt "  %s  %s" (cc_string row.ccs)
    (Partition.to_string row.partition)

let pp_figure10 ?(comments = []) fmt t =
  let rows = rows t in
  let n =
    match rows with [] -> 0 | row :: _ -> Array.length row.pcs
  in
  Format.pp_open_vbox fmt 0;
  Format.fprintf fmt "%-9s" "Cycle";
  for i = 0 to n - 1 do
    Format.fprintf fmt "  FU%-2d" i
  done;
  Format.fprintf fmt "  %-8s  %-20s  %s@," "CondCode" "Partition" "Comment";
  List.iter
    (fun row ->
      Format.fprintf fmt "Cycle %-3d" row.cycle;
      Array.iter (fun pc -> Format.fprintf fmt "  %s " (pc_string pc)) row.pcs;
      let comment =
        match List.assoc_opt row.cycle comments with
        | Some c -> c
        | None -> ""
      in
      Format.fprintf fmt "  %-8s  %-20s  %s@," (cc_string row.ccs)
        (Partition.to_string row.partition)
        comment)
    rows;
  Format.pp_close_box fmt ()
