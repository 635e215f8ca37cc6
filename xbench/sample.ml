(* Growable float sample buffers and order statistics. *)

type t = { mutable data : float array; mutable len : int }

let create ?(capacity = 1024) () =
  { data = Array.make (max 1 capacity) 0.0; len = 0 }

let add t x =
  if t.len = Array.length t.data then begin
    let bigger = Array.make (2 * t.len) 0.0 in
    Array.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  t.data.(t.len) <- x;
  t.len <- t.len + 1

let length t = t.len
let clear t = t.len <- 0
let to_array t = Array.sub t.data 0 t.len

let sum t =
  let s = ref 0.0 in
  for i = 0 to t.len - 1 do
    s := !s +. t.data.(i)
  done;
  !s

let mean t = if t.len = 0 then 0.0 else sum t /. float_of_int t.len

(* Linear interpolation between closest ranks on the sorted sample
   (q in [0,1]); 0 on an empty sample. *)
let quantile_sorted sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = truncate pos in
    let hi = min (n - 1) (lo + 1) in
    let frac = pos -. float_of_int lo in
    sorted.(lo) +. (frac *. (sorted.(hi) -. sorted.(lo)))

let sorted t =
  let a = to_array t in
  Array.sort Float.compare a;
  a

let quantile t q = quantile_sorted (sorted t) q
let median t = quantile t 0.5
