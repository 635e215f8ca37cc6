type target =
  | Addr of int
  | Fallthrough

type t =
  | Branch of { cond : Cond.t; t1 : target; t2 : target }
  | Halt

let goto a = Branch { cond = Cond.Always1; t1 = Addr a; t2 = Addr a }
let goto2 a = Branch { cond = Cond.Always2; t1 = Addr a; t2 = Addr a }
let br cond t1 t2 = Branch { cond; t1 = Addr t1; t2 = Addr t2 }
let next = Branch { cond = Cond.Always1; t1 = Fallthrough; t2 = Fallthrough }
let halt = Halt

let target_addr ~pc = function
  | Addr a -> a
  | Fallthrough -> pc + 1

let next_pc t ~pc ~taken =
  match t with
  | Halt -> invalid_arg "Control.next_pc: halt"
  | Branch { t1; t2; cond = _ } -> target_addr ~pc (if taken then t1 else t2)

let resolve t ~pc ~taken =
  match t with
  | Halt -> None
  | Branch _ -> Some (next_pc t ~pc ~taken)

let target_equal a b =
  match a, b with
  | Addr x, Addr y -> Int.equal x y
  | Fallthrough, Fallthrough -> true
  | Addr _, Fallthrough | Fallthrough, Addr _ -> false

let normalised_signature t ~pc =
  match t with
  | Halt -> Halt
  | Branch { cond; t1; t2 } ->
    let t1 = Addr (target_addr ~pc t1) and t2 = Addr (target_addr ~pc t2) in
    if target_equal t1 t2 then Branch { cond = Cond.Always1; t1; t2 = t1 }
    else begin
      match cond with
      | Cond.Always1 -> Branch { cond = Cond.Always1; t1; t2 = t1 }
      | Cond.Always2 -> Branch { cond = Cond.Always1; t1 = t2; t2 }
      | Cond.Cc _ | Cond.Ss _ | Cond.All_ss _ | Cond.Any_ss _ ->
        Branch { cond; t1; t2 }
    end

let targets = function
  | Halt -> []
  | Branch { t1; t2; cond = _ } -> [ t1; t2 ]

let equal a b =
  match a, b with
  | Halt, Halt -> true
  | Branch a, Branch b ->
    Cond.equal a.cond b.cond && target_equal a.t1 b.t1
    && target_equal a.t2 b.t2
  | Halt, Branch _ | Branch _, Halt -> false

let pp_target fmt = function
  | Addr a -> Format.fprintf fmt "%02x:" a
  | Fallthrough -> Format.pp_print_string fmt "+1"

let pp fmt = function
  | Halt -> Format.pp_print_string fmt "halt"
  | Branch { cond = Cond.Always1; t1; t2 } when target_equal t1 t2 ->
    Format.fprintf fmt "-> %a" pp_target t1
  | Branch { cond = Cond.Always2; t1 = _; t2 } ->
    Format.fprintf fmt "->2 %a" pp_target t2
  | Branch { cond; t1; t2 } ->
    Format.fprintf fmt "if %a %a | %a" Cond.pp cond pp_target t1 pp_target t2

let to_string t = Format.asprintf "%a" pp t
