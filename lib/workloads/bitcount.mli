(** BITCOUNT1 — the paper's Example 3 ("Explicit Barrier
    Synchronization") and Figure 11 (its control flow).

    The program scans an array [D[1..n]] of unsigned integers; each
    outer iteration processes a group of four elements, running four
    independent bit-counting inner loops — one per functional unit.
    Because each inner loop's trip count is data-dependent (0 to 32
    passes), the threads finish at different times and synchronise with
    an explicit all-FU barrier ([if ∏dn 11:|10:] with SS_i = DONE) before
    a software-pipelined sequence of dependent stores writes prefix
    counts into [B[]].

    Semantics, exactly as the paper's listing computes them: [B[0] = 0]
    and, within the group starting at [k], [B[k+j]] receives the number
    of one-bits in [D[k .. k+j]] (the accumulator [b] is cleared at row
    15 of every outer iteration, so prefixes reset per group).

    Constraints inherited from the listing: [n > 8] (rows 00:–01: bail
    to the clean-up code for short arrays, which here only has to halt)
    and [n ≡ 0 (mod 4)] (so the clean-up path has no residual elements).
    The transcription is address-for-address: rows 00:–08:, the barrier
    at 10:, the join code at 11:–15:, and clean-up at 30:. *)

val d_base : int
(** Address of D[0]; D[i] lives at [d_base + i]. *)

val b_base : int
(** Address of B[0]. *)

val barrier_address : int
(** 0x10 — where the threads busy-wait. *)

val reference : int32 array -> int32 array
(** [reference d] (with [d.(0)] unused, elements in [d.(1..n)]) returns
    the expected [B[0..n]]. *)

val make : ?data:int32 array -> unit -> Workload.t
(** [data.(0)] is ignored; elements are [data.(1 .. length-1)].
    Default: a fixed 12-element mix of sparse, dense, zero and
    all-ones words.
    @raise Invalid_argument unless [n > 8], [n ≡ 0 (mod 4)] and
    [n < 512] (D[0..n] must end below {!b_base}: from [n = 512] on, the
    B stores overwrite unread elements of D). *)
