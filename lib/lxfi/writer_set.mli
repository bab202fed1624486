(** Writer-set tracking (paper §4.1, §5) — the fast path that lets the
    kernel skip the capability check on indirect calls through memory
    no module principal could have written.

    A two-level bitmap at 64-byte-line granularity: a table from 2 KB
    chunks to a 32-bit mask of their lines.  A line is marked when any
    principal is granted a WRITE capability covering it, and the mark
    is sticky: revoking the capability does not clear it.  False
    positives (marked but never written) cost one unnecessary check;
    false negatives cannot arise from module stores, because a store
    needs a WRITE capability and the grant marks first. *)

type t

val line_shift : int
(** log2 of the tracking granularity (6 = 64-byte lines). *)

val create : unit -> t

val mark_range : t -> base:int -> size:int -> unit
(** Mark every line intersecting [base, base+size); no-op for
    [size <= 0].  Costs one table update per 2 KB chunk touched. *)

val maybe_written : t -> int -> bool
(** Could any module principal have written the word at this address?
    [false] means the indirect-call check may be skipped.  One table
    probe; never allocates or raises. *)

val clear_range : t -> base:int -> size:int -> unit
(** Unmark every line intersecting [base, base+size).  The runtime
    never calls it — marks are sticky — but tests use it to exercise
    the bitmap. *)

val marked_lines : t -> int

val fold_lines : t -> ('a -> int -> 'a) -> 'a -> 'a
(** Fold over every marked line index (table order; callers that need
    a stable order must sort). *)
