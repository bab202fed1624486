(** The holder index: for every capability cell, the registered
    principals whose table holds a capability there — a WRITE page slot
    ([Captable.slot_shift] granularity), the blanket ("big") WRITE
    ranges as one cell, a CALL target, a REF [(rtype, addr)].

    Holder lists are sorted by ascending principal id, without
    duplicates.  [Runtime] keeps the index equal to the tables
    ([Runtime.add_cap], [Runtime.revoke_from_all], [Runtime.clear_caps]);
    this module only stores it. *)

type t

val create : unit -> t

(** {1 WRITE} *)

val write_slot : t -> int -> Principal.t list
(** Holders of an entry in the given page slot. *)

val big : t -> Principal.t list
(** Holders of a blanket WRITE range. *)

val add_write : t -> Principal.t -> base:int -> size:int -> unit
(** List the principal under every cell the range [base, base+size)
    occupies in its table. *)

val prune_write : t -> Principal.t -> Captable.wentry -> unit
(** The principal just lost this entry: drop it from every cell the
    entry occupied in which its table now holds nothing. *)

(** {1 CALL and REF} *)

val call : t -> target:int -> Principal.t list
val add_call : t -> Principal.t -> target:int -> unit
val clear_call : t -> target:int -> unit
val ref_ : t -> rtype:string -> addr:int -> Principal.t list
val add_ref : t -> Principal.t -> rtype:string -> addr:int -> unit
val clear_ref : t -> rtype:string -> addr:int -> unit

(** {1 Whole principals} *)

val add_all : t -> Principal.t -> unit
(** List the principal under every cell its table occupies. *)

val remove_all : t -> Principal.t -> unit
(** Drop the principal from every cell its table occupies (call before
    the table is cleared). *)

(** {1 Inspection} *)

type cell = Wslot of int | Wbig | Call of int | Ref of string * int

val fold : t -> ('a -> cell -> Principal.t -> 'a) -> 'a -> 'a
(** Every (cell, holder) pair, in no particular order. *)
