(** Simulated [struct sk_buff] — the network packet: a struct with an
    interior pointer to a separately-allocated payload, whose
    capability set is expressed by the [skb_caps] iterator (paper
    Figure 4). *)

val struct_name : string

val layout : Ktypes.strct
(** The sk_buff layout; every accessor below takes its offsets from it. *)

val define_layout : Ktypes.t -> unit
(** Register {!layout} in a system's struct registry. *)

val size : int

val build : Kstate.t -> int -> int -> int
(** [build kst buf len] — an sk_buff around an existing payload buffer
    (head = data = [buf]); returns the struct address. *)

val alloc : Kstate.t -> int -> int
(** Allocate an sk_buff with a payload buffer of the given length;
    returns the struct address. *)

val data : Kstate.t -> int -> int
val len : Kstate.t -> int -> int
val set_len : Kstate.t -> int -> int -> unit
val dev : Kstate.t -> int -> int
val set_dev : Kstate.t -> int -> int -> unit
val set_data : Kstate.t -> int -> int -> unit

val free : Kstate.t -> int -> unit
(** Free the struct and (if live) its payload buffer. *)
