(** ALSA-like sound core for the snd-* corpus: drivers create a card,
    install a [snd_pcm_ops] table in module memory, and the core drives
    playback by calling trigger/pointer through those slots while the
    module fills the DMA area with guarded stores. *)

val card_struct : string
val ops_struct : string
val layouts : Ktypes.strct list
(** This subsystem's struct layouts; every accessor takes its field
    offsets from them. *)

val define_layout : Ktypes.t -> unit
(** Register {!layouts} in a system's struct registry. *)

val trigger_start : int64
val trigger_stop : int64

type t = { kst : Kstate.t; mutable cards : int list; mutable periods_elapsed : int }

val create : Kstate.t -> t

val snd_card_create : t -> name:string -> dma_bytes:int -> int
(** Allocate a card and its DMA buffer; the [snd_card_caps] iterator on
    the export grants the caller WRITE on both plus the registration
    REF. *)

val card_size : int
(** [sizeof(struct snd_card)] *)

val snd_card_register : t -> int -> int64
val dma_area : t -> int -> int
val dma_bytes : t -> int -> int
val snd_pcm_period_elapsed : t -> int -> int64

val playback : t -> int -> polls:int -> int64
(** Userspace-side playback: open, start, poll the hardware pointer
    [polls] times, stop, close; returns the final position. *)
