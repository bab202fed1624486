(** Struct-layout registry for the simulated kernel: sizes, field
    offsets, and which fields are typed function-pointer slots (the
    anchor of annotation propagation and indirect-call hash checks). *)

type field_kind =
  | Scalar
  | Pointer
  | Funcptr of string
      (** names the slot type registered in [Annot.Registry], e.g.
          ["net_device_ops.ndo_start_xmit"] *)

type field = { f_name : string; f_offset : int; f_size : int; f_kind : field_kind }
type strct = { s_name : string; s_size : int; s_fields : field list }
type t = { structs : (string, strct) Hashtbl.t }

val create : unit -> t

exception Unknown_struct of string
exception Unknown_field of string * string

val layout : string -> (string * int * field_kind) list -> strct
(** Compute a struct layout without registering it: fields in order,
    natural alignment, size rounded up to 8.  Pure, so a subsystem
    declares its layout once as a module-level value and reads offsets
    from it instead of looking them up by name on every access. *)

val register : t -> strct -> unit
(** Add a computed layout to the registry.  Raises [Invalid_argument]
    on duplicates. *)

val define : t -> string -> (string * int * field_kind) list -> strct
(** [register] of [layout]; returns the layout. *)

val offset_of : strct -> string -> int
(** Byte offset of a field in a layout value.  Raises {!Unknown_field}. *)

val find : t -> string -> strct
val mem : t -> string -> bool
val sizeof : t -> string -> int
val field : t -> string -> string -> field
val offset : t -> string -> string -> int

val funcptr_fields : t -> string -> (field * string) list
(** All function-pointer fields, with their slot-type names. *)

val funcptr_slot : t -> string -> int -> string option
(** Slot-type name of the function pointer at a byte offset, if that
    field is one. *)

val all : t -> strct list
val pp_struct : Format.formatter -> strct -> unit
