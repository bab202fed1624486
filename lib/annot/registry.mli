(** Registry of annotated function-pointer slot types: a name such as
    ["proto_ops.ioctl"], its parameter names, and its parsed annotation
    with canonical hash.  Kernel indirect-call sites pass the slot-type
    name; the runtime resolves the expected hash and contract here. *)

type slot = {
  sl_name : string;
  sl_params : string list;
  sl_annot : Ast.t;
  sl_ahash : int64;
  sl_code : Compiled.t;  (** [sl_annot] compiled against [sl_params] *)
}

type t = { slots : (string, slot) Hashtbl.t }

val create : unit -> t

exception Unknown_slot of string

type error =
  | Duplicate of string  (** slot-type name already defined *)
  | Parse of { name : string; src : string; err : Parser.error }
      (** the [~annot_src] convenience form failed to parse *)
  | Invalid of { name : string; msg : string }
      (** parsed, but [Ast.validate] rejected it against the params *)

val error_to_string : error -> string
val pp_error : Format.formatter -> error -> unit

val ok_exn : ('a, error) result -> 'a
(** Unwrap, raising [Invalid_argument] with the rendered error — for
    boot-time registration code where a bad built-in annotation is a
    programming bug. *)

val define : t -> name:string -> params:string list -> annot:Ast.t -> (slot, error) result
(** Register an already-parsed annotation.  Still validates against
    [params] (unknown parameter names, [return] in pre clauses) so
    every slot in the registry is internally consistent. *)

val compile :
  params:string list -> string -> (Ast.t * int64 * Compiled.t, Parser.error) result
(** Parse an annotation source, hash it and compile it under [params].
    Memoized per process on [(params, source)], errors included: each
    distinct annotation is parsed, hashed and compiled once however
    many systems boot.  Does not validate against [params]. *)

val define_src :
  t -> name:string -> params:string list -> annot_src:string -> (slot, error) result
(** Convenience wrapper that parses [annot_src] first, through
    {!compile}; the duplicate-name check and validation still run on
    every call. *)

val define_exn : t -> name:string -> params:string list -> annot_src:string -> slot
(** [define_src] + [ok_exn]. *)

val find : t -> string -> slot
val find_opt : t -> string -> slot option
val mem : t -> string -> bool
val ahash : t -> string -> int64
val all : t -> slot list
(** Sorted by name. *)
