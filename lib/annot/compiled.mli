(** An annotation compiled against its parameter list at registration:
    parameter names resolved to argument indices, pre, post and
    principal clauses split out — the form the runtime wrappers
    evaluate on every crossing.  Extra call arguments are ignored; an
    index past the end of the arguments is a missing argument. *)

type expr =
  | Int of int64
  | Arg of int  (** the call's argument at this position *)
  | Unknown_param of string
      (** a name not among the parameters (only reachable through a
          slot record built without {!Ast.validate}); fails when
          evaluated *)
  | Return
  | Bin of Ast.binop * expr * expr
  | Neg of expr
  | Sizeof of string

type caplist = Inline of Ast.captype * expr * expr option | Iter of string * expr list

type action =
  | Copy of caplist
  | Transfer of caplist
  | Check of caplist
  | If of expr * action

type principal = Pglobal | Pshared | Pexpr of expr

type t = {
  pre : action list;  (** [pre] clauses, in order *)
  post : action list;  (** [post] clauses, in order *)
  principal : principal option;  (** the first [principal] clause *)
}

val compile : params:string list -> Ast.t -> t
