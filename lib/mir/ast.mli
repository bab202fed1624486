(** MIR — the module intermediate representation: the program form the
    LXFI rewriter instruments and the interpreter executes, standing in
    for the compiler IR the paper's clang plugin rewrites (§4.2).

    Deliberately C-like where it matters: arithmetic wraps at a
    declared width (the CAN BCM overflow is expressible verbatim),
    locals are registers but [Alloca] carves addressable stack buffers
    (the target of safe-store elision), function pointers are plain
    integers module code stores into corruptible memory, and calls are
    direct (intra-module), external (imported kernel functions, forced
    through annotated wrappers) or indirect (guarded). *)

type width = W8 | W16 | W32 | W64

val bytes_of_width : width -> int

type binop =
  | Add
  | Sub
  | Mul
  | Udiv  (** unsigned; division by zero is a kernel oops *)
  | Urem
  | Band
  | Bor
  | Bxor
  | Shl
  | Lshr  (** logical shift right *)
  | Eq
  | Ne
  | Lt  (** signed comparison *)
  | Le
  | Gt
  | Ge
  | Ult  (** unsigned < *)

type callee =
  | Direct of string  (** function in the same module *)
  | Ext of string  (** imported kernel function (wrapper-routed) *)
  | Indirect of expr  (** through a computed address (guarded) *)

and expr =
  | Const of int64
  | Var of string
  | Glob of string  (** address of a module global *)
  | Funcaddr of string  (** address of a module function *)
  | Extaddr of string  (** address of an import's wrapper *)
  | Load of width * expr
  | Binop of binop * width * expr * expr
  | Call of callee * expr list

type guard =
  | Gwrite of width * expr  (** write-capability check (rewriter-inserted) *)
  | Gindcall of expr  (** call-capability check (rewriter-inserted) *)

type stmt =
  | Let of string * expr  (** bind or rebind a local *)
  | Alloca of string * int  (** bind local to a fresh stack buffer *)
  | Store of width * expr * expr  (** [Store (w, addr, value)] *)
  | If of expr * stmt list * stmt list
  | While of expr * stmt list
  | Expr of expr
  | Return of expr
  | Guard of guard

type func = {
  fname : string;
  params : string list;
  body : stmt list;
  export : string option;
      (** slot-type name when this function may be installed in a
          kernel-visible function-pointer slot (annotation propagation,
          §4.2) *)
}

type ginit =
  | Iword of int * width * int64  (** offset, width, value *)
  | Ifunc of int * string  (** offset, module function (fp initialiser) *)
  | Iext of int * string  (** offset, imported symbol's address *)

type section = Data | Rodata | Bss

type glob = {
  gname : string;
  gsize : int;
  gsection : section;
  ginit : ginit list;
  gstruct : string option;
      (** kernel struct this global instantiates, if any — lets the
          loader find its typed function-pointer slots *)
}

type prog = {
  pname : string;
  funcs : func list;
  globals : glob list;
  imports : string list;
}

val find_func : prog -> string -> func option
val find_global : prog -> string -> glob option

(** {1 Walking MIR}

    Analyses that collect facts or rewrite leaves use this fold and
    map; those with their own evaluation order or control flow keep
    their own recursion (DESIGN.md, "Walking MIR"). *)

val fold_expr : ('a -> expr -> 'a) -> 'a -> expr -> 'a
(** Visits every node once, pre-order, left to right: a node before
    its operands, an indirect call's target before its arguments. *)

val fold_stmts : ?stmt:('a -> stmt -> 'a) -> ('a -> expr -> 'a) -> 'a -> stmt list -> 'a
(** Calls [stmt] on each statement, nested ones included, before
    folding over its expressions (guard operands too) and nested
    statements, in source order. *)

val map_expr : (expr -> expr) -> expr -> expr
(** Bottom-up: [f] sees each node with its operands already mapped,
    and its result is not walked again.  The order of [f]'s calls
    among siblings is unspecified. *)

val map_stmts : (expr -> expr) -> stmt list -> stmt list
(** [map_expr f] on every expression of a body, guard operands too. *)

val address_taken : prog -> string list * string list
(** [(own functions, imports)] whose address the code or an
    initialiser takes; sorted, without duplicates. *)

(** Structural code-size metric in IR nodes (the Figure 11 Δcode
    basis). *)

val expr_size : expr -> int
val stmts_size : stmt list -> int
val func_size : func -> int
val prog_size : prog -> int
