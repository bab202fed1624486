(** An annotation compiled against its parameter list, once, when the
    slot type or kernel export is registered: parameter names become
    argument indices, and the pre, post and principal clauses are split
    out.  The runtime wrappers evaluate this form on every crossing, so
    they neither rebuild a name-to-value table nor filter the clause
    list per call.

    Indices also fix the arity rule.  Extra arguments are never looked
    at (as in a stock kernel, which ignores them); an index past the
    end of the argument list is a missing argument, which the
    evaluator reports as a kernel oops. *)

type expr =
  | Int of int64
  | Arg of int  (** the call's argument at this position *)
  | Unknown_param of string
      (** a name not among the parameters; only a slot record forged
          past {!Ast.validate} can hold one, and evaluating it fails *)
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

type t = { pre : action list; post : action list; principal : principal option }

let compile ~params (annot : Ast.t) : t =
  let index p =
    let rec go i = function
      | [] -> Unknown_param p
      | q :: rest -> if String.equal p q then Arg i else go (i + 1) rest
    in
    go 0 params
  in
  let rec expr : Ast.cexpr -> expr = function
    | Ast.Cint n -> Int n
    | Ast.Cparam p -> index p
    | Ast.Creturn -> Return
    | Ast.Cbin (op, a, b) -> Bin (op, expr a, expr b)
    | Ast.Cneg e -> Neg (expr e)
    | Ast.Csizeof s -> Sizeof s
  in
  let caplist : Ast.caplist -> caplist = function
    | Ast.Inline (c, p, s) -> Inline (c, expr p, Option.map expr s)
    | Ast.Iter (f, args) -> Iter (f, List.map expr args)
  in
  let rec action : Ast.action -> action = function
    | Ast.Copy cl -> Copy (caplist cl)
    | Ast.Transfer cl -> Transfer (caplist cl)
    | Ast.Check cl -> Check (caplist cl)
    | Ast.Cif (c, a) -> If (expr c, action a)
  in
  {
    pre = List.map action (Ast.pre_actions annot);
    post = List.map action (Ast.post_actions annot);
    principal =
      Option.map
        (function
          | Ast.Pglobal -> Pglobal | Ast.Pshared -> Pshared | Ast.Pexpr e -> Pexpr (expr e))
        (Ast.principal_of annot);
  }
