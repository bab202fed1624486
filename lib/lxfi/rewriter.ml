(** Compile-time module rewriting (§4.2) — the clang-plugin analogue.

    [instrument] transforms a MIR program so every dangerous operation
    is preceded by an explicit runtime guard:

    - every store gains a [Gwrite] guard on its (hoisted) address;
    - every indirect call gains a [Gindcall] guard on its (hoisted)
      target;
    - calls to imports are already routed through annotated wrappers by
      the loader, and function entry/exit hooks are enabled by the
      interpreter when running instrumented code.

    Two of the paper's optimizations are implemented, because the
    Figure 11 microbenchmark results depend on them:

    - {e trivial-function inlining}: single-[Return] leaf functions are
      inlined at direct call sites whose arguments make no calls,
      before guarding, eliminating their entry/exit guards (this is why lld is 11% under LXFI vs 93%
      under binary-rewriting XFI);
    - {e safe-store elision}: stores at constant offsets inside a
      function-local [Alloca] buffer, provably in bounds, need no
      write guard (this is why MD5 is ~2% vs 27%).

    Like the paper's rewriter (§7), this one refuses module code it
    cannot analyse: an indirect call buried in a subexpression makes
    [instrument] raise [Rewrite_error] — the module developer must
    hoist it (the paper reports changing 18 lines across 10 modules for
    the same reason). *)

open Mir.Ast

exception Rewrite_error of string

let fail fmt = Format.kasprintf (fun s -> raise (Rewrite_error s)) fmt

type report = {
  r_orig_size : int;
  r_inst_size : int;  (** includes per-function entry/exit hook cost *)
  r_write_guards : int;
  r_write_elided : int;
  r_indcall_guards : int;
  r_inlined_calls : int;
  r_dropped_funcs : int;
}

let empty_report =
  {
    r_orig_size = 0;
    r_inst_size = 0;
    r_write_guards = 0;
    r_write_elided = 0;
    r_indcall_guards = 0;
    r_inlined_calls = 0;
    r_dropped_funcs = 0;
  }

(** {1 Trivial-function inlining} *)

let has_call e = fold_expr (fun found -> function Call _ -> true | _ -> found) false e

let count_var name e = fold_expr (fun n -> function Var x when x = name -> n + 1 | _ -> n) 0 e

(** A function is trivial when its body is a single [Return] of an
    expression with no calls, and each parameter occurs at most once
    (so substituting argument expressions cannot duplicate effects). *)
let trivial_body f =
  match f.body with
  | [ Return e ] when (not (has_call e)) && expr_size e <= 12
                      && List.for_all (fun p -> count_var p e <= 1) f.params ->
      Some e
  | _ -> None

let subst map =
  map_expr (function Var x as e -> Option.value (List.assoc_opt x map) ~default:e | e -> e)

(** One inlining pass over the whole program; [inlined] counts replaced
    call sites and [inlined_names] records which functions were
    substituted somewhere (only those may later be dropped — a module's
    entry points must survive even when their bodies are trivial).  A
    call site whose arguments themselves call is kept: substitution
    could drop an argument's call or run it out of order. *)
let inline_pass prog inlined inlined_names =
  let candidates =
    List.filter_map
      (fun f -> match trivial_body f with Some e -> Some (f.fname, (f.params, e)) | None -> None)
      prog.funcs
  in
  if candidates = [] then prog
  else begin
    let inline_call = function
      | Call (Direct name, args) as e -> (
          match List.assoc_opt name candidates with
          | Some (params, body)
            when List.length params = List.length args && not (List.exists has_call args) ->
              incr inlined;
              Hashtbl.replace inlined_names name ();
              subst (List.combine params args) body
          | _ -> e)
      | e -> e
    in
    { prog with funcs = List.map (fun f -> { f with body = map_stmts inline_call f.body }) prog.funcs }
  end

(** {1 Safe-store analysis} *)

(** Allocas of the current function whose binding is never shadowed by
    a later [Let] — their buffer base is a known constant for the whole
    body. *)
let stable_allocas body =
  let allocas = Hashtbl.create 8 in
  let scan () = function
    | Alloca (x, n) ->
        if Hashtbl.mem allocas x then Hashtbl.replace allocas x None
        else Hashtbl.replace allocas x (Some n)
    | Let (x, _) -> if Hashtbl.mem allocas x then Hashtbl.replace allocas x None
    | _ -> ()
  in
  fold_stmts ~stmt:scan (fun () _ -> ()) () body;
  allocas

(** A store address provably inside a stable alloca: [buf] or
    [buf + const] with the access in bounds. *)
let safe_store allocas w addr_expr =
  let width = bytes_of_width w in
  let check buf off =
    match Hashtbl.find_opt allocas buf with
    | Some (Some n) -> off >= 0 && off + width <= n
    | _ -> false
  in
  match addr_expr with
  | Var buf -> check buf 0
  | Binop (Add, _, Var buf, Const k) -> check buf (Int64.to_int k)
  | Binop (Add, _, Const k, Var buf) -> check buf (Int64.to_int k)
  | _ -> false

(** {1 Guard insertion} *)

type counters = {
  mutable wguards : int;
  mutable welided : int;
  mutable iguards : int;
  mutable tmp : int;
}

let fresh c =
  c.tmp <- c.tmp + 1;
  Printf.sprintf "__lxfi%d" c.tmp

(** Expressions may not contain indirect calls (they must be hoisted to
    statement position so the guard can precede them). *)
let reject_nested_indcall fname e =
  if fold_expr (fun found -> function Call (Indirect _, _) -> true | _ -> found) false e then
    fail "function %s: indirect call in subexpression; hoist it to a statement" fname

let check_args_only fname args = List.iter (reject_nested_indcall fname) args

let instrument_func (cfg : Config.t) counters f =
  let allocas = stable_allocas f.body in
  let rec stmts l = List.concat_map stmt l
  and guard_indirect_call mk te args =
    check_args_only f.fname args;
    let t = fresh counters in
    counters.iguards <- counters.iguards + 1;
    [ Let (t, te); Guard (Gindcall (Var t)); mk (Call (Indirect (Var t), args)) ]
  and stmt s =
    match s with
    | Let (x, Call (Indirect te, args)) ->
        reject_nested_indcall f.fname te;
        guard_indirect_call (fun call -> Let (x, call)) te args
    | Expr (Call (Indirect te, args)) ->
        reject_nested_indcall f.fname te;
        guard_indirect_call (fun call -> Expr call) te args
    | Return (Call (Indirect te, args)) ->
        reject_nested_indcall f.fname te;
        guard_indirect_call (fun call -> Return call) te args
    | Let (_, e) as s ->
        reject_nested_indcall f.fname e;
        [ s ]
    | Alloca _ as s -> [ s ]
    | Store (w, ea, ev) ->
        reject_nested_indcall f.fname ea;
        reject_nested_indcall f.fname ev;
        if cfg.Config.opt_elide_safe_writes && safe_store allocas w ea then begin
          counters.welided <- counters.welided + 1;
          [ Store (w, ea, ev) ]
        end
        else begin
          counters.wguards <- counters.wguards + 1;
          let t = fresh counters in
          [ Let (t, ea); Guard (Gwrite (w, Var t)); Store (w, Var t, ev) ]
        end
    | If (c, th, el) ->
        reject_nested_indcall f.fname c;
        [ If (c, stmts th, stmts el) ]
    | While (c, b) ->
        reject_nested_indcall f.fname c;
        [ While (c, stmts b) ]
    | Expr e ->
        reject_nested_indcall f.fname e;
        [ Expr e ]
    | Return e ->
        reject_nested_indcall f.fname e;
        [ Return e ]
    | Guard _ -> fail "function %s: already instrumented" f.fname
  in
  { f with body = stmts f.body }

(** [instrument cfg prog] — full pipeline: inline (optional), insert
    guards, drop dead inlined leaves.  Returns the instrumented program
    and a report.  For [Config.Stock] the program is returned
    unchanged. *)
let inline_program prog inlined =
  let inlined_names = Hashtbl.create 8 in
  let rec fixpoint p n =
    let before = !inlined in
    let p' = inline_pass p inlined inlined_names in
    if !inlined = before || n = 0 then p' else fixpoint p' (n - 1)
  in
  let p = fixpoint prog 4 in
  (* Drop only leaves that were actually inlined away and are no longer
     referenced (address taken, or called by another function); entry
     points keep their definitions. *)
  let referenced =
    lazy
      (fst (address_taken p)
      @ List.concat_map
          (fun f -> fold_stmts (fun acc -> function Call (Direct g, _) when g <> f.fname -> g :: acc | _ -> acc) [] f.body)
          p.funcs)
  in
  let keep f =
    (not (Hashtbl.mem inlined_names f.fname)) || f.export <> None || List.mem f.fname (Lazy.force referenced)
  in
  { p with funcs = List.filter keep p.funcs }

let instrument (cfg : Config.t) prog : prog * report =
  let orig = prog_size prog in
  if cfg.Config.mode = Config.Stock then begin
    (* The stock baseline still gets the ordinary compiler optimization
       (gcc inlines trivial functions with or without LXFI); only the
       guards and hooks are LXFI's. *)
    let inlined = ref 0 in
    let prog =
      if cfg.Config.opt_inline_trivial then inline_program prog inlined else prog
    in
    ( prog,
      {
        empty_report with
        r_orig_size = orig;
        r_inst_size = prog_size prog;
        r_inlined_calls = !inlined;
      } )
  end
  else begin
    let n_before = List.length prog.funcs in
    let inlined = ref 0 in
    let prog =
      if cfg.Config.opt_inline_trivial then inline_program prog inlined else prog
    in
    let counters = { wguards = 0; welided = 0; iguards = 0; tmp = 0 } in
    let funcs = List.map (instrument_func cfg counters) prog.funcs in
    let prog = { prog with funcs } in
    (* Entry/exit hooks cost 2 IR nodes per remaining function. *)
    let inst = prog_size prog + (2 * List.length funcs) in
    ( prog,
      {
        r_orig_size = orig;
        r_inst_size = inst;
        r_write_guards = counters.wguards;
        r_write_elided = counters.welided;
        r_indcall_guards = counters.iguards;
        r_inlined_calls = !inlined;
        r_dropped_funcs = max 0 (n_before - List.length funcs);
      } )
  end

let pp_report ppf r =
  Fmt.pf ppf
    "size %d -> %d (%.2fx); write guards %d (+%d elided); indcall guards %d; inlined %d"
    r.r_orig_size r.r_inst_size
    (float_of_int r.r_inst_size /. float_of_int (max 1 r.r_orig_size))
    r.r_write_guards r.r_write_elided r.r_indcall_guards r.r_inlined_calls
