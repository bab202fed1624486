(** Syscall-flow extraction: a coarse per-module kernel-API flow graph
    computed from MIR, in the spirit of SFP/SFIP's syscall-flow
    integrity (see PAPERS.md).

    Nodes are the module's annotated kernel-export call sites (by
    export name); edges are the {e may-follow} relation: [(a, b)] is an
    edge when some execution of the module can call [b] with [a] as the
    immediately preceding kernel-API call.  The relation is computed
    intraprocedurally per function from the MIR control structure
    (sequence / if / while, with the interpreter's strict left-to-right
    evaluation order), direct calls inline the callee's summary (to a
    fixpoint, so recursion converges), and indirect calls use the union
    of every address-taken function's summary.  Because modules are
    re-entered by the kernel many times, every function is treated as a
    potential entry point and the graph additionally contains the
    {e boundary} edges [lasts × firsts]: any call that can end one
    activation may be followed by any call that can begin another.

    The analysis over-approximates by construction (inlined summaries
    are made {e transparent} — allowed to contribute no call — and
    [Return] is tracked as a separate exit path), so a faithfully
    executed module can never leave its own extracted graph; only a
    mutated or corrupted module can.  That is the soundness contract
    the runtime automaton ([Runtime.call_kexport]) and the fuzz oracle
    rely on. *)

open Mir.Ast
module SSet = Set.Make (String)

module PSet = Set.Make (struct
  type t = string * string

  let compare = compare
end)

(** May-follow summary of a program fragment: the kernel-API calls that
    can come first / last, the within-fragment may-follow pairs, and
    whether the fragment can execute without any kernel-API call. *)
type summary = { first : SSet.t; last : SSet.t; pairs : PSet.t; empty : bool }

let empty_sum =
  { first = SSet.empty; last = SSet.empty; pairs = PSet.empty; empty = true }

let sum_equal a b =
  SSet.equal a.first b.first && SSet.equal a.last b.last
  && PSet.equal a.pairs b.pairs && a.empty = b.empty

let node k =
  { first = SSet.singleton k; last = SSet.singleton k; pairs = PSet.empty; empty = false }

let cross xs ys acc =
  SSet.fold (fun x acc -> SSet.fold (fun y acc -> PSet.add (x, y) acc) ys acc) xs acc

let seq a b =
  {
    first = (if a.empty then SSet.union a.first b.first else a.first);
    last = (if b.empty then SSet.union a.last b.last else b.last);
    pairs = cross a.last b.first (PSet.union a.pairs b.pairs);
    empty = a.empty && b.empty;
  }

let alt a b =
  {
    first = SSet.union a.first b.first;
    last = SSet.union a.last b.last;
    pairs = PSet.union a.pairs b.pairs;
    empty = a.empty || b.empty;
  }

let star a = { a with pairs = cross a.last a.first a.pairs; empty = true }

(* A called function's contribution at a call site: its summary made
   transparent (able to contribute no call).  Fixing [empty = true] at
   call sites keeps every transfer function monotone in the set
   components, so the fixpoint below terminates, at the cost of a
   strictly larger (= safer) graph. *)
let transparent a = { a with empty = true }

(** Per-statement-list flow: executions that fall through vs. those
    that left via [Return].  [None] means "no execution takes this
    path" — distinct from [Some empty_sum], "a path with no calls". *)
type flow = { fall : summary option; exits : summary option }

let opt_alt a b =
  match (a, b) with None, x | x, None -> x | Some a, Some b -> Some (alt a b)

let opt_seq_after s = Option.map (fun x -> seq s x)

type ctx = {
  is_kexport : string -> bool;
  fsum : string -> summary;  (** current fixpoint summary of an own function *)
  isum : unit -> summary;  (** indirect-call summary (address-taken union) *)
}

let rec sum_expr ctx (e : expr) : summary =
  match e with
  | Const _ | Var _ | Glob _ | Funcaddr _ | Extaddr _ -> empty_sum
  | Load (_, a) -> sum_expr ctx a
  | Binop (_, _, a, b) -> seq (sum_expr ctx a) (sum_expr ctx b)
  | Call (callee, args) -> (
      let args_sum =
        List.fold_left (fun acc a -> seq acc (sum_expr ctx a)) empty_sum args
      in
      match callee with
      | Ext name ->
          if ctx.is_kexport name then seq args_sum (node name) else args_sum
      | Direct f -> seq args_sum (transparent (ctx.fsum f))
      | Indirect tgt ->
          seq (sum_expr ctx tgt) (seq args_sum (transparent (ctx.isum ()))))

let rec flow_stmt ctx (s : stmt) : flow =
  match s with
  | Let (_, e) | Expr e | Guard (Gwrite (_, e) | Gindcall e) ->
      { fall = Some (sum_expr ctx e); exits = None }
  | Return e -> { fall = None; exits = Some (sum_expr ctx e) }
  | Alloca _ -> { fall = Some empty_sum; exits = None }
  | Store (_, a, v) ->
      { fall = Some (seq (sum_expr ctx a) (sum_expr ctx v)); exits = None }
  | If (c, t, f) ->
      let sc = sum_expr ctx c in
      let ft = flow_stmts ctx t and ff = flow_stmts ctx f in
      {
        fall = opt_seq_after sc (opt_alt ft.fall ff.fall);
        exits = opt_seq_after sc (opt_alt ft.exits ff.exits);
      }
  | While (c, b) ->
      let sc = sum_expr ctx c in
      let fb = flow_stmts ctx b in
      (* Fall-through runs [c (b c)*]; an exit runs that prefix, then
         one body attempt that returns. *)
      let prefix =
        match fb.fall with
        | Some bf -> seq sc (star (seq bf sc))
        | None -> sc
      in
      { fall = Some prefix; exits = opt_seq_after prefix fb.exits }

and flow_stmts ctx (ss : stmt list) : flow =
  List.fold_left
    (fun acc s ->
      match acc.fall with
      | None -> acc (* unreachable: every earlier path returned *)
      | Some before ->
          let f = flow_stmt ctx s in
          {
            fall = opt_seq_after before f.fall;
            exits = opt_alt acc.exits (opt_seq_after before f.exits);
          })
    { fall = Some empty_sum; exits = None }
    ss

(** Entry-to-completion summary of one function body. *)
let sum_func ctx (fn : func) : summary =
  let f = flow_stmts ctx fn.body in
  match opt_alt f.fall f.exits with Some s -> s | None -> empty_sum

(* --- the graph --- *)

type graph = {
  g_module : string;
  g_nodes : string list;  (** kexports the module can call, sorted *)
  g_start : string list;  (** calls that may begin an activation, sorted *)
  g_edges : (string * string) list;  (** sorted may-follow pairs *)
}

(** [permits g ~pos k] — may the module call kexport [k] from automaton
    position [pos] ([None] = start)?  A scan of the sorted lists: the
    reference the runtime's {!Index} is checked against. *)
let permits g ~pos k =
  match pos with
  | None -> List.mem k g.g_start
  | Some p -> List.mem (p, k) g.g_edges

let has_node g k = List.mem k g.g_nodes

(** A graph compiled for the runtime automaton, built once when the
    graph is installed: every name the graph mentions gets a dense id,
    and each position carries its start flag and its successors as a
    bitset over ids, so a step is two table lookups instead of a scan
    of the edge list.  The graph's sorted lists stay the canonical,
    printed form. *)
module Index = struct
  type pos = {
    id : int;
    node : bool;  (** listed in [g_nodes] *)
    start : bool;  (** listed in [g_start] *)
    succ : Bytes.t;  (** bit [id k] set iff [(this, k)] is an edge *)
  }

  type t = (string, pos) Hashtbl.t

  let make (g : graph) : t =
    let ids = Hashtbl.create 32 in
    List.iter
      (fun k -> if not (Hashtbl.mem ids k) then Hashtbl.replace ids k (Hashtbl.length ids))
      (g.g_nodes @ g.g_start @ List.concat_map (fun (a, b) -> [ a; b ]) g.g_edges);
    let n = Hashtbl.length ids in
    let ix = Hashtbl.create (max 1 n) in
    Hashtbl.iter
      (fun k id ->
        Hashtbl.replace ix k
          {
            id;
            node = List.mem k g.g_nodes;
            start = List.mem k g.g_start;
            succ = Bytes.make ((n + 7) / 8) '\000';
          })
      ids;
    List.iter
      (fun (a, b) ->
        let succ = (Hashtbl.find ix a).succ and j = Hashtbl.find ids b in
        Bytes.set_uint8 succ (j lsr 3) (Bytes.get_uint8 succ (j lsr 3) lor (1 lsl (j land 7))))
      g.g_edges;
    ix

  (** Same answer as {!Apiflow.permits} on the indexed graph. *)
  let permits (ix : t) ~pos k =
    match Hashtbl.find_opt ix k with
    | None -> false
    | Some kp -> (
        match pos with
        | None -> kp.start
        | Some p -> (
            match Hashtbl.find_opt ix p with
            | None -> false
            | Some pp ->
                Bytes.get_uint8 pp.succ (kp.id lsr 3) land (1 lsl (kp.id land 7)) <> 0))

  (** Same answer as {!Apiflow.has_node} on the indexed graph. *)
  let has_node (ix : t) k =
    match Hashtbl.find_opt ix k with Some p -> p.node | None -> false
end

(** [extract env prog] — the flow graph of [prog], with kexports
    identified through [env].  Deterministic: pure set computations,
    rendered as sorted lists. *)
let extract (env : Env.t) (prog : prog) : graph =
  let is_kexport name = Env.find_kexport env name <> None in
  let tbl : (string, summary) Hashtbl.t = Hashtbl.create 16 in
  let fsum f =
    match Hashtbl.find_opt tbl f with Some s -> s | None -> empty_sum
  in
  let own_taken, kex_taken = address_taken prog in
  let isum () =
    let base =
      List.fold_left (fun acc f -> alt acc (fsum f)) empty_sum own_taken
    in
    List.fold_left
      (fun acc x -> if is_kexport x then alt acc (node x) else acc)
      base kex_taken
  in
  let ctx = { is_kexport; fsum; isum } in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (fn : func) ->
        let s = sum_func ctx fn in
        if not (sum_equal s (fsum fn.fname)) then begin
          Hashtbl.replace tbl fn.fname s;
          changed := true
        end)
      prog.funcs
  done;
  (* Every function is a potential kernel entry. *)
  let firsts, lasts, pairs =
    List.fold_left
      (fun (fs, ls, ps) (fn : func) ->
        let s = fsum fn.fname in
        (SSet.union fs s.first, SSet.union ls s.last, PSet.union ps s.pairs))
      (SSet.empty, SSet.empty, PSet.empty)
      prog.funcs
  in
  let edges = cross lasts firsts pairs in
  (* Nodes: the syntactic kexport call sites. *)
  let nodes =
    List.fold_left
      (fun acc (fn : func) ->
        fold_stmts
          (fun acc -> function Call (Ext k, _) when is_kexport k -> SSet.add k acc | _ -> acc)
          acc fn.body)
      SSet.empty prog.funcs
  in
  {
    g_module = prog.pname;
    g_nodes = SSet.elements nodes;
    g_start = SSet.elements firsts;
    g_edges = PSet.elements edges;
  }

(** Byte-stable rendering, one line per fact. *)
let render_lines (g : graph) : string list =
  Printf.sprintf "flow module %s" g.g_module
  :: List.map (Printf.sprintf "flow node %s") g.g_nodes
  @ List.map (Printf.sprintf "flow start %s") g.g_start
  @ List.map (fun (a, b) -> Printf.sprintf "flow edge %s -> %s" a b) g.g_edges

let render (g : graph) : string = String.concat "\n" (render_lines g) ^ "\n"

(* --- checker facade integration --- *)

(** [check_module env prog] — flow-graph findings for one module: an
    error per direct call to an undefined function (extraction cannot
    summarise the callee), and one info finding stating the extracted
    graph's size, so [lxfi_sim check] reports surface the pass ran. *)
let check_module (env : Env.t) (prog : prog) : Finding.t list =
  (* Direct calls to functions the program does not define: the loader
     would build a context whose execution oopses, and the flow summary
     for the callee is vacuous — a genuine extraction failure. *)
  let undef =
    List.fold_left
      (fun acc (fn : func) ->
        fold_stmts
          (fun acc -> function Call (Direct f, _) when find_func prog f = None -> SSet.add f acc | _ -> acc)
          acc fn.body)
      SSet.empty prog.funcs
  in
  let errors =
    List.map
      (fun f ->
        Finding.make ~rule:"flow-extraction" ~location:prog.pname
          ~source:"check.apiflow" Diag.Error
          "direct call to undefined function %s: no flow summary for the \
           callee"
          f)
      (SSet.elements undef)
  in
  let g = extract env prog in
  let info =
    (* Modules that call no kernel export have a vacuous graph; stay
       silent so kexport-free fixtures keep checking finding-free. *)
    if g.g_nodes = [] then []
    else
      [
        Finding.make ~rule:"flow-graph" ~location:prog.pname
          ~source:"check.apiflow" Diag.Info
          "flow graph: %d kexport nodes, %d start, %d may-follow edges"
          (List.length g.g_nodes) (List.length g.g_start)
          (List.length g.g_edges);
      ]
  in
  errors @ info
