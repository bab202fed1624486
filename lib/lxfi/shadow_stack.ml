(** Per-thread shadow stacks (§5).

    Each kernel thread gets a shadow stack adjacent to its kernel stack
    but inaccessible to modules (no WRITE capability is ever granted
    for it).  Wrappers push a frame at entry — return token and the
    principal to restore — and validate/pop at exit, enforcing control
    flow integrity on boundary returns and making principal switches
    interrupt-safe: IRQ entry saves the interrupted principal, IRQ exit
    restores it. *)

type frame = {
  token : int;  (** return token; must match at exit *)
  saved_principal : Principal.t option;  (** principal to restore (None = kernel) *)
  wrapper : string;  (** wrapper name, for diagnostics *)
}

type t = {
  mutable frames : frame list;
  mutable depth : int;  (** [List.length frames], kept by every update *)
  mem_base : int;  (** reserved adjacent region (never granted to modules) *)
  mem_len : int;
  mutable max_depth : int;
  mutable token_counter : int;
}

let create ~mem_base ~mem_len =
  { frames = []; depth = 0; mem_base; mem_len; max_depth = 0; token_counter = 0 }

let depth t = t.depth

(** [push t ~wrapper ~saved_principal] returns the token the matching
    [pop] must present. *)
let push t ~wrapper ~saved_principal =
  t.token_counter <- t.token_counter + 1;
  let token = t.token_counter in
  t.frames <- { token; saved_principal; wrapper } :: t.frames;
  t.depth <- t.depth + 1;
  let d = t.depth in
  if d > t.max_depth then t.max_depth <- d;
  if d * 16 > t.mem_len then
    Violation.raise_ ~kind:Violation.Shadow_stack ~module_:wrapper
      "shadow stack overflow (depth %d)" d;
  token

(** [pop t ~wrapper ~token] validates the return and yields the
    principal to restore. *)
let pop t ~wrapper ~token =
  match t.frames with
  | [] ->
      Violation.raise_ ~kind:Violation.Shadow_stack ~module_:wrapper
        "return with empty shadow stack"
  | f :: rest ->
      if f.token <> token then
        Violation.raise_ ~kind:Violation.Shadow_stack ~module_:wrapper
          "return token mismatch (wrapper %s, expected frame %s)" wrapper f.wrapper;
      t.frames <- rest;
      t.depth <- t.depth - 1;
      f.saved_principal

let top_wrapper t = match t.frames with [] -> None | f :: _ -> Some f.wrapper

(** [unwind_to t ~depth] discards frames above [depth] without token
    validation — the quarantine path abandoning a faulted module's
    activations to return control to the kernel frame.  Returns the
    innermost discarded frame's saved principal (the principal that was
    current before the oldest abandoned wrapper ran), or [None] when
    nothing is discarded. *)
let unwind_to t ~depth =
  if depth < 0 then invalid_arg "Shadow_stack.unwind_to: depth < 0";
  let rec go acc n frames =
    if n <= depth then (acc, n, frames)
    else match frames with
      | [] -> (acc, 0, [])
      | f :: rest -> go (Some f) (n - 1) rest
  in
  let last_discarded, n, kept = go None t.depth t.frames in
  t.frames <- kept;
  t.depth <- n;
  match last_discarded with None -> None | Some f -> f.saved_principal
