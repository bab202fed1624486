(** Per-principal capability tables (§5, "Capability table").

    One table per capability type.  CALL and REF tables are ordinary
    hash tables keyed by target address / (type, address).

    WRITE capabilities are identified by an address {e range}, and the
    hot check ("does some capability cover [addr, addr+size)?") must be
    constant time.  Following the paper, a WRITE capability is inserted
    into {e every} hash slot its range covers after masking the low 12
    bits of the address, so a lookup only consults the one bucket for
    the queried address's page.  (The paper chose this over a balanced
    tree because kernel-module objects rarely exceed a page.) *)

let slot_shift = 12

(** Ranges covering more than this many pages are kept on a short
    linear list instead of being inserted per page slot.  The only such
    range in practice is the blanket user-space WRITE capability every
    module holds (uaccess helpers write to user memory on the module's
    behalf); per-page insertion of a 2 GB range would be absurd, and
    the paper's observation that "kernel modules do not usually
    manipulate memory objects larger than a page" still holds for the
    hashed population. *)
let big_range_pages = 64

type wentry = { base : int; size : int }

type t = {
  writes : (int, wentry list) Hashtbl.t;  (** page slot -> covering entries *)
  mutable big : wentry list;  (** oversized ranges, checked linearly *)
  calls : (int, unit) Hashtbl.t;
  refs : (string * int, unit) Hashtbl.t;
  mutable last_hit : wentry option;
      (** last covering WRITE range (guard-write fast path); sound
          because adding capabilities never shrinks a range, so the
          cache only needs dropping on revoke/clear *)
}

let create () =
  {
    writes = Hashtbl.create 32;
    big = [];
    calls = Hashtbl.create 16;
    refs = Hashtbl.create 16;
    last_hit = None;
  }

let slots_of ~base ~size =
  let first = base lsr slot_shift and last = (base + size - 1) lsr slot_shift in
  (first, last)

let is_big ~base ~size =
  let first, last = slots_of ~base ~size in
  last - first >= big_range_pages

(** {1 WRITE} *)

let add_write t ~base ~size =
  if size <= 0 then invalid_arg "Captable.add_write: size <= 0";
  let e = { base; size } in
  if is_big ~base ~size then begin
    if not (List.exists (fun x -> x.base = base && x.size = size) t.big) then
      t.big <- e :: t.big
  end
  else begin
    let first, last = slots_of ~base ~size in
    for s = first to last do
      let cur = Option.value ~default:[] (Hashtbl.find_opt t.writes s) in
      (* Idempotent: an identical entry is not duplicated. *)
      if not (List.exists (fun x -> x.base = base && x.size = size) cur) then
        Hashtbl.replace t.writes s (e :: cur)
    done
  end

let covers e ~addr ~size = e.base <= addr && addr + size <= e.base + e.size

(** [has_write_uncached t ~addr ~size] — the cache-free covering-range
    query (reference semantics; the property suite checks the cached
    path against it). *)
let has_write_uncached t ~addr ~size =
  (match Hashtbl.find_opt t.writes (addr lsr slot_shift) with
  | None -> false
  | Some entries -> List.exists (fun e -> covers e ~addr ~size) entries)
  || List.exists (fun e -> covers e ~addr ~size) t.big

(** [has_write t ~addr ~size] — is [addr, addr+size) covered by a single
    WRITE capability?  Consults the last covering range first: guarded
    module stores cluster heavily (the same skb / stack buffer written
    field by field), so this hits far more often than the bucket scan. *)
let has_write t ~addr ~size =
  match t.last_hit with
  | Some e when covers e ~addr ~size -> true
  | _ ->
      let find = List.find_opt (fun e -> covers e ~addr ~size) in
      let hit =
        match
          match Hashtbl.find_opt t.writes (addr lsr slot_shift) with
          | None -> None
          | Some entries -> find entries
        with
        | Some _ as r -> r
        | None -> find t.big
      in
      (match hit with
      | Some _ ->
          t.last_hit <- hit;
          true
      | None -> false)

(** [find_write_covering t ~addr] — the covering entry for a single
    address, if any (used to answer "who wrote this slot"). *)
let find_write_covering t ~addr =
  let hit =
    match Hashtbl.find_opt t.writes (addr lsr slot_shift) with
    | None -> None
    | Some entries -> List.find_opt (fun e -> covers e ~addr ~size:1) entries
  in
  match hit with
  | Some _ as r -> r
  | None -> List.find_opt (fun e -> covers e ~addr ~size:1) t.big

let intersects e ~base ~size = e.base < base + size && base < e.base + e.size

(** [remove_write_intersecting t ~base ~size] removes every WRITE entry
    that overlaps [base, base+size) and returns the distinct entries
    removed.  Used by transfer actions, which revoke from {e all}
    principals so that no copies survive (§3.3). *)
let remove_write_intersecting t ~base ~size =
  t.last_hit <- None;
  (* Collect victims from the overlapped slots, then delete each victim
     from all slots its own range covers. *)
  let first, last = slots_of ~base ~size in
  let victims = ref [] in
  for s = first to last do
    match Hashtbl.find_opt t.writes s with
    | None -> ()
    | Some entries ->
        List.iter
          (fun e ->
            if intersects e ~base ~size
               && not (List.exists (fun v -> v.base = e.base && v.size = e.size) !victims)
            then victims := e :: !victims)
          entries
  done;
  List.iter
    (fun v ->
      let vf, vl = slots_of ~base:v.base ~size:v.size in
      for s = vf to vl do
        match Hashtbl.find_opt t.writes s with
        | None -> ()
        | Some entries ->
            let kept =
              List.filter (fun e -> not (e.base = v.base && e.size = v.size)) entries
            in
            if kept = [] then Hashtbl.remove t.writes s
            else Hashtbl.replace t.writes s kept
      done)
    !victims;
  (* A big (blanket) range is only revoked when the revocation range
     contains it entirely: a transfer of one small object must not
     strip a module's user-space window. *)
  (* Most tables a revocation visits hold no big range: allocate nothing
     for them. *)
  if t.big = [] then !victims
  else begin
    let contained e = e.base >= base && e.base + e.size <= base + size in
    let gone, kept = List.partition contained t.big in
    t.big <- kept;
    gone @ !victims
  end

(** Distinct WRITE entries (each range counted once). *)
let fold_writes t f acc =
  let seen = Hashtbl.create 16 in
  let acc =
    Hashtbl.fold
      (fun _ entries acc ->
        List.fold_left
          (fun acc e ->
            if Hashtbl.mem seen (e.base, e.size) then acc
            else begin
              Hashtbl.replace seen (e.base, e.size) ();
              f acc ~base:e.base ~size:e.size
            end)
          acc entries)
      t.writes acc
  in
  List.fold_left (fun acc e -> f acc ~base:e.base ~size:e.size) acc t.big

let write_count t = fold_writes t (fun n ~base:_ ~size:_ -> n + 1) 0

(** {1 CALL} *)

let add_call t ~target = Hashtbl.replace t.calls target ()
let has_call t ~target = Hashtbl.mem t.calls target
let remove_call t ~target = Hashtbl.remove t.calls target
let call_count t = Hashtbl.length t.calls
let fold_calls t f acc = Hashtbl.fold (fun target () acc -> f acc ~target) t.calls acc

(** {1 REF} *)

let add_ref t ~rtype ~addr = Hashtbl.replace t.refs (rtype, addr) ()
let has_ref t ~rtype ~addr = Hashtbl.mem t.refs (rtype, addr)
let remove_ref t ~rtype ~addr = Hashtbl.remove t.refs (rtype, addr)
let ref_count t = Hashtbl.length t.refs

let fold_refs t f acc =
  Hashtbl.fold (fun (rtype, addr) () acc -> f acc ~rtype ~addr) t.refs acc

(** [clear t] drops every capability of every type — the quarantine
    revocation primitive. *)
let clear t =
  t.last_hit <- None;
  Hashtbl.reset t.writes;
  t.big <- [];
  Hashtbl.reset t.calls;
  Hashtbl.reset t.refs

let pp ppf t =
  Fmt.pf ppf "captable{write=%d; call=%d; ref=%d}" (write_count t) (call_count t)
    (ref_count t)
