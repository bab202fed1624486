(** The holder index: capability cell -> registered principals holding
    a capability there (see holders.mli).  Holder lists are sorted by
    ascending principal id, without duplicates, so queries answer in a
    deterministic order and cost O(holders of the cell), not
    O(principals). *)

type t = {
  wslots : (int, Principal.t list) Hashtbl.t;  (** page slot -> holders *)
  mutable wbig : Principal.t list;  (** holders of a blanket WRITE range *)
  calls : (int, Principal.t list) Hashtbl.t;  (** CALL target -> holders *)
  refs : (string * int, Principal.t list) Hashtbl.t;  (** REF cell -> holders *)
}

(* Small initial tables: every boot creates one, and most runtimes (a
   fuzz case's oracles) hold few capabilities. *)
let create () =
  { wslots = Hashtbl.create 64; wbig = []; calls = Hashtbl.create 64;
    refs = Hashtbl.create 16 }

let rec insert (p : Principal.t) = function
  | [] -> [ p ]
  | (q : Principal.t) :: rest as l ->
      if q.Principal.id < p.Principal.id then q :: insert p rest else p :: l

let mem p l = List.exists (fun q -> q == p) l
let without p l = List.filter (fun q -> q != p) l
let find tbl k = match Hashtbl.find_opt tbl k with Some l -> l | None -> []

let add tbl k p =
  let cur = find tbl k in
  if not (mem p cur) then Hashtbl.replace tbl k (insert p cur)

let remove tbl k p =
  match Hashtbl.find_opt tbl k with
  | None -> ()
  | Some cur -> (
      match without p cur with
      | [] -> Hashtbl.remove tbl k
      | l -> if List.compare_lengths l cur <> 0 then Hashtbl.replace tbl k l)

let add_big t p = if not (mem p t.wbig) then t.wbig <- insert p t.wbig

(** {1 WRITE} *)

let write_slot t slot = find t.wslots slot
let big t = t.wbig

let add_write t p ~base ~size =
  if Captable.is_big ~base ~size then add_big t p
  else begin
    let first, last = Captable.slots_of ~base ~size in
    for s = first to last do
      add t.wslots s p
    done
  end

let prune_write t (p : Principal.t) (e : Captable.wentry) =
  let caps = p.Principal.caps in
  let base = e.Captable.base and size = e.Captable.size in
  if Captable.is_big ~base ~size then begin
    if caps.Captable.big = [] then t.wbig <- without p t.wbig
  end
  else begin
    let first, last = Captable.slots_of ~base ~size in
    for s = first to last do
      if not (Hashtbl.mem caps.Captable.writes s) then remove t.wslots s p
    done
  end

(** {1 CALL and REF} *)

let call t ~target = find t.calls target
let add_call t p ~target = add t.calls target p
let clear_call t ~target = Hashtbl.remove t.calls target
let ref_ t ~rtype ~addr = find t.refs (rtype, addr)
let add_ref t p ~rtype ~addr = add t.refs (rtype, addr) p
let clear_ref t ~rtype ~addr = Hashtbl.remove t.refs (rtype, addr)

(** {1 Whole principals} *)

let add_all t (p : Principal.t) =
  let caps = p.Principal.caps in
  Hashtbl.iter (fun s _ -> add t.wslots s p) caps.Captable.writes;
  if caps.Captable.big <> [] then add_big t p;
  Hashtbl.iter (fun target () -> add t.calls target p) caps.Captable.calls;
  Hashtbl.iter (fun k () -> add t.refs k p) caps.Captable.refs

let remove_all t (p : Principal.t) =
  let caps = p.Principal.caps in
  Hashtbl.iter (fun s _ -> remove t.wslots s p) caps.Captable.writes;
  if caps.Captable.big <> [] then t.wbig <- without p t.wbig;
  Hashtbl.iter (fun target () -> remove t.calls target p) caps.Captable.calls;
  Hashtbl.iter (fun k () -> remove t.refs k p) caps.Captable.refs

(** {1 Inspection} *)

type cell = Wslot of int | Wbig | Call of int | Ref of string * int

let fold t f acc =
  let over tbl cell acc =
    Hashtbl.fold
      (fun k l acc -> List.fold_left (fun acc p -> f acc (cell k) p) acc l)
      tbl acc
  in
  let acc = over t.wslots (fun s -> Wslot s) acc in
  let acc = List.fold_left (fun acc p -> f acc Wbig p) acc t.wbig in
  let acc = over t.calls (fun target -> Call target) acc in
  over t.refs (fun (rtype, addr) -> Ref (rtype, addr)) acc
