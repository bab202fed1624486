(** Writer-set tracking (§4.1, §5) — the fast path for kernel
    indirect-call checks.

    The runtime tracks, per 64-byte line of the address space, whether
    {e any} module principal has ever been granted a WRITE capability
    covering it.  Before the expensive indirect-call capability check,
    the kernel consults this bitmap: a function-pointer slot no module
    could have written needs no check at all.  The paper reports this
    eliminates ~2/3 of indirect-call checks on the UDP TX path
    (Figure 13); the ablation benchmark reproduces that ratio.

    False positives (a line granted but never actually written) cost
    only an unnecessary check; false negatives cannot arise from module
    stores because a store needs a WRITE capability, which marks the
    line first.  The remaining false-negative channel — the kernel
    copying a module-written pointer into kernel-private memory — is
    handled at rewrite time by the origin analysis (the kernel call
    sites in [lib/kernel] always pass the original slot address).

    {2 Layout}

    Two levels, like a page table: a chunk of [chunk_lines] = 32 lines
    (2 KB) is one int whose bit [i] marks the chunk's line [i], and an
    open-addressed table maps chunk indices to those masks.  Marking a
    range costs one table update per chunk it touches, not one per
    line; a lookup is one probe sequence that neither allocates nor
    raises.  Chunks are never removed from the table: a chunk whose
    lines were all cleared keeps a zero mask. *)

let line_shift = 6
let chunk_bits = 5
let chunk_lines = 1 lsl chunk_bits

type t = {
  mutable keys : int array;  (** chunk index per slot, [free] if unused *)
  mutable masks : int array;  (** line bits of the chunk in the same slot *)
  mutable used : int;
}

(* Chunk indices are [addr lsr (line_shift + chunk_bits)], never negative. *)
let free = -1

let create () = { keys = Array.make 256 free; masks = Array.make 256 0; used = 0 }

(* The slot holding [chunk], or the free slot where it would go.  The
   table is at most half full, so the probe always stops. *)
let slot keys chunk =
  let m = Array.length keys - 1 in
  let h = chunk * 0x9E3779B97F4A7C1 in
  let i = ref ((h lxor (h lsr 29)) land m) in
  while keys.(!i) <> chunk && keys.(!i) <> free do
    i := (!i + 1) land m
  done;
  !i

let grow t =
  let keys = t.keys and masks = t.masks in
  let n = 2 * Array.length keys in
  t.keys <- Array.make n free;
  t.masks <- Array.make n 0;
  Array.iteri
    (fun j k ->
      if k <> free then begin
        let i = slot t.keys k in
        t.keys.(i) <- k;
        t.masks.(i) <- masks.(j)
      end)
    keys

(** [update t ~add ~base ~size f] replaces the mask [m] of every chunk that
    [base, base+size) touches with [f m bits], where [bits] are the
    range's lines in that chunk.  Chunks absent from the table read as
    mask 0 and are added only if [add]. *)
let update t ~add ~base ~size f =
  if size > 0 then begin
    let first = base lsr line_shift and last = (base + size - 1) lsr line_shift in
    for c = first lsr chunk_bits to last lsr chunk_bits do
      let lo = max first (c lsl chunk_bits) land (chunk_lines - 1)
      and hi = min last ((c lsl chunk_bits) + chunk_lines - 1) land (chunk_lines - 1) in
      let bits = ((1 lsl (hi - lo + 1)) - 1) lsl lo in
      let i = slot t.keys c in
      if t.keys.(i) = c then t.masks.(i) <- f t.masks.(i) bits
      else if add then begin
        t.keys.(i) <- c;
        t.masks.(i) <- f 0 bits;
        t.used <- t.used + 1;
        if 2 * t.used > Array.length t.keys then grow t
      end
    done
  end

let mark_range t ~base ~size = update t ~add:true ~base ~size (fun m bits -> m lor bits)

(** [maybe_written t addr] — could any module principal have written the
    word at [addr]?  [false] means the check may be skipped.  A free
    slot's mask is 0, so a miss needs no separate test. *)
let maybe_written t addr =
  let line = addr lsr line_shift in
  t.masks.(slot t.keys (line lsr chunk_bits)) land (1 lsl (line land (chunk_lines - 1))) <> 0

(** [clear_range t ~base ~size] — unmark a range.  Nothing in the
    runtime calls this: marks are sticky, because a revoked writer may
    have stored a pointer that outlives its capability. *)
let clear_range t ~base ~size =
  update t ~add:false ~base ~size (fun m bits -> m land lnot bits)

(** [fold_lines t f acc] — fold over every marked line index (table
    order; snapshotting sorts). *)
let fold_lines t f acc =
  let acc = ref acc in
  Array.iteri
    (fun i c ->
      let m = t.masks.(i) in
      if c <> free && m <> 0 then
        for b = 0 to chunk_lines - 1 do
          if m land (1 lsl b) <> 0 then acc := f !acc ((c lsl chunk_bits) lor b)
        done)
    t.keys;
  !acc

let marked_lines t = fold_lines t (fun n _ -> n + 1) 0
