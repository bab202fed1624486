(** Simulated [struct sk_buff] — the network packet structure.

    An sk_buff is the paper's running example of {e data structure
    integrity} (§2.2): it is a struct with an interior pointer to a
    separately-allocated payload, and the capability set it stands for is
    expressed with a programmer-supplied capability iterator
    ([skb_caps], Figure 4) covering both the struct and
    [skb->data .. skb->data+skb->len). *)

let struct_name = "sk_buff"

let layout =
  Ktypes.layout struct_name
    [
      ("next", 8, Ktypes.Pointer);
      ("dev", 8, Ktypes.Pointer);
      ("head", 8, Ktypes.Pointer);
      ("data", 8, Ktypes.Pointer);
      ("len", 4, Ktypes.Scalar);
      ("truesize", 4, Ktypes.Scalar);
      ("protocol", 4, Ktypes.Scalar);
      ("priority", 4, Ktypes.Scalar);
    ]

let define_layout types = Ktypes.register types layout
let size = layout.Ktypes.s_size
let o_dev = Ktypes.offset_of layout "dev"
let o_head = Ktypes.offset_of layout "head"
let o_data = Ktypes.offset_of layout "data"
let o_len = Ktypes.offset_of layout "len"
let o_truesize = Ktypes.offset_of layout "truesize"

(** [build kst buf len] allocates an sk_buff around an existing payload
    buffer (the [build_skb] export) and returns the struct address. *)
let build (kst : Kstate.t) buf len =
  let skb = Slab.kmalloc kst.slab size in
  Kmem.write_ptr kst.mem (skb + o_head) buf;
  Kmem.write_ptr kst.mem (skb + o_data) buf;
  Kmem.write_u32 kst.mem (skb + o_len) len;
  skb

(** [alloc kst len] allocates an sk_buff with a [len]-byte payload buffer
    and returns the struct address. *)
let alloc (kst : Kstate.t) len =
  Kcycles.charge kst.cycles Kcycles.Kernel 35;
  let skb = Slab.kmalloc kst.slab size in
  let buf = Slab.kmalloc kst.slab (max len 1) in
  Kmem.write_ptr kst.mem (skb + o_head) buf;
  Kmem.write_ptr kst.mem (skb + o_data) buf;
  Kmem.write_u32 kst.mem (skb + o_len) len;
  Kmem.write_u32 kst.mem (skb + o_truesize) (Slab.usable_size kst.slab buf);
  skb

let data (kst : Kstate.t) skb = Kmem.read_ptr kst.mem (skb + o_data)
let len (kst : Kstate.t) skb = Kmem.read_u32 kst.mem (skb + o_len)
let set_len (kst : Kstate.t) skb v = Kmem.write_u32 kst.mem (skb + o_len) v
let dev (kst : Kstate.t) skb = Kmem.read_ptr kst.mem (skb + o_dev)
let set_dev (kst : Kstate.t) skb d = Kmem.write_ptr kst.mem (skb + o_dev) d
let set_data (kst : Kstate.t) skb p = Kmem.write_ptr kst.mem (skb + o_data) p

let free (kst : Kstate.t) skb =
  Kcycles.charge kst.cycles Kcycles.Kernel 22;
  let head = Kmem.read_ptr kst.mem (skb + o_head) in
  if head <> 0 && Slab.is_live kst.slab head then Slab.kfree kst.slab head;
  Slab.kfree kst.slab skb
