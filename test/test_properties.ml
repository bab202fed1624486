(* Property-based tests (qcheck) over the core data structures and the
   invariants the paper's security argument rests on. *)

let seeded_count n = n

(* ------------------------------------------------------------------ *)
(* Captable WRITE ranges agree with a naive reference model.            *)
(* ------------------------------------------------------------------ *)

type wop = Add of int * int | Remove of int * int | Query of int * int

let gen_wop =
  QCheck.Gen.(
    let addr = map (fun a -> 0x1000 + (a * 8)) (int_bound 2048) in
    let size = map (fun s -> 8 + (s * 8)) (int_bound 64) in
    oneof
      [
        map2 (fun a s -> Add (a, s)) addr size;
        map2 (fun a s -> Remove (a, s)) addr size;
        map2 (fun a s -> Query (a, s)) addr size;
      ])

let show_wop = function
  | Add (a, s) -> Printf.sprintf "Add(0x%x,%d)" a s
  | Remove (a, s) -> Printf.sprintf "Remove(0x%x,%d)" a s
  | Query (a, s) -> Printf.sprintf "Query(0x%x,%d)" a s

let arb_wops =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map show_wop l))
    QCheck.Gen.(list_size (seeded_count (int_bound 60)) gen_wop)

let prop_captable_matches_model =
  QCheck.Test.make ~count:300 ~name:"captable WRITE = naive interval model" arb_wops
    (fun ops ->
      let t = Lxfi.Captable.create () in
      let model = ref [] (* (base, size) list *) in
      let covered (b, s) addr size = b <= addr && addr + size <= b + s in
      let intersects (b, s) base size = b < base + size && base < b + s in
      List.for_all
        (fun op ->
          match op with
          | Add (base, size) ->
              Lxfi.Captable.add_write t ~base ~size;
              if not (List.mem (base, size) !model) then model := (base, size) :: !model;
              true
          | Remove (base, size) ->
              ignore (Lxfi.Captable.remove_write_intersecting t ~base ~size);
              model := List.filter (fun e -> not (intersects e base size)) !model;
              true
          | Query (addr, size) ->
              Lxfi.Captable.has_write t ~addr ~size
              = List.exists (fun e -> covered e addr size) !model)
        ops)

(* ------------------------------------------------------------------ *)
(* Writer set: no false negatives.                                     *)
(* ------------------------------------------------------------------ *)

let arb_ranges =
  QCheck.make
    ~print:(fun l ->
      String.concat ";" (List.map (fun (b, s) -> Printf.sprintf "(0x%x,%d)" b s) l))
    QCheck.Gen.(
      list_size (int_bound 30)
        (map2
           (fun b s -> (0x2_0000_0000 + (b * 16), 1 + s))
           (int_bound 4096) (int_bound 256)))

let prop_writer_set_no_false_negatives =
  QCheck.Test.make ~count:200 ~name:"writer set has no false negatives" arb_ranges
    (fun ranges ->
      let w = Lxfi.Writer_set.create () in
      List.iter (fun (base, size) -> Lxfi.Writer_set.mark_range w ~base ~size) ranges;
      List.for_all
        (fun (base, size) ->
          Lxfi.Writer_set.maybe_written w base
          && Lxfi.Writer_set.maybe_written w (base + size - 1))
        ranges)

(* ------------------------------------------------------------------ *)
(* Writer set agrees with a line-per-entry reference model.            *)
(* ------------------------------------------------------------------ *)

(* The reference: one hash-table entry per marked 64-byte line. *)
module Line_set = struct
  let shift = Lxfi.Writer_set.line_shift

  let lines ~base ~size =
    if size <= 0 then []
    else
      let first = base lsr shift in
      List.init (((base + size - 1) lsr shift) - first + 1) (fun i -> first + i)

  let mark t ~base ~size = List.iter (fun l -> Hashtbl.replace t l ()) (lines ~base ~size)
  let clear t ~base ~size = List.iter (Hashtbl.remove t) (lines ~base ~size)
end

type wsop = Mark of int * int | Clear of int * int

let gen_wsop =
  QCheck.Gen.(
    (* two regions far apart, so chunk indices also differ in high bits *)
    let base =
      map2
        (fun region off -> region + off)
        (oneofl [ 0x2_0000_0000; 0x4_0000_0000 ])
        (oneof
           [
             int_bound 0x6000;
             (* just below a 2 KB chunk boundary *)
             map2 (fun c d -> (c * 0x800) - d) (int_range 1 12) (int_bound 64);
           ])
    in
    let size =
      oneof
        [
          return 0;
          int_range 1 64 (* within one or two lines *);
          int_range 65 0x1000 (* crosses chunk boundaries *);
          int_range 0x1000 0x6000 (* many chunks *);
        ]
    in
    map3
      (fun clear b s -> if clear then Clear (b, s) else Mark (b, s))
      (frequency [ (3, return false); (1, return true) ])
      base size)

let show_wsop = function
  | Mark (b, s) -> Printf.sprintf "Mark(0x%x,%d)" b s
  | Clear (b, s) -> Printf.sprintf "Clear(0x%x,%d)" b s

let prop_writer_set_matches_model =
  QCheck.Test.make ~count:300 ~name:"writer set = line-per-entry model"
    (QCheck.make
       ~print:(fun l -> String.concat "; " (List.map show_wsop l))
       QCheck.Gen.(list_size (int_bound 40) gen_wsop))
    (fun ops ->
      let w = Lxfi.Writer_set.create () and model = Hashtbl.create 64 in
      List.iter
        (function
          | Mark (base, size) ->
              Lxfi.Writer_set.mark_range w ~base ~size;
              Line_set.mark model ~base ~size
          | Clear (base, size) ->
              Lxfi.Writer_set.clear_range w ~base ~size;
              Line_set.clear model ~base ~size)
        ops;
      (* probe each range's edges and their neighbours, plus a fixed grid *)
      let probes =
        List.concat_map
          (function
            | Mark (b, s) | Clear (b, s) -> [ b - 1; b; b + (s / 2); b + s - 1; b + s ])
          ops
        @ List.concat
            (List.init 256 (fun i -> [ 0x2_0000_0000 + (i * 0x70); 0x4_0000_0000 + (i * 0x70) ]))
      in
      let shift = Lxfi.Writer_set.line_shift in
      List.for_all
        (fun a -> Lxfi.Writer_set.maybe_written w a = Hashtbl.mem model (a lsr shift))
        probes
      && Lxfi.Writer_set.marked_lines w = Hashtbl.length model
      && List.sort compare (Lxfi.Writer_set.fold_lines w (fun acc l -> l :: acc) [])
         = List.sort compare (Hashtbl.fold (fun l () acc -> l :: acc) model []))

(* ------------------------------------------------------------------ *)
(* Annotation language: print/parse fixpoint on generated ASTs.        *)
(* ------------------------------------------------------------------ *)

let gen_cexpr =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let leaf =
          oneof
            [
              map (fun i -> Annot.Ast.Cint (Int64.of_int i)) (int_bound 4096);
              map
                (fun i -> Annot.Ast.Cneg (Annot.Ast.Cint (Int64.of_int i)))
                (int_bound 4096);
              oneofl
                [
                  Annot.Ast.Cparam "p";
                  Annot.Ast.Cparam "len";
                  Annot.Ast.Cparam "buf";
                  Annot.Ast.Cparam "skb";
                  Annot.Ast.Creturn;
                  Annot.Ast.Csizeof "sk_buff";
                  Annot.Ast.Csizeof "socket";
                  Annot.Ast.Csizeof "pci_dev";
                ];
            ]
        in
        if n <= 1 then leaf
        else
          frequency
            [
              (2, leaf);
              ( 3,
                map3
                  (fun op a b -> Annot.Ast.Cbin (op, a, b))
                  (oneofl
                     Annot.Ast.
                       [ Oeq; One; Olt; Ole; Ogt; Oge; Oadd; Osub; Omul; Oand; Oor ])
                  (self (n / 2)) (self (n / 2)) );
              (1, map (fun e -> Annot.Ast.Cneg e) (self (n / 2)));
            ]))

let gen_caplist =
  QCheck.Gen.(
    oneof
      [
        map3
          (fun ct p s -> Annot.Ast.Inline (ct, p, s))
          (oneofl
             [
               Annot.Ast.Write;
               Annot.Ast.Call;
               Annot.Ast.Ref "pci_dev";
               Annot.Ast.Ref "io_port";
             ])
          gen_cexpr
          (option gen_cexpr);
        map (fun e -> Annot.Ast.Iter ("skb_caps", [ e ])) gen_cexpr;
        map2
          (fun a b -> Annot.Ast.Iter ("range_caps", [ a; b ]))
          gen_cexpr gen_cexpr;
      ])

let gen_action =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let base =
          oneof
            [
              map (fun c -> Annot.Ast.Copy c) gen_caplist;
              map (fun c -> Annot.Ast.Transfer c) gen_caplist;
              map (fun c -> Annot.Ast.Check c) gen_caplist;
            ]
        in
        if n <= 1 then base
        else
          frequency
            [
              (3, base);
              (1, map2 (fun c a -> Annot.Ast.Cif (c, a)) gen_cexpr (self (n / 2)));
            ]))

let gen_clause =
  QCheck.Gen.(
    oneof
      [
        map (fun a -> Annot.Ast.Pre a) gen_action;
        map (fun a -> Annot.Ast.Post a) gen_action;
        oneofl
          [
            Annot.Ast.Principal Annot.Ast.Pglobal;
            Annot.Ast.Principal Annot.Ast.Pshared;
            Annot.Ast.Principal (Annot.Ast.Pexpr (Annot.Ast.Cparam "p"));
          ];
      ])

let arb_annot =
  QCheck.make ~print:Annot.Ast.to_string QCheck.Gen.(list_size (int_bound 5) gen_clause)

let prop_annot_roundtrip =
  QCheck.Test.make ~count:500 ~name:"annotation print/parse fixpoint" arb_annot
    (fun t ->
      let s = Annot.Ast.to_string t in
      match Annot.Parser.parse s with
      | Ok t2 -> Annot.Ast.to_string t2 = s
      | Error _ -> false)

let prop_annot_hash_stable =
  QCheck.Test.make ~count:300 ~name:"hash invariant under reparse" arb_annot
    (fun t ->
      let params = [ "p"; "len" ] in
      let s = Annot.Ast.to_string t in
      match Annot.Parser.parse s with
      | Ok t2 ->
          Int64.equal
            (Annot.Hash.of_annot ~params t |> fun h ->
             ignore h;
             Annot.Hash.of_annot ~params t2)
            (Annot.Hash.of_annot ~params t)
      | Error _ -> false)

let prop_registry_define_consistent =
  (* the typed registry API accepts exactly what Ast.validate accepts,
     and on success exposes the canonical hash *)
  QCheck.Test.make ~count:300 ~name:"Registry.define agrees with validate" arb_annot
    (fun t ->
      let params = [ "p"; "len"; "buf"; "skb" ] in
      let r = Annot.Registry.create () in
      match
        (Annot.Registry.define r ~name:"gen.slot" ~params ~annot:t,
         Annot.Ast.validate ~params t)
      with
      | Ok slot, Ok () ->
          Int64.equal slot.Annot.Registry.sl_ahash (Annot.Hash.of_annot ~params t)
      | Error (Annot.Registry.Invalid _), Error _ -> true
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Kmem agrees with a bytes reference model.                            *)
(* ------------------------------------------------------------------ *)

let arb_mem_ops =
  let gen =
    QCheck.Gen.(
      list_size (int_bound 80)
        (triple (int_bound 500) (oneofl [ 1; 2; 4; 8 ])
           (map Int64.of_int (int_bound 1_000_000))))
  in
  QCheck.make gen

let prop_kmem_matches_bytes =
  QCheck.Test.make ~count:200 ~name:"kmem = byte-array model" arb_mem_ops (fun writes ->
      let m = Kernel_sim.Kmem.create () in
      let reference = Bytes.make 512 '\000' in
      let base = 0x2_0000_0000 in
      List.iter
        (fun (off, size, v) ->
          let off = min off (512 - 8) in
          Kernel_sim.Kmem.write m ~addr:(base + off) ~size v;
          for i = 0 to size - 1 do
            Bytes.set reference (off + i)
              (Char.chr
                 (Int64.to_int (Int64.logand (Int64.shift_right_logical v (8 * i)) 0xffL)))
          done)
        writes;
      (* compare every byte *)
      let ok = ref true in
      for i = 0 to 511 do
        if
          Kernel_sim.Kmem.read_u8 m (base + i) <> Char.code (Bytes.get reference i)
        then ok := false
      done;
      !ok)

(* ------------------------------------------------------------------ *)
(* Kmem's page cache is invisible: a byte model over colliding pages.   *)
(* ------------------------------------------------------------------ *)

(* Page indices chosen so that many share one cache entry: pages of
   the heap, stack and module regions that hash to the entry of the
   heap's first page, a second group sharing the entry of its second
   page, and the NULL page with its neighbour. *)
let kmem_pages =
  let module K = Kernel_sim.Kmem in
  let page a = a lsr K.page_shift in
  let heap = page K.Layout.kernel_heap_base in
  let colliding ~with_ from n =
    let rec go p k acc =
      if k = 0 then acc
      else if K.cache_entry p = K.cache_entry with_ then go (p + 1) (k - 1) (p :: acc)
      else go (p + 1) k acc
    in
    go from n []
  in
  (0 :: 1 :: colliding ~with_:heap heap 4)
  @ colliding ~with_:heap (page K.Layout.kernel_stack_base) 3
  @ colliding ~with_:heap (page K.Layout.module_base) 3
  @ colliding ~with_:(heap + 1) (heap + 1) 3

type kop =
  | Kwrite of int * int * int64
  | Kread of int * int
  | Kwrite_int of int * int * int  (** [write_u32] / [write_ptr] *)
  | Kread_int of int * int  (** [read_u32] / [read_ptr] *)
  | Kwrite_bytes of int * string
  | Kread_bytes of int * int
  | Kzero of int * int
  | Kmap of int * int
  | Ktoggle

let show_kop = function
  | Kwrite (a, n, v) -> Printf.sprintf "write(0x%x,%d,%Ld)" a n v
  | Kread (a, n) -> Printf.sprintf "read(0x%x,%d)" a n
  | Kwrite_int (a, n, v) -> Printf.sprintf "write_int(0x%x,%d,%d)" a n v
  | Kread_int (a, n) -> Printf.sprintf "read_int(0x%x,%d)" a n
  | Kwrite_bytes (a, s) -> Printf.sprintf "write_bytes(0x%x,%d)" a (String.length s)
  | Kread_bytes (a, n) -> Printf.sprintf "read_bytes(0x%x,%d)" a n
  | Kzero (a, n) -> Printf.sprintf "zero(0x%x,%d)" a n
  | Kmap (a, n) -> Printf.sprintf "map(0x%x,%d)" a n
  | Ktoggle -> "toggle"

let gen_kop =
  QCheck.Gen.(
    let page = oneofl kmem_pages in
    (* offsets biased to page ends, so accesses straddle pages *)
    let off = oneof [ int_bound 4095; map (fun d -> 4095 - d) (int_bound 9) ] in
    let addr =
      frequency
        [ (12, map2 (fun p o -> (p lsl Kernel_sim.Kmem.page_shift) + o) page off);
          (1, map (fun d -> -1 - d) (int_bound 16)) ]
    in
    let size = int_range 1 8 in
    let len = frequency [ (3, int_range 0 24); (1, int_range 4000 9000) ] in
    frequency
      [
        (6, map3 (fun a n v -> Kwrite (a, n, v)) addr size (map Int64.of_int int));
        (6, map2 (fun a n -> Kread (a, n)) addr size);
        (4, map3 (fun a n v -> Kwrite_int (a, n, v)) addr (oneofl [ 4; 8 ]) int);
        (4, map2 (fun a n -> Kread_int (a, n)) addr (oneofl [ 4; 8 ]));
        (2, map2 (fun a n -> Kwrite_bytes (a, String.init n (fun i -> Char.chr ((i * 7) land 0xff)))) addr len);
        (2, map2 (fun a n -> Kread_bytes (a, n)) addr len);
        (1, map2 (fun a n -> Kzero (a, n)) addr len);
        (1, map2 (fun p n -> Kmap (p lsl Kernel_sim.Kmem.page_shift, n)) page (int_range 1 9000));
        (1, return Ktoggle);
      ])

let prop_kmem_cache_matches_model =
  QCheck.Test.make ~count:300 ~name:"kmem over colliding pages = byte model"
    (QCheck.make ~print:(fun l -> String.concat "; " (List.map show_kop l))
       QCheck.Gen.(list_size (int_bound 60) gen_kop))
    (fun ops ->
      let module K = Kernel_sim.Kmem in
      let m = K.create () in
      (* the model: mapped pages, and the strict flag *)
      let pages : (int, Bytes.t) Hashtbl.t = Hashtbl.create 16 in
      let strict = ref false in
      let fault addr write = raise (K.Fault { addr; write }) in
      (* one byte access, in the order the implementation visits them *)
      let page ~write a =
        if a < K.Layout.null_guard_top then fault a write;
        let idx = a lsr K.page_shift in
        match Hashtbl.find_opt pages idx with
        | Some b -> b
        | None ->
            if !strict then fault a write;
            let b = Bytes.make K.page_size '\000' in
            Hashtbl.replace pages idx b;
            b
      in
      let get a = Char.code (Bytes.get (page ~write:false a) (a land K.page_mask)) in
      let set a v = Bytes.set (page ~write:true a) (a land K.page_mask) (Char.chr (v land 0xff)) in
      (* a word access inside one page looks its page up once, at its
         first byte; a straddling one goes byte by byte *)
      let word_page ~write a n =
        if (a land K.page_mask) + n <= K.page_size then ignore (page ~write a)
      in
      let rec model = function
        | Kwrite_int (a, n, v) -> model (Kwrite (a, n, Int64.of_int v))
        | Kread_int (a, n) ->
            (* the int accessors drop bit 63 of an 8-byte value *)
            let v = Int64.of_string (model (Kread (a, n))) in
            Int64.to_string (Int64.of_int (Int64.to_int v))
        | Kwrite (a, n, v) ->
            word_page ~write:true a n;
            for i = 0 to n - 1 do
              set (a + i) (Int64.to_int (Int64.shift_right_logical v (8 * i)))
            done;
            ""
        | Kread (a, n) ->
            word_page ~write:false a n;
            let v = ref 0L in
            for i = n - 1 downto 0 do
              v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (get (a + i)))
            done;
            Int64.to_string !v
        | Kwrite_bytes (a, s) ->
            String.iteri (fun i c -> set (a + i) (Char.code c)) s;
            ""
        | Kread_bytes (a, n) -> String.init n (fun i -> Char.chr (get (a + i)))
        | Kzero (a, n) ->
            for i = 0 to n - 1 do
              set (a + i) 0
            done;
            ""
        | Kmap (a, n) ->
            for idx = a lsr K.page_shift to (a + n - 1) lsr K.page_shift do
              if not (Hashtbl.mem pages idx) then
                Hashtbl.replace pages idx (Bytes.make K.page_size '\000')
            done;
            ""
        | Ktoggle ->
            strict := not !strict;
            ""
      in
      let real = function
        | Kwrite (a, n, v) ->
            K.write m ~addr:a ~size:n v;
            ""
        | Kwrite_int (a, 4, v) ->
            K.write_u32 m a v;
            ""
        | Kwrite_int (a, _, v) ->
            K.write_ptr m a v;
            ""
        | Kread_int (a, 4) -> Int64.to_string (Int64.of_int (K.read_u32 m a))
        | Kread_int (a, _) -> Int64.to_string (Int64.of_int (K.read_ptr m a))
        | Kread (a, n) ->
            let v = K.read m ~addr:a ~size:n in
            (* [read] zero-extends; the model assembles the same bytes *)
            Int64.to_string v
        | Kwrite_bytes (a, s) ->
            K.write_bytes m ~addr:a s;
            ""
        | Kread_bytes (a, n) -> Bytes.to_string (K.read_bytes m ~addr:a ~len:n)
        | Kzero (a, n) ->
            K.zero m ~addr:a ~len:n;
            ""
        | Kmap (a, n) ->
            K.map m ~addr:a ~len:n;
            ""
        | Ktoggle ->
            m.K.fault_on_unmapped <- not m.K.fault_on_unmapped;
            ""
      in
      let outcome f op =
        match f op with r -> Ok r | exception K.Fault { addr; write } -> Error (addr, write)
      in
      List.for_all (fun op -> outcome model op = outcome real op) ops
      && K.mapped_pages m = Hashtbl.length pages
      &&
      (* every mapped page, read back through the cache, strictly (the
         NULL page can be mapped but never read) *)
      (m.K.fault_on_unmapped <- true;
       Hashtbl.fold
         (fun idx b ok ->
           ok
           && (idx = 0
              || Bytes.equal b (K.read_bytes m ~addr:(idx lsl K.page_shift) ~len:K.page_size)))
         pages true))

(* ------------------------------------------------------------------ *)
(* Slab: live objects never overlap; freed slots are reused.            *)(* ------------------------------------------------------------------ *)
(* Slab: live objects never overlap; freed slots are reused.            *)
(* ------------------------------------------------------------------ *)

let arb_slab_ops =
  QCheck.make
    QCheck.Gen.(list_size (int_bound 100) (pair bool (map (fun s -> 1 + s) (int_bound 300))))

let prop_slab_no_overlap =
  QCheck.Test.make ~count:100 ~name:"live slab objects never overlap" arb_slab_ops
    (fun ops ->
      let mem = Kernel_sim.Kmem.create () in
      let cycles = Kernel_sim.Kcycles.create () in
      let s = Kernel_sim.Slab.create mem cycles in
      let live = ref [] in
      List.iter
        (fun (free, size) ->
          if free && !live <> [] then begin
            let a = List.hd !live in
            live := List.tl !live;
            Kernel_sim.Slab.kfree s a
          end
          else begin
            let a = Kernel_sim.Slab.kmalloc s size in
            live := !live @ [ a ]
          end)
        ops;
      (* check pairwise disjointness of live objects *)
      let ranges =
        List.map (fun a -> (a, Kernel_sim.Slab.usable_size s a)) !live
      in
      let rec disjoint = function
        | [] -> true
        | (a, sa) :: rest ->
            List.for_all (fun (b, sb) -> a + sa <= b || b + sb <= a) rest
            && disjoint rest
      in
      disjoint ranges)

(* ------------------------------------------------------------------ *)
(* Transfer revokes everywhere: no principal retains an intersecting    *)
(* WRITE capability after revoke_from_all.                              *)
(* ------------------------------------------------------------------ *)

let prop_revoke_leaves_no_copies =
  QCheck.Test.make ~count:100 ~name:"revoke_from_all leaves no copies"
    (QCheck.make
       QCheck.Gen.(
         list_size (int_bound 20)
           (pair (int_bound 3) (pair (int_bound 512) (map (fun s -> 8 + (8 * s)) (int_bound 16))))))
    (fun grants ->
      let kst = Kernel_sim.Kstate.boot () in
      let rt = Lxfi.Runtime.create ~kst ~config:Lxfi.Config.lxfi in
      (* one module, several principals *)
      let prog =
        Mir.Builder.prog "m" ~imports:[] ~globals:[]
          ~funcs:[ Mir.Builder.func "module_init" [] [ Mir.Builder.ret0 ] ]
      in
      let mi, _ = Lxfi.Loader.load rt prog in
      let principals =
        [|
          mi.Lxfi.Runtime.mi_shared;
          Lxfi.Runtime.find_or_create_instance rt mi ~name_ptr:0x9000;
          Lxfi.Runtime.find_or_create_instance rt mi ~name_ptr:0xa000;
          mi.Lxfi.Runtime.mi_global;
        |]
      in
      List.iter
        (fun (p, (off, size)) ->
          Lxfi.Runtime.grant rt principals.(p)
            (Lxfi.Capability.Cwrite { base = 0x2_0000_0000 + (off * 16); size }))
        grants;
      (* revoke a range covering part of the arena *)
      let rbase = 0x2_0000_0000 + 1024 and rsize = 2048 in
      Lxfi.Runtime.revoke_from_all rt (Lxfi.Capability.Cwrite { base = rbase; size = rsize });
      (* no principal may hold WRITE on any byte of the revoked range
         that came from an intersecting grant *)
      Array.for_all
        (fun p ->
          let leaked = ref false in
          Lxfi.Captable.fold_writes p.Lxfi.Principal.caps
            (fun () ~base ~size ->
              if base < rbase + rsize && rbase < base + size then leaked := true)
            ();
          not !leaked)
        principals)

(* ------------------------------------------------------------------ *)
(* Holder index = the walk over every principal.  The reference         *)
(* queries below walk [all_principals], as the paper's runtime does;    *)
(* the runtime answers the same questions from its holder index.        *)
(* ------------------------------------------------------------------ *)

type hcap = Hw of int * int | Hc of int | Hr of string * int

type hop =
  | Hgrant of int * hcap  (** principal (pool index), capability *)
  | Htransfer of int * hcap  (** revoke from all, then grant *)
  | Hrevoke of hcap
  | Hinstance of int * int  (** module, name *)
  | Hquarantine of int
  | Hreload of int  (** unload the module and load it again *)
  | Hcapture of int
  | Hrestore of int
  | Hrestore_filtered of int * int  (** module, filter seed *)

let h_arena = 0x2_2000_0000
let h_page = 1 lsl Lxfi.Captable.slot_shift
let h_targets = List.init 6 (fun k -> 0x1_0000_4000 + (16 * k))
let h_refs =
  List.concat_map
    (fun r -> List.init 3 (fun k -> (r, 0x2_2800_0000 + (64 * k))))
    [ "sock"; "pci_dev" ]

(* Probe words: across the small-range pages, and through the region
   only blanket ranges reach. *)
let h_probes =
  List.init 40 (fun k -> h_arena + (k * 0x1a8) + 4)
  @ List.init 10 (fun k -> h_arena + ((10 + (7 * k)) * h_page) + 0x10)

let to_cap = function
  | Hw (base, size) -> Lxfi.Capability.Cwrite { base; size }
  | Hc target -> Lxfi.Capability.Ccall { target }
  | Hr (rtype, addr) -> Lxfi.Capability.Cref { rtype; addr }

let gen_hcap =
  QCheck.Gen.(
    frequency
      [
        ( 5,
          map2
            (fun off size -> Hw (h_arena + (8 * off), size))
            (int_bound (8 * h_page / 8))
            (frequency
               [
                 (4, map (fun s -> 8 * (1 + s)) (int_bound 40));
                 (2, map (fun s -> 64 * (1 + s)) (int_bound (3 * h_page / 64)));
                 ( 1,
                   map
                     (fun s -> (Lxfi.Captable.big_range_pages + 1 + s) * h_page)
                     (int_bound 4) );
               ]) );
        (2, map (fun t -> Hc t) (oneofl h_targets));
        (2, map (fun (r, a) -> Hr (r, a)) (oneofl h_refs));
      ])

let gen_hop =
  QCheck.Gen.(
    let pi = int_bound 1000 and mi = int_bound 1 in
    frequency
      [
        (6, map2 (fun p c -> Hgrant (p, c)) pi gen_hcap);
        (3, map2 (fun p c -> Htransfer (p, c)) pi gen_hcap);
        (3, map (fun c -> Hrevoke c) gen_hcap);
        (4, map2 (fun m n -> Hinstance (m, n)) mi (int_bound 20));
        (1, map (fun p -> Hquarantine p) pi);
        (1, map (fun m -> Hreload m) mi);
        (1, map (fun m -> Hcapture m) mi);
        (1, map (fun m -> Hrestore m) mi);
        (1, map2 (fun m k -> Hrestore_filtered (m, k)) mi (int_bound 7));
      ])

let show_hcap c = Lxfi.Capability.to_string (to_cap c)

let show_hop = function
  | Hgrant (p, c) -> Printf.sprintf "grant(%d,%s)" p (show_hcap c)
  | Htransfer (p, c) -> Printf.sprintf "transfer(%d,%s)" p (show_hcap c)
  | Hrevoke c -> Printf.sprintf "revoke(%s)" (show_hcap c)
  | Hinstance (m, n) -> Printf.sprintf "instance(%d,%d)" m n
  | Hquarantine p -> Printf.sprintf "quarantine(%d)" p
  | Hreload m -> Printf.sprintf "reload(%d)" m
  | Hcapture m -> Printf.sprintf "capture(%d)" m
  | Hrestore m -> Printf.sprintf "restore(%d)" m
  | Hrestore_filtered (m, k) -> Printf.sprintf "restore_filtered(%d,%d)" m k

let arb_hops =
  QCheck.make
    ~print:(fun l -> String.concat "; " (List.map show_hop l))
    QCheck.Gen.(list_size (int_bound 40) gen_hop)

let ids_of ps = List.map (fun (p : Lxfi.Principal.t) -> p.Lxfi.Principal.id) ps

let by_id ps =
  List.sort
    (fun (a : Lxfi.Principal.t) b -> compare a.Lxfi.Principal.id b.Lxfi.Principal.id)
    ps

(* A table's contents in canonical order. *)
let table_contents (t : Lxfi.Captable.t) =
  ( Lxfi.Captable.fold_writes t (fun acc ~base ~size -> (base, size) :: acc) []
    |> List.sort compare,
    Lxfi.Captable.fold_calls t (fun acc ~target -> target :: acc) [] |> List.sort compare,
    Lxfi.Captable.fold_refs t (fun acc ~rtype ~addr -> (rtype, addr) :: acc) []
    |> List.sort compare )

(* What a table holds after the walk-based revoke of [c]: the same
   contents rebuilt in a fresh table, then the removal applied to it. *)
let revoked_contents (t : Lxfi.Captable.t) c =
  let w, calls, refs = table_contents t in
  let copy = Lxfi.Captable.create () in
  List.iter (fun (base, size) -> Lxfi.Captable.add_write copy ~base ~size) w;
  List.iter (fun target -> Lxfi.Captable.add_call copy ~target) calls;
  List.iter (fun (rtype, addr) -> Lxfi.Captable.add_ref copy ~rtype ~addr) refs;
  (match c with
  | Lxfi.Capability.Cwrite { base; size } ->
      ignore (Lxfi.Captable.remove_write_intersecting copy ~base ~size)
  | Lxfi.Capability.Ccall { target } -> Lxfi.Captable.remove_call copy ~target
  | Lxfi.Capability.Cref { rtype; addr } -> Lxfi.Captable.remove_ref copy ~rtype ~addr);
  table_contents copy

let ref_writers_of rt ~addr =
  List.filter
    (fun (p : Lxfi.Principal.t) ->
      Lxfi.Captable.find_write_covering p.Lxfi.Principal.caps ~addr <> None)
    (Lxfi.Runtime.all_principals rt)
  |> by_id

(* The global principal's implicit access (§3.1), by walking its module. *)
let ref_global_has rt (p : Lxfi.Principal.t) c =
  let table_has (t : Lxfi.Captable.t) =
    match c with
    | Lxfi.Capability.Cwrite { base; size } ->
        Lxfi.Captable.has_write_uncached t ~addr:base ~size
    | Lxfi.Capability.Ccall { target } -> Lxfi.Captable.has_call t ~target
    | Lxfi.Capability.Cref { rtype; addr } -> Lxfi.Captable.has_ref t ~rtype ~addr
  in
  p.Lxfi.Principal.quarantined = None
  && (table_has p.Lxfi.Principal.caps
     ||
     match Hashtbl.find_opt rt.Lxfi.Runtime.modules p.Lxfi.Principal.owner with
     | None -> false
     | Some mi ->
         List.exists
           (fun (q : Lxfi.Principal.t) ->
             q.Lxfi.Principal.quarantined = None && table_has q.Lxfi.Principal.caps)
           mi.Lxfi.Runtime.mi_principals)

(* The (cell, principal id) pairs the index must hold: exactly the cells
   the registered principals' tables occupy. *)
let ref_index_pairs rt =
  List.concat_map
    (fun (p : Lxfi.Principal.t) ->
      let c = p.Lxfi.Principal.caps and id = p.Lxfi.Principal.id in
      let cells tbl cell = Hashtbl.fold (fun k _ acc -> (cell k, id) :: acc) tbl [] in
      cells c.Lxfi.Captable.writes (fun s -> Lxfi.Holders.Wslot s)
      @ (if c.Lxfi.Captable.big <> [] then [ (Lxfi.Holders.Wbig, id) ] else [])
      @ cells c.Lxfi.Captable.calls (fun t -> Lxfi.Holders.Call t)
      @ cells c.Lxfi.Captable.refs (fun (r, a) -> Lxfi.Holders.Ref (r, a)))
    (Lxfi.Runtime.all_principals rt)
  |> List.sort compare

let index_pairs rt =
  Lxfi.Holders.fold rt.Lxfi.Runtime.holders
    (fun acc cell (p : Lxfi.Principal.t) -> (cell, p.Lxfi.Principal.id) :: acc)
    []
  |> List.sort compare

let h_prog name =
  Mir.Builder.prog name ~imports:[] ~globals:[ Mir.Builder.global "state" 64 ]
    ~funcs:[ Mir.Builder.func "module_init" [] [ Mir.Builder.ret0 ] ]

let prop_holder_index_matches_walk =
  QCheck.Test.make ~count:100 ~name:"holder index = walk over all principals" arb_hops
    (fun ops ->
      let kst = Kernel_sim.Kstate.boot () in
      let rt = Lxfi.Runtime.create ~kst ~config:Lxfi.Config.lxfi in
      let names = [| "ma"; "mb" |] in
      let mods = Array.map (fun n -> fst (Lxfi.Loader.load rt (h_prog n))) names in
      let snaps = Array.make 2 None in
      (* every principal ever created, registered or not *)
      let pool = ref [] in
      let refresh () =
        List.iter
          (fun p -> if not (List.memq p !pool) then pool := !pool @ [ p ])
          (by_id (Lxfi.Runtime.all_principals rt))
      in
      refresh ();
      let pick i = List.nth !pool (i mod List.length !pool) in
      let contents_of () =
        List.map (fun (p : Lxfi.Principal.t) -> table_contents p.Lxfi.Principal.caps) !pool
      in
      (* [revoke] and the walk must leave every table the same. *)
      let checked_revoke c =
        let expected =
          List.map
            (fun (p : Lxfi.Principal.t) ->
              if p.Lxfi.Principal.registered then revoked_contents p.Lxfi.Principal.caps c
              else table_contents p.Lxfi.Principal.caps)
            !pool
        in
        Lxfi.Runtime.revoke_from_all rt c;
        contents_of () = expected
      in
      let step op =
        match op with
        | Hgrant (i, c) ->
            Lxfi.Runtime.grant rt (pick i) (to_cap c);
            true
        | Htransfer (i, c) ->
            let ok = checked_revoke (to_cap c) in
            Lxfi.Runtime.grant rt (pick i) (to_cap c);
            ok
        | Hrevoke c -> checked_revoke (to_cap c)
        | Hinstance (m, n) ->
            ignore (Lxfi.Runtime.find_or_create_instance rt mods.(m) ~name_ptr:(0x9000 + n));
            true
        | Hquarantine i ->
            Lxfi.Quarantine.quarantine_principal rt (pick i) ~reason:"prop";
            true
        | Hreload m ->
            Lxfi.Loader.unload rt mods.(m);
            mods.(m) <- fst (Lxfi.Loader.load rt (h_prog names.(m)));
            true
        | Hcapture m ->
            snaps.(m) <- Some (Lxfi.Snapshot.capture rt mods.(m));
            true
        | Hrestore m ->
            Option.iter (Lxfi.Snapshot.restore rt mods.(m)) snaps.(m);
            true
        | Hrestore_filtered (m, k) ->
            let keep h = Hashtbl.hash (k, h) land 3 <> 0 in
            let f =
              {
                Lxfi.Snapshot.keep_write = (fun ~base ~size -> keep (base, size));
                keep_call = (fun ~target -> keep target);
                keep_ref = (fun ~rtype ~addr -> keep (rtype, addr));
                keep_instances = k land 1 = 0;
              }
            in
            Option.iter
              (fun sn -> ignore (Lxfi.Snapshot.restore_filtered rt mods.(m) sn f))
              snaps.(m);
            true
      in
      let caps_probed =
        List.map (fun a -> Lxfi.Capability.Cwrite { base = a; size = 8 }) h_probes
        @ List.map (fun target -> Lxfi.Capability.Ccall { target }) h_targets
        @ List.map (fun (rtype, addr) -> Lxfi.Capability.Cref { rtype; addr }) h_refs
      in
      let agrees () =
        List.for_all
          (fun addr ->
            ids_of (Lxfi.Runtime.writers_of rt ~addr) = ids_of (ref_writers_of rt ~addr))
          (Kernel_sim.Kmem.Layout.user_base + 0x40 :: h_probes)
        && index_pairs rt = ref_index_pairs rt
        && Array.for_all
             (fun mi ->
               let g = mi.Lxfi.Runtime.mi_global in
               List.for_all
                 (fun c -> Lxfi.Runtime.principal_has rt g c = ref_global_has rt g c)
                 caps_probed)
             mods
      in
      List.for_all
        (fun op ->
          let ok = step op in
          refresh ();
          ok && agrees ())
        ops)

(* ------------------------------------------------------------------ *)
(* Interpreter arithmetic matches Int64 reference semantics.            *)
(* ------------------------------------------------------------------ *)

let arb_binop_case =
  QCheck.make
    ~print:(fun (op, a, b) ->
      Printf.sprintf "%s %Ld %Ld" (Mir.Printer.binop_symbol op) a b)
    QCheck.Gen.(
      triple
        (oneofl
           Mir.Ast.
             [ Add; Sub; Mul; Band; Bor; Bxor; Shl; Lshr; Eq; Ne; Lt; Le; Gt; Ge; Ult ])
        (map Int64.of_int int) (map Int64.of_int int))

let reference_binop op a b =
  let bool_ x = if x then 1L else 0L in
  match op with
  | Mir.Ast.Add -> Int64.add a b
  | Mir.Ast.Sub -> Int64.sub a b
  | Mir.Ast.Mul -> Int64.mul a b
  | Mir.Ast.Band -> Int64.logand a b
  | Mir.Ast.Bor -> Int64.logor a b
  | Mir.Ast.Bxor -> Int64.logxor a b
  | Mir.Ast.Shl -> Int64.shift_left a (Int64.to_int b land 63)
  | Mir.Ast.Lshr -> Int64.shift_right_logical a (Int64.to_int b land 63)
  | Mir.Ast.Eq -> bool_ (a = b)
  | Mir.Ast.Ne -> bool_ (a <> b)
  | Mir.Ast.Lt -> bool_ (Int64.compare a b < 0)
  | Mir.Ast.Le -> bool_ (Int64.compare a b <= 0)
  | Mir.Ast.Gt -> bool_ (Int64.compare a b > 0)
  | Mir.Ast.Ge -> bool_ (Int64.compare a b >= 0)
  | Mir.Ast.Ult -> bool_ (Int64.unsigned_compare a b < 0)
  | _ -> assert false

let prop_interp_arithmetic =
  QCheck.Test.make ~count:500 ~name:"interpreter binop = Int64 reference"
    arb_binop_case (fun (op, a, b) ->
      Int64.equal
        (Mir.Interp.eval_binop op Mir.Ast.W64 a b)
        (reference_binop op a b))

let prop_truncation =
  QCheck.Test.make ~count:300 ~name:"width truncation masks correctly"
    (QCheck.make QCheck.Gen.(map Int64.of_int int))
    (fun v ->
      Int64.equal (Mir.Interp.truncate Mir.Ast.W32 v) (Int64.logand v 0xffff_ffffL)
      && Int64.equal (Mir.Interp.truncate Mir.Ast.W16 v) (Int64.logand v 0xffffL)
      && Int64.equal (Mir.Interp.truncate Mir.Ast.W8 v) (Int64.logand v 0xffL)
      && Int64.equal (Mir.Interp.truncate Mir.Ast.W64 v) v)

(* ------------------------------------------------------------------ *)
(* Fault injection: any seed / fault class / workload / injection       *)
(* point leaves the containment invariants intact (shadow stack,        *)
(* kernel principal, revoked capabilities, surviving bystander).        *)
(* ------------------------------------------------------------------ *)

let prop_faultsim_invariants =
  QCheck.Test.make ~count:24
    ~name:"fault injection preserves containment invariants"
    (QCheck.make
       ~print:(fun (seed, c, w, k) ->
         Printf.sprintf "seed=%d class=%s workload=%s nth=%d" seed
           (Workloads.Faultsim.class_name (List.nth Workloads.Faultsim.classes c))
           (List.nth Workloads.Faultsim.workload_names w)
           k)
       QCheck.Gen.(
         quad (int_bound 100_000)
           (int_bound (List.length Workloads.Faultsim.classes - 1))
           (int_bound (List.length Workloads.Faultsim.workload_names - 1))
           (map (fun k -> 1 + k) (int_bound 9))))
    (fun (seed, c, w, k) ->
      let fclass = List.nth Workloads.Faultsim.classes c in
      let workload = List.nth Workloads.Faultsim.workload_names w in
      let _row, breaches =
        Workloads.Faultsim.run_cell ~seed fclass ~workload
          ~plan:(Kernel_sim.Finject.Nth k)
      in
      breaches = [])

let prop_faultsim_deterministic =
  QCheck.Test.make ~count:3 ~name:"faultsim report is a pure function of the seed"
    (QCheck.make ~print:string_of_int QCheck.Gen.(int_bound 1000))
    (fun seed -> Workloads.Faultsim.run ~seed () = Workloads.Faultsim.run ~seed ())

(* ------------------------------------------------------------------ *)
(* The flow index answers exactly as the list scan it replaces.         *)
(* ------------------------------------------------------------------ *)

let flow_names = [ "kmalloc"; "kfree"; "spin_lock"; "spin_unlock"; "netif_rx"; "printk" ]

let arb_flow_graph =
  let name = QCheck.Gen.oneofl flow_names in
  QCheck.make
    ~print:(fun g -> Check.Apiflow.render g)
    QCheck.Gen.(
      map3
        (fun nodes start edges ->
          { Check.Apiflow.g_module = "m"; g_nodes = nodes; g_start = start; g_edges = edges })
        (list_size (int_bound 6) name)
        (list_size (int_bound 6) name)
        (list_size (int_bound 30) (pair name name)))

let prop_flow_index_matches_scan =
  QCheck.Test.make ~count:500 ~name:"flow index = list scan (permits, has_node)" arb_flow_graph
    (fun g ->
      let ix = Check.Apiflow.Index.make g in
      let names = "vmalloc" :: flow_names (* one name no graph mentions *) in
      List.for_all
        (fun k ->
          Check.Apiflow.Index.has_node ix k = Check.Apiflow.has_node g k
          && List.for_all
               (fun pos ->
                 Check.Apiflow.Index.permits ix ~pos k = Check.Apiflow.permits g ~pos k)
               (None :: List.map Option.some names))
        names)

(* ------------------------------------------------------------------ *)
(* Layout constants equal the registry of a booted system.              *)
(* ------------------------------------------------------------------ *)

(* The subsystems take field offsets from module-level layout values
   instead of asking the registry.  Both halves are checked: the
   layouts are what a booted system registers, and each accessor reads
   and writes exactly the bytes the registry names for its field. *)
let prop_layout_constants_match_registry =
  let open Kernel_sim in
  let layouts =
    (Skbuff.layout :: Task.layout :: Shm.layout :: Netdev.layouts)
    @ Sockets.layouts @ Blockdev.layouts @ Sound.layouts @ Pci.layouts
  in
  QCheck.Test.make ~count:30 ~name:"layout constants = Ktypes registry of a booted system"
    (QCheck.make
       QCheck.Gen.(
         quad
           (oneofl [ Lxfi.Config.stock; Lxfi.Config.lxfi; Lxfi.Config.lxfi_quarantine ])
           (int_range 1 2000) (int_range 1 0xffff) (int_range 1 0xffff)))
    (fun (config, len, a, b) ->
      let sys = Kmodules.Ksys.boot config in
      let kst = sys.Kmodules.Ksys.kst in
      let types = kst.Kstate.types and mem = kst.Kstate.mem in
      let off s f = Ktypes.offset types s f in
      let u32 addr s f = Kmem.read_u32 mem (addr + off s f) in
      let ptr addr s f = Kmem.read_ptr mem (addr + off s f) in
      let registered =
        List.for_all
          (fun (l : Ktypes.strct) ->
            Ktypes.sizeof types l.Ktypes.s_name = l.Ktypes.s_size
            && List.for_all
                 (fun (f : Ktypes.field) -> Ktypes.field types l.Ktypes.s_name f.Ktypes.f_name = f)
                 l.Ktypes.s_fields)
          layouts
        (* and the registry holds nothing the subsystems did not declare *)
        && List.for_all (fun s -> List.mem s layouts) (Ktypes.all types)
        && Skbuff.size = Ktypes.sizeof types "sk_buff"
        && Blockdev.bio_size = Ktypes.sizeof types "bio"
        && Sound.card_size = Ktypes.sizeof types "snd_card"
      in
      let skb = Skbuff.alloc kst len in
      Skbuff.set_dev kst skb a;
      let built = Skbuff.build kst skb b in
      let skbuff_ok =
        u32 skb "sk_buff" "len" = len
        && Skbuff.len kst skb = len
        && ptr skb "sk_buff" "data" = Skbuff.data kst skb
        && ptr skb "sk_buff" "head" = Skbuff.data kst skb
        && u32 skb "sk_buff" "truesize" = Slab.usable_size kst.Kstate.slab (Skbuff.data kst skb)
        && ptr skb "sk_buff" "dev" = a
        && Skbuff.dev kst skb = a
        && ptr built "sk_buff" "head" = skb
        && Skbuff.data kst built = skb
        && u32 built "sk_buff" "len" = b
      in
      let net = sys.Kmodules.Ksys.net in
      let dev = Netdev.alloc_netdev net ~name:"eth0" in
      let q = ptr dev "net_device" "qdisc" in
      Kmem.write_u64 mem (dev + off "net_device" "rx_bytes") (Int64.of_int b);
      let netdev_ok =
        u32 dev "net_device" "mtu" = 1500
        && Netdev.dev_name net dev = "eth0"
        && ptr q "qdisc" "enqueue" = net.Netdev.pfifo_enqueue_addr
        && ptr q "qdisc" "dequeue" = net.Netdev.pfifo_dequeue_addr
        && Netdev.stats net dev = (0, 0, 0, b)
      in
      let task = Kstate.spawn_task kst ~uid:a ~comm:"prop" in
      Task.set_addr_limit mem task Task.kernel_ds;
      let task_ok =
        u32 task.Task.addr "task_struct" "uid" = a
        && u32 task.Task.addr "task_struct" "euid" = a
        && u32 task.Task.addr "task_struct" "pid" = task.Task.pid
        && Kmem.read_u64 mem (task.Task.addr + off "task_struct" "addr_limit")
           = Int64.of_int Task.kernel_ds
        && Task.field_addr task "comm" = task.Task.addr + off "task_struct" "comm"
        && Task.comm mem task = "prop"
      in
      let pci = sys.Kmodules.Ksys.pci in
      let pdev = Pci.add_device pci ~vendor:a ~device:b ~bar_len:len in
      let pci_ok =
        u32 pdev "pci_dev" "vendor" = a
        && u32 pdev "pci_dev" "device" = b
        && u32 pdev "pci_dev" "bar0_len" = len
        && Pci.bar0 pci pdev = ptr pdev "pci_dev" "bar0"
        && Pci.ioport pci pdev = u32 pdev "pci_dev" "ioport"
      in
      let blk = sys.Kmodules.Ksys.blk in
      let bio = Blockdev.alloc_bio blk ~sector:a ~size:len ~rw:1 in
      let blk_ok =
        Kmem.read_u64 mem (bio + off "bio" "sector") = Int64.of_int a
        && u32 bio "bio" "size" = len
        && Blockdev.bio_bytes blk bio = len
        && u32 bio "bio" "rw" = 1
        && Blockdev.bio_data blk bio = ptr bio "bio" "data"
      in
      let snd = sys.Kmodules.Ksys.snd in
      let card = Sound.snd_card_create snd ~name:"card" ~dma_bytes:len in
      let snd_ok =
        Sound.dma_bytes snd card = u32 card "snd_card" "dma_bytes"
        && u32 card "snd_card" "dma_bytes" = len
        && Sound.dma_area snd card = ptr card "snd_card" "dma_area"
      in
      let sock = sys.Kmodules.Ksys.sock in
      let npf = Slab.kmalloc kst.Kstate.slab (Ktypes.sizeof types "net_proto_family") in
      Kmem.write_u32 mem (npf + off "net_proto_family" "family") 77;
      let sock_ok =
        Sockets.sock_register sock npf = 0L && Sockets.sock_register sock npf = -17L
      in
      registered && skbuff_ok && netdev_ok && task_ok && pci_ok && blk_ok && snd_ok && sock_ok)

let () =
  Kernel_sim.Klog.quiet ();
  Alcotest.run "properties"
    [
      ( "qcheck",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_captable_matches_model;
            prop_writer_set_no_false_negatives;
            prop_writer_set_matches_model;
            prop_annot_roundtrip;
            prop_annot_hash_stable;
            prop_registry_define_consistent;
            prop_kmem_matches_bytes;
            prop_kmem_cache_matches_model;
            prop_slab_no_overlap;
            prop_revoke_leaves_no_copies;
            prop_holder_index_matches_walk;
            prop_interp_arithmetic;
            prop_truncation;
            prop_faultsim_invariants;
            prop_faultsim_deterministic;
            prop_flow_index_matches_scan;
            prop_layout_constants_match_registry;
          ] );
    ]
