(* Tests of the runtime reference monitor: guards, wrappers, annotation
   semantics, the kernel indirect-call checker, and the privileged
   builtins. *)

open Kernel_sim
open Lxfi

let boot ?(config = Config.lxfi) () =
  let kst = Kstate.boot () in
  let rt = Runtime.create ~kst ~config in
  Runtime.install rt;
  (kst, rt)

(* A module with a writable global and an exported entry point used to
   exercise the wrapper path. *)
let probe_prog : Mir.Ast.prog =
  let open Mir.Builder in
  prog "probe_mod" ~imports:[ "kzalloc_like"; "take_buffer" ]
    ~globals:[ global "scratch" 64 ]
    ~funcs:
      [
        func "entry" [ "arg" ]
          [ store64 (glob "scratch") (v "arg"); ret (load64 (glob "scratch")) ]
          ~export:"test.entry";
      ]

let setup ?(config = Config.lxfi) () =
  let kst, rt = boot ~config () in
  ignore
    (Annot.Registry.define_exn rt.Runtime.registry ~name:"test.entry" ~params:[ "arg" ]
       ~annot_src:"principal(arg)");
  (* kzalloc_like grants WRITE for its return; take_buffer transfers a
     buffer away from the caller. *)
  let heap = ref 0x2_0100_0000 in
  ignore
    (Runtime.register_kexport_exn rt ~name:"kzalloc_like" ~params:[ "size" ]
       ~annot_src:"post(if (return != 0) copy(write, return, size))" (fun args ->
         let size = Int64.to_int (List.nth args 0) in
         let a = !heap in
         heap := !heap + ((size + 15) land lnot 15);
         Kmem.map kst.Kstate.mem ~addr:a ~len:size;
         Int64.of_int a));
  ignore
    (Runtime.register_kexport_exn rt ~name:"take_buffer" ~params:[ "buf"; "size" ]
       ~annot_src:"pre(transfer(write, buf, size))" (fun _ -> 0L));
  let mi, _ = Loader.load rt probe_prog in
  (kst, rt, mi)

let test_guard_write_allows_owned () =
  let _, rt, mi = setup () in
  rt.Runtime.current <- Some mi.Runtime.mi_shared;
  let data =
    match List.find_opt (fun (n, _, _) -> n = "data") mi.Runtime.mi_sections with
    | Some (_, base, _) -> base
    | None -> Alcotest.fail "no data section"
  in
  Runtime.guard_write rt mi ~addr:data ~size:8 (* must not raise *)

let test_guard_write_denies_foreign () =
  let kst, rt, mi = setup () in
  rt.Runtime.current <- Some mi.Runtime.mi_shared;
  let victim = Slab.kmalloc kst.Kstate.slab 64 in
  try
    Runtime.guard_write rt mi ~addr:victim ~size:8;
    Alcotest.fail "expected write-denied"
  with Violation.Violation v ->
    Alcotest.(check string) "kind" "write-denied" (Violation.kind_name v.Violation.v_kind)

let test_guard_write_user_space_allowed () =
  let kst, rt, mi = setup () in
  rt.Runtime.current <- Some mi.Runtime.mi_shared;
  let u = Kstate.user_alloc kst 64 in
  Runtime.guard_write rt mi ~addr:u ~size:8 (* blanket user window *)

let test_guard_indcall () =
  let _, rt, mi = setup () in
  rt.Runtime.current <- Some mi.Runtime.mi_shared;
  let own = Hashtbl.find mi.Runtime.mi_func_addr "entry" in
  Runtime.guard_indcall rt mi ~target:own (* own functions callable *);
  try
    Runtime.guard_indcall rt mi ~target:0xdead0;
    Alcotest.fail "expected call-denied"
  with Violation.Violation v ->
    Alcotest.(check string) "kind" "call-denied" (Violation.kind_name v.Violation.v_kind)

let test_kexport_grant_flow () =
  let _, rt, mi = setup () in
  rt.Runtime.current <- Some mi.Runtime.mi_shared;
  let ke = Runtime.find_kexport rt "kzalloc_like" in
  let buf = Int64.to_int (Runtime.call_kexport rt ke [ 128L ]) in
  Alcotest.(check bool) "WRITE granted by post(copy)" true
    (Runtime.principal_has rt mi.Runtime.mi_shared
       (Capability.Cwrite { base = buf; size = 128 }));
  (* transfer takes it away again *)
  let tk = Runtime.find_kexport rt "take_buffer" in
  ignore (Runtime.call_kexport rt tk [ Int64.of_int buf; 128L ]);
  Alcotest.(check bool) "WRITE revoked by pre(transfer)" false
    (Runtime.principal_has rt mi.Runtime.mi_shared
       (Capability.Cwrite { base = buf; size = 128 }))

let test_transfer_requires_ownership () =
  let _, rt, mi = setup () in
  rt.Runtime.current <- Some mi.Runtime.mi_shared;
  let tk = Runtime.find_kexport rt "take_buffer" in
  try
    ignore (Runtime.call_kexport rt tk [ Int64.of_int 0x2_00dd_dd00; 64L ]);
    Alcotest.fail "expected violation"
  with Violation.Violation v ->
    Alcotest.(check string) "cap source checked" "write-denied"
      (Violation.kind_name v.Violation.v_kind)

let test_conditional_post_respects_return () =
  let kst, rt, mi = setup () in
  ignore kst;
  rt.Runtime.current <- Some mi.Runtime.mi_shared;
  (* kzalloc_like with size 0 still returns nonzero here; simulate the
     conditional by a new export returning 0 *)
  ignore
    (Runtime.register_kexport_exn rt ~name:"failing_alloc" ~params:[ "size" ]
       ~annot_src:"post(if (return != 0) copy(write, return, size))" (fun _ -> 0L));
  let ke = Runtime.find_kexport rt "failing_alloc" in
  let granted0 = rt.Runtime.stats.Stats.caps_granted in
  ignore (Runtime.call_kexport rt ke [ 64L ]);
  Alcotest.(check int) "no grant on failure return" granted0
    rt.Runtime.stats.Stats.caps_granted

let test_wrapper_principal_selection () =
  let _, rt, mi = setup () in
  (* kernel invokes the module's entry through its slot: principal(arg)
     names the instance by the first argument *)
  ignore (Runtime.invoke_module_function rt mi "entry" [ 0x7777L ]);
  Alcotest.(check bool) "instance principal created" true
    (Hashtbl.mem mi.Runtime.mi_aliases 0x7777);
  Alcotest.(check bool) "current restored to kernel" true (rt.Runtime.current = None)

let test_unannotated_function_not_callable () =
  let _, rt, mi = setup () in
  (* direct kernel invocation of a module function with no slot type is
     the paper's unsafe default *)
  Hashtbl.remove mi.Runtime.mi_func_slot "entry";
  try
    ignore (Runtime.invoke_module_function rt mi "entry" [ 1L ]);
    Alcotest.fail "expected annotation violation"
  with Violation.Violation v ->
    Alcotest.(check string) "kind" "annotation-mismatch"
      (Violation.kind_name v.Violation.v_kind)

let test_kernel_indcall_hash_mismatch () =
  let kst, rt, mi = setup () in
  (* store the module's entry (hash of test.entry) into a slot of a
     DIFFERENT type: the runtime must refuse the laundering *)
  ignore
    (Annot.Registry.define_exn rt.Runtime.registry ~name:"test.other" ~params:[ "x" ]
       ~annot_src:"principal(global)");
  let data =
    match List.find_opt (fun (n, _, _) -> n = "data") mi.Runtime.mi_sections with
    | Some (_, base, _) -> base
    | None -> assert false
  in
  let entry = Hashtbl.find mi.Runtime.mi_func_addr "entry" in
  Kmem.write_ptr kst.Kstate.mem data entry;
  try
    ignore (Kstate.call_ptr kst ~slot:data ~ftype:"test.other" [ 1L ]);
    Alcotest.fail "expected annotation-mismatch"
  with Violation.Violation v ->
    Alcotest.(check string) "kind" "annotation-mismatch"
      (Violation.kind_name v.Violation.v_kind)

let test_kernel_indcall_matching_hash_ok () =
  let kst, _rt, mi = setup () in
  let data =
    match List.find_opt (fun (n, _, _) -> n = "data") mi.Runtime.mi_sections with
    | Some (_, base, _) -> base
    | None -> assert false
  in
  let entry = Hashtbl.find mi.Runtime.mi_func_addr "entry" in
  Kmem.write_ptr kst.Kstate.mem data entry;
  let r = Kstate.call_ptr kst ~slot:data ~ftype:"test.entry" [ 5L ] in
  Alcotest.(check int64) "dispatched through wrapper" 5L r

let data_of mi =
  match List.find_opt (fun (n, _, _) -> n = "data") mi.Runtime.mi_sections with
  | Some (_, base, _) -> base
  | None -> Alcotest.fail "no data section"

let describe_all ps = List.map Principal.describe ps
let ids ps = List.map (fun (p : Principal.t) -> p.Principal.id) ps
let entry_of mi = Hashtbl.find mi.Runtime.mi_func_addr "entry"

let expect_call_denied ~who f =
  match f () with
  | _ -> Alcotest.fail "expected call-denied"
  | exception Violation.Violation v ->
      Alcotest.(check string) "kind" "call-denied"
        (Violation.kind_name v.Violation.v_kind);
      Alcotest.(check (option string)) "reported writer" (Some who)
        (Option.map Principal.describe v.Violation.v_principal)

let test_writers_of () =
  let kst, rt, mi = setup () in
  (match Runtime.writers_of rt ~addr:(data_of mi) with
  | [ p ] -> Alcotest.(check string) "shared wrote the data section" "probe_mod/shared"
               (Principal.describe p)
  | l -> Alcotest.failf "expected one writer, got %d" (List.length l));
  (* kernel memory nobody was granted: no writers *)
  Alcotest.(check int) "kernel data has no writers" 0
    (List.length (Runtime.writers_of rt ~addr:0x2_0FFF_0000));
  (* a blanket range is found without a page-slot entry *)
  Alcotest.(check (list string)) "user window holder" [ "probe_mod/shared" ]
    (describe_all (Runtime.writers_of rt ~addr:(Kstate.user_alloc kst 64)));
  (* the query leaves every principal's guard cache alone *)
  let caps = mi.Runtime.mi_shared.Principal.caps in
  caps.Captable.last_hit <- None;
  ignore (Runtime.writers_of rt ~addr:(data_of mi));
  Alcotest.(check bool) "guard cache untouched" true (caps.Captable.last_hit = None)

(* One kernel slot written by principals of two modules: both are
   reported, in ascending principal id, and the one without CALL for the
   stored target fails the check. *)
let test_writers_of_two_modules () =
  let kst, rt, mi = setup () in
  let mi_b, _ = Loader.load rt { probe_prog with Mir.Ast.pname = "probe_b" } in
  let b_inst = Runtime.find_or_create_instance rt mi_b ~name_ptr:0xb0b0 in
  let slot = Slab.kmalloc kst.Kstate.slab 64 in
  Runtime.grant rt b_inst (Capability.Cwrite { base = slot; size = 64 });
  Runtime.grant rt mi.Runtime.mi_shared (Capability.Cwrite { base = slot; size = 64 });
  let ws = Runtime.writers_of rt ~addr:(slot + 8) in
  Alcotest.(check (list string)) "both writers"
    [ "probe_mod/shared"; "probe_b/instance(0xb0b0)" ]
    (describe_all ws);
  Alcotest.(check (list int)) "ascending id" (List.sort compare (ids ws)) (ids ws);
  Kmem.write_ptr kst.Kstate.mem slot (entry_of mi);
  expect_call_denied ~who:"probe_b/instance(0xb0b0)" (fun () ->
      Kstate.call_ptr kst ~slot ~ftype:"test.entry" [ 5L ])

(* A range large enough for the linear list still names its holder. *)
let test_writers_of_big_range () =
  let _, rt, mi = setup () in
  let p = Runtime.find_or_create_instance rt mi ~name_ptr:0x5151 in
  let base = 0x2_3000_0000 in
  let size = (Captable.big_range_pages + 1) lsl Captable.slot_shift in
  Alcotest.(check bool) "range is big" true (Captable.is_big ~base ~size);
  Runtime.grant rt p (Capability.Cwrite { base; size });
  Alcotest.(check (list string)) "interior word" [ "probe_mod/instance(0x5151)" ]
    (describe_all (Runtime.writers_of rt ~addr:(base + (size / 2))));
  Alcotest.(check int) "past the end" 0
    (List.length (Runtime.writers_of rt ~addr:(base + size)));
  Runtime.revoke_from_all rt (Capability.Cwrite { base; size });
  Alcotest.(check int) "revoked" 0
    (List.length (Runtime.writers_of rt ~addr:(base + (size / 2))))

(* A revoked writer's line stays marked (the writer set is sticky), so
   the call takes the checked path, finds no writer and dispatches. *)
let test_writers_of_revoked () =
  let kst, rt, mi = setup () in
  let p = Runtime.find_or_create_instance rt mi ~name_ptr:0x6161 in
  let slot = Slab.kmalloc kst.Kstate.slab 64 in
  Runtime.grant rt p (Capability.Cwrite { base = slot; size = 64 });
  Kmem.write_ptr kst.Kstate.mem slot (entry_of mi);
  Runtime.revoke_from_all rt (Capability.Cwrite { base = slot; size = 64 });
  Alcotest.(check bool) "line still marked" true
    (Writer_set.maybe_written rt.Runtime.wset slot);
  Alcotest.(check int) "no writers" 0 (List.length (Runtime.writers_of rt ~addr:slot));
  let checked0 = rt.Runtime.stats.Stats.kernel_indcall_checked in
  Alcotest.(check int64) "benign dispatch" 5L
    (Kstate.call_ptr kst ~slot ~ftype:"test.entry" [ 5L ]);
  Alcotest.(check int) "took the checked path" (checked0 + 1)
    rt.Runtime.stats.Stats.kernel_indcall_checked

(* A quarantined principal granted WRITE afterwards (a post action
   returning to it) is still a writer, and fails the CALL check. *)
let test_writers_of_quarantined () =
  let kst, rt, mi = setup () in
  let p = Runtime.find_or_create_instance rt mi ~name_ptr:0x7171 in
  Quarantine.quarantine_principal rt p ~reason:"test";
  let slot = Slab.kmalloc kst.Kstate.slab 64 in
  Runtime.grant rt p (Capability.Cwrite { base = slot; size = 64 });
  Alcotest.(check (list string)) "still reported" [ "probe_mod/instance(0x7171)" ]
    (describe_all (Runtime.writers_of rt ~addr:slot));
  Kmem.write_ptr kst.Kstate.mem slot (entry_of mi);
  expect_call_denied ~who:"probe_mod/instance(0x7171)" (fun () ->
      Kstate.call_ptr kst ~slot ~ftype:"test.entry" [ 5L ])

(* The checked kernel indirect call and the transfer revocation read the
   holder index, so what they allocate does not depend on how many
   principals exist: a walk over every principal would. *)
let test_flat_allocation () =
  let minor_words_of f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  let measure ~extra =
    let kst, rt, mi = setup () in
    for i = 1 to extra do
      let p = Runtime.find_or_create_instance rt mi ~name_ptr:(0x10_0000 + i) in
      let base = 0x2_4000_0000 + (i lsl Captable.slot_shift) in
      Runtime.grant rt p (Capability.Cwrite { base; size = 64 });
      Runtime.grant rt p (Capability.Ccall { target = entry_of mi })
    done;
    let slot = Slab.kmalloc kst.Kstate.slab 64 in
    Runtime.grant rt mi.Runtime.mi_shared (Capability.Cwrite { base = slot; size = 64 });
    Kmem.write_ptr kst.Kstate.mem slot (entry_of mi);
    let call () = ignore (Kstate.call_ptr kst ~slot ~ftype:"test.entry" [ 5L ]) in
    call ();
    let checked0 = rt.Runtime.stats.Stats.kernel_indcall_checked in
    let call_words = minor_words_of call in
    Alcotest.(check int) "checked path" (checked0 + 1)
      rt.Runtime.stats.Stats.kernel_indcall_checked;
    let cap = Capability.Cwrite { base = 0x2_0F00_0000; size = 64 } in
    Runtime.grant rt mi.Runtime.mi_shared cap;
    let revoke_words = minor_words_of (fun () -> Runtime.revoke_from_all rt cap) in
    Alcotest.(check int) "principals" (3 + extra)
      (List.length (Runtime.all_principals rt));
    (call_words, revoke_words)
  in
  let call_small, revoke_small = measure ~extra:0 in
  let call_large, revoke_large = measure ~extra:10_000 in
  Alcotest.(check (float 0.)) "checked call words, 3 vs 10,003 principals" call_small
    call_large;
  Alcotest.(check (float 0.)) "revoke words, 3 vs 10,003 principals" revoke_small
    revoke_large

let test_inspect_capture () =
  let _, rt, mi = setup () in
  ignore (Runtime.invoke_module_function rt mi "entry" [ 0x4242L ]);
  let view = Inspect.capture rt in
  Alcotest.(check string) "mode" "lxfi" view.Inspect.iv_mode;
  (match view.Inspect.iv_modules with
  | [ m ] ->
      Alcotest.(check string) "module" "probe_mod" m.Inspect.mv_name;
      Alcotest.(check bool) "instance principal visible" true
        (List.exists
           (fun p -> p.Inspect.pv_aliases = [ 0x4242 ])
           m.Inspect.mv_principals)
  | l -> Alcotest.failf "expected one module, got %d" (List.length l));
  Alcotest.(check bool) "render is non-trivial" true
    (String.length (Inspect.to_string rt) > 100)

let test_current_module () =
  let _, rt, mi = setup () in
  Alcotest.(check bool) "kernel context: no module" true (Runtime.current_module rt = None);
  rt.Runtime.current <- Some mi.Runtime.mi_shared;
  (match Runtime.current_module rt with
  | Some m -> Alcotest.(check string) "resolved" "probe_mod" m.Runtime.mi_name
  | None -> Alcotest.fail "current module lost");
  rt.Runtime.current <- None

let test_stats_move () =
  let _, rt, mi = setup () in
  rt.Runtime.current <- Some mi.Runtime.mi_shared;
  let s0 = Stats.snapshot rt.Runtime.stats in
  let ke = Runtime.find_kexport rt "kzalloc_like" in
  ignore (Runtime.call_kexport rt ke [ 16L ]);
  let d = Stats.since rt.Runtime.stats s0 in
  Alcotest.(check bool) "entry counted" true (d.Stats.s_fn_entry >= 1);
  Alcotest.(check bool) "annotation counted" true (d.Stats.s_annotation_actions >= 1)

(* Kernel-export arity.  Annotations are compiled to argument indices
   at registration: an extra argument is ignored, as the stock kernel
   ignores it, and a missing one is an oops — which quarantine contains
   like any other. *)
let arity_prog call =
  Mir.Parser.parse
    (Printf.sprintf
       {|module arity
imports: spin_lock_init, spin_lock, spin_unlock
global lock[8] in .bss
func module_init() {
  ext:spin_lock_init(&lock);
  return 0;
}
func cb0(n) exports fuzz.cb {
  %s;
  ext:spin_unlock(&lock);
  return 7;
}
|}
       call)

let run_arity config call =
  let sys = Kmodules.Ksys.boot config in
  let rt = sys.Kmodules.Ksys.rt in
  ignore
    (Annot.Registry.define_exn rt.Runtime.registry ~name:"fuzz.cb" ~params:[ "n" ]
       ~annot_src:"");
  let mi, _ = Kmodules.Ksys.load sys (arity_prog call) in
  ignore (Loader.init_call rt mi "module_init" []);
  let r = Quarantine.dispatch rt mi "cb0" [ 5L ] in
  Alcotest.(check int) "shadow stack back to the kernel frame" 0
    (Shadow_stack.depth rt.Runtime.sstack);
  r

let test_kexport_extra_argument () =
  List.iter
    (fun config ->
      Alcotest.(check int64)
        (Config.mode_name config.Config.mode ^ (if config.Config.quarantine then "+q" else ""))
        7L
        (run_arity config "ext:spin_lock(&lock, n)"))
    [ Config.stock; Config.lxfi; Config.lxfi_quarantine ]

let test_kexport_missing_argument () =
  Alcotest.(check int64) "contained as -EFAULT" (-14L)
    (run_arity Config.lxfi_quarantine "ext:spin_lock()");
  List.iter
    (fun config ->
      match run_arity config "ext:spin_lock()" with
      | _ -> Alcotest.fail "expected an oops"
      | exception Kstate.Oops _ -> ())
    [ Config.stock; Config.lxfi ]

let () =
  Klog.quiet ();
  Alcotest.run "runtime"
    [
      ( "module guards",
        [
          Alcotest.test_case "write to owned memory" `Quick test_guard_write_allows_owned;
          Alcotest.test_case "write to foreign memory" `Quick test_guard_write_denies_foreign;
          Alcotest.test_case "write to user space" `Quick test_guard_write_user_space_allowed;
          Alcotest.test_case "indirect call caps" `Quick test_guard_indcall;
        ] );
      ( "annotations",
        [
          Alcotest.test_case "grant flow (copy/transfer)" `Quick test_kexport_grant_flow;
          Alcotest.test_case "transfer checks ownership" `Quick
            test_transfer_requires_ownership;
          Alcotest.test_case "conditional post" `Quick test_conditional_post_respects_return;
          Alcotest.test_case "extra kexport argument ignored" `Quick
            test_kexport_extra_argument;
          Alcotest.test_case "missing kexport argument oopses" `Quick
            test_kexport_missing_argument;
        ] );
      ( "wrappers",
        [
          Alcotest.test_case "principal selection" `Quick test_wrapper_principal_selection;
          Alcotest.test_case "unannotated functions blocked" `Quick
            test_unannotated_function_not_callable;
          Alcotest.test_case "stats counted" `Quick test_stats_move;
          Alcotest.test_case "writers_of" `Quick test_writers_of;
          Alcotest.test_case "writers_of: two modules" `Quick test_writers_of_two_modules;
          Alcotest.test_case "writers_of: big range" `Quick test_writers_of_big_range;
          Alcotest.test_case "writers_of: revoked writer" `Quick test_writers_of_revoked;
          Alcotest.test_case "writers_of: quarantined writer" `Quick
            test_writers_of_quarantined;
          Alcotest.test_case "flat allocation in principal count" `Quick test_flat_allocation;
          Alcotest.test_case "inspect capture" `Quick test_inspect_capture;
          Alcotest.test_case "current_module" `Quick test_current_module;
        ] );
      ( "kernel ind-call",
        [
          Alcotest.test_case "hash mismatch refused" `Quick test_kernel_indcall_hash_mismatch;
          Alcotest.test_case "matching hash dispatches" `Quick
            test_kernel_indcall_matching_hash_ok;
        ] );
    ]
