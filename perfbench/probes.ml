(* Per-layer probes: the host cost of single enforcement primitives,
   called through their public functions at a workload's live state
   (or, for the sweep, at a chosen principal count). *)

open Kernel_sim
open Kmodules
module R = Lxfi.Runtime

(* A kernel-owned function-pointer slot on a page no module was ever
   granted, so a kernel indirect call through it always takes the
   writer-set fast path. *)
let elided_slot (sys : Ksys.t) =
  let kst = sys.Ksys.kst in
  let target = Kstate.register_kernel_fn kst "perfbench_nop" (fun _ -> 0L) in
  let slot = Slab.alloc_pages kst.Kstate.slab 1 in
  Kmem.write_ptr kst.Kstate.mem slot target;
  slot

let kindcall_checked (s : Runner.site) () =
  ignore
    (R.kernel_indirect_call s.Runner.sys.Ksys.rt ~slot:s.Runner.checked_slot
       ~ftype:s.Runner.checked_ftype s.Runner.checked_args)

let kindcall_elided (sys : Ksys.t) slot () =
  ignore (R.kernel_indirect_call sys.Ksys.rt ~slot ~ftype:"perfbench.nop" [])

let writers_of (s : Runner.site) () =
  ignore (R.writers_of s.Runner.sys.Ksys.rt ~addr:s.Runner.checked_slot)

(* Every probe of the live state, ns per call. *)
let live (s : Runner.site) =
  let sys = s.Runner.sys in
  let rt = sys.Ksys.rt in
  let kst = sys.Ksys.kst in
  let mi = s.Runner.mi in
  let shared = mi.R.mi_shared in
  (* a word of the module stack: the shared principal holds WRITE on it *)
  let word = mi.R.mi_stack_base + 128 in
  let obj = Slab.alloc_pages kst.Kstate.slab 1 in
  let cap = Lxfi.Capability.write ~base:obj ~size:64 in
  let spin_lock_init = R.find_kexport rt "spin_lock_init" in
  let nop = elided_slot sys in
  let saved = rt.R.current in
  rt.R.current <- Some shared;
  let as_module =
    [
      ("lxfi.guard_write_ns", fun () -> R.guard_write rt mi ~addr:word ~size:4);
      ( "lxfi.has_write_ns",
        fun () -> ignore (Lxfi.Captable.has_write shared.Lxfi.Principal.caps ~addr:word ~size:4) );
      ( "lxfi.writer_set_ns",
        fun () -> ignore (Lxfi.Writer_set.maybe_written rt.R.wset s.Runner.checked_slot) );
      ( "lxfi.call_kexport_ns",
        fun () -> ignore (R.call_kexport rt spin_lock_init [ Int64.of_int word ]) );
      ( "lxfi.entry_exit_guard_ns",
        fun () ->
          R.entry_guard rt;
          R.exit_guard rt );
      ( "lxfi.grant_revoke_ns",
        fun () ->
          R.grant rt shared cap;
          R.revoke_from_all rt cap );
    ]
  in
  let a = List.map (fun (n, f) -> (n, Meter.probe f)) as_module in
  rt.R.current <- saved;
  let kmem_rw =
    Meter.probe (fun () ->
        Kmem.write kst.Kstate.mem ~addr:word ~size:8 0x5A5AL;
        ignore (Kmem.read kst.Kstate.mem ~addr:word ~size:8))
    /. 2.
  in
  a
  @ [
      ("lxfi.writers_of_ns", Meter.probe (writers_of s));
      ("lxfi.kindcall_checked_ns", Meter.probe (kindcall_checked s));
      ("lxfi.kindcall_elided_ns", Meter.probe (kindcall_elided sys nop));
      ("kernel_sim.kmem_rw_ns", kmem_rw);
    ]

(* Control-plane calls on fresh systems, recorded as spans: boot,
   install, and — on a second system — the static check, rewrite and
   load of each module's pristine program (the load rewrites the
   program again itself), then snapshots of the live module.  Five
   rounds; the per-layer values are the mean span durations. *)
let control config (specs : Mod_common.spec list) (s : Runner.site) =
  if specs <> [] then
    for _ = 1 to 5 do
      let sys = Instr.span "kmodules.boot" (fun () -> Ksys.boot config) in
      List.iter
        (fun spec -> ignore (Instr.span "kmodules.install" (fun () -> Mod_common.install sys spec)))
        specs;
      let sys = Ksys.boot config in
      let rt = sys.Ksys.rt in
      List.iter
        (fun (spec : Mod_common.spec) ->
          let prog = spec.Mod_common.make sys in
          ignore
            (Instr.span "check.module" (fun () ->
                 Check.Checker.check_module (Lxfi.Loader.check_env rt) prog));
          ignore (Instr.span "lxfi.rewrite" (fun () -> Lxfi.Rewriter.instrument config prog));
          let mi, _ = Instr.span "lxfi.load" (fun () -> Lxfi.Loader.load rt prog) in
          spec.Mod_common.init sys mi)
        specs;
      ignore
        (Instr.span "lxfi.snapshot" (fun () -> Lxfi.Snapshot.capture s.Runner.sys.Ksys.rt s.Runner.mi))
    done
