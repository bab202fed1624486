(* The simulated ledger: model-time counters of one workload — the
   Stats guard counters, the Kcycles kernel/module/guard split, slab
   traffic and interpreter steps.  These are deterministic for a seed;
   a host-only change must leave them byte-identical. *)

open Kernel_sim

let names =
  [|
    "annotation_actions";
    "fn_entry";
    "fn_exit";
    "mem_write_checks";
    "mod_indcall_checks";
    "kernel_indcall_all";
    "kernel_indcall_checked";
    "kernel_indcall_elided";
    "caps_granted";
    "caps_revoked";
    "principal_switches";
    "violations";
    "quarantines";
    "escalations";
    "watchdog_expiries";
    "flow_violations";
    "caps_dropped";
    "cycles_kernel";
    "cycles_module";
    "cycles_guard";
    "slab_allocs";
    "slab_frees";
    "mir_steps";
  |]

let index name =
  let rec go i = if names.(i) = name then i else go (i + 1) in
  go 0

let annotation_actions = index "annotation_actions"
let fn_entry = index "fn_entry"
let mem_write_checks = index "mem_write_checks"
let kernel_indcall_all = index "kernel_indcall_all"
let kernel_indcall_checked = index "kernel_indcall_checked"
let kernel_indcall_elided = index "kernel_indcall_elided"
let caps_granted = index "caps_granted"
let caps_revoked = index "caps_revoked"
let principal_switches = index "principal_switches"
let violations = index "violations"
let cycles_kernel = index "cycles_kernel"
let cycles_module = index "cycles_module"
let cycles_guard = index "cycles_guard"
let slab_allocs = index "slab_allocs"
let mir_steps = index "mir_steps"

type t = int array

let zero () = Array.make (Array.length names) 0

let mir_steps_of (rt : Lxfi.Runtime.t) =
  Hashtbl.fold
    (fun _ (mi : Lxfi.Runtime.module_info) acc ->
      match mi.Lxfi.Runtime.mi_ctx with Some ctx -> acc + ctx.Mir.Interp.steps | None -> acc)
    rt.Lxfi.Runtime.modules 0

(* Absolute counter values of one booted system. *)
let read (sys : Kmodules.Ksys.t) : t =
  let rt = sys.Kmodules.Ksys.rt in
  let kst = sys.Kmodules.Ksys.kst in
  let s = rt.Lxfi.Runtime.stats in
  let c = kst.Kstate.cycles in
  Lxfi.Stats.
    [|
      s.annotation_actions;
      s.fn_entry;
      s.fn_exit;
      s.mem_write_checks;
      s.mod_indcall_checks;
      s.kernel_indcall_all;
      s.kernel_indcall_checked;
      s.kernel_indcall_elided;
      s.caps_granted;
      s.caps_revoked;
      s.principal_switches;
      s.violations;
      s.quarantines;
      s.escalations;
      s.watchdog_expiries;
      s.flow_violations;
      s.caps_dropped;
      Kcycles.kernel c;
      Kcycles.module_ c;
      Kcycles.guard c;
      Slab.allocations kst.Kstate.slab;
      Slab.frees kst.Kstate.slab;
      mir_steps_of rt;
    |]

let diff (a : t) (b : t) : t = Array.mapi (fun i x -> x - b.(i)) a

let add_into (acc : t) (d : t) = Array.iteri (fun i x -> acc.(i) <- acc.(i) + x) d

let cycles (l : t) = l.(cycles_kernel) + l.(cycles_module) + l.(cycles_guard)

let render (l : t) =
  String.concat " " (Array.to_list (Array.mapi (fun i n -> Printf.sprintf "%s=%d" n l.(i)) names))

let digest l = Digest.to_hex (Digest.string (render l))
