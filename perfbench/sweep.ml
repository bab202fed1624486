(* Principal-count sweep: the cost of a checked kernel indirect call,
   an elided one and a writers_of walk as the number of principals
   grows.  One can socket gives 3 principals (shared, global, the
   socket's instance); the rest are created with
   Runtime.find_or_create_instance, each holding WRITE on its own
   64-byte slab object as a socket's instance does on its sk. *)

open Kernel_sim
open Kmodules

let points = [ 3; 100; 1000; 10_000 ]

let run () =
  let sys = Ksys.boot Lxfi.Config.lxfi in
  ignore (Mod_common.install sys Can.spec);
  let fd = Wl_fanout.open_socket sys 0 in
  let site = Wl_fanout.site_of sys fd in
  let rt = sys.Ksys.rt in
  let mi = site.Runner.mi in
  let nop = Probes.elided_slot sys in
  let slab = sys.Ksys.kst.Kstate.slab in
  List.concat_map
    (fun p ->
      while Runner.principals_of sys < p do
        let obj = Slab.kmalloc slab 64 in
        let pr = Lxfi.Runtime.find_or_create_instance rt mi ~name_ptr:obj in
        Lxfi.Runtime.grant rt pr (Lxfi.Capability.write ~base:obj ~size:64)
      done;
      if Runner.principals_of sys <> p then
        failwith (Printf.sprintf "sweep: %d principals, wanted %d" (Runner.principals_of sys) p);
      let budget_s = 0.1 in
      let sfx = Printf.sprintf ".p%d" p in
      [
        ("lxfi.kindcall_checked_ns" ^ sfx, Meter.probe ~budget_s (Probes.kindcall_checked site));
        ("lxfi.kindcall_elided_ns" ^ sfx, Meter.probe ~budget_s (Probes.kindcall_elided sys nop));
        ("lxfi.writers_of_ns" ^ sfx, Meter.probe ~budget_s (Probes.writers_of site));
      ])
    points
