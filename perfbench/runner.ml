(* What main.ml needs from a workload.  A runner owns the live
   system(s) of one set-up and the seeded operation generator; the
   loop in main.ml only sees chunks of operations and pass/fail results. *)

(* Where the per-layer probes aim at a workload's live state. *)
type site = {
  sys : Kmodules.Ksys.t;
  mi : Lxfi.Runtime.module_info;  (** whose shared principal the guard probes run as *)
  checked_slot : int;  (** a module-writable slot: its kernel calls take the checked path *)
  checked_ftype : string;
  checked_args : int64 list;
}

type t = {
  chunk : int;  (** operations per {!fill} *)
  fill : unit -> unit;  (** generate the next chunk of the stream (untimed) *)
  step : int -> bool;
      (** run operation [j] of the current chunk; [true] iff its result
          is the one the generator expects *)
  ledger : unit -> Ledger.t;  (** cumulative simulated counters *)
  refuel : unit -> unit;  (** reset interpreter fuel (untimed, no simulated effect) *)
  principals : unit -> int;  (** principals in the live system *)
  slab_live : unit -> int;  (** live slab objects in the live system *)
  site : unit -> site;
  specs : Kmodules.Mod_common.spec list;  (** modules the set-up installs *)
  extra : unit -> (string * float) list;  (** workload-specific per-layer values *)
}

let principals_of (sys : Kmodules.Ksys.t) = List.length (Lxfi.Runtime.all_principals sys.Kmodules.Ksys.rt)

let slab_live_of (sys : Kmodules.Ksys.t) =
  Kernel_sim.Slab.live_objects sys.Kmodules.Ksys.kst.Kernel_sim.Kstate.slab

let refuel_all (sys : Kmodules.Ksys.t) =
  Hashtbl.iter
    (fun _ (mi : Lxfi.Runtime.module_info) -> Option.iter Mir.Interp.refuel mi.Lxfi.Runtime.mi_ctx)
    sys.Kmodules.Ksys.rt.Lxfi.Runtime.modules
