(** Module principals (§3.1).

    Every module has a {e shared} principal (initial capabilities —
    imports, writable sections — implicitly available to every other
    principal of the module) and a {e global} principal (implicit
    access to the capabilities of {e all} the module's principals,
    used for cross-instance state such as econet's global socket
    list).  Instance principals are created on demand and {e named by
    pointers} — the address of the socket / net_device / block device
    the instance represents — and one logical principal may carry
    several names ([lxfi_princ_alias]: the pci_dev and the net_device
    of one NIC name the same principal). *)

type kind = Shared | Global | Instance

type t = {
  id : int;  (** unique within the runtime *)
  kind : kind;
  owner : string;  (** module name *)
  primary_name : int;  (** 0 for shared/global; the first name pointer otherwise *)
  caps : Captable.t;
  mutable quarantined : string option;
      (** quarantine reason; a quarantined principal holds no
          capabilities and cannot be selected for entry *)
  mutable flow_pos : string option;
      (** flow-automaton position: the last kexport this principal
          called, or [None] for the start state *)
  mutable flow_depth : int;
      (** nesting depth of kernel-entered activations running as this
          principal (used to save/restore [flow_pos] around nested
          entries) *)
  mutable registered : bool;
      (** the principal belongs to a module registered in the runtime
          (it is one of [Runtime.all_principals]); only registered
          principals appear in the runtime's holder index *)
}

let counter = ref 0

let make ~kind ~owner ~primary_name =
  incr counter;
  { id = !counter; kind; owner; primary_name; caps = Captable.create ();
    quarantined = None; flow_pos = None; flow_depth = 0; registered = false }

let describe t =
  match t.kind with
  | Shared -> Printf.sprintf "%s/shared" t.owner
  | Global -> Printf.sprintf "%s/global" t.owner
  | Instance -> Printf.sprintf "%s/instance(0x%x)" t.owner t.primary_name

let pp ppf t = Fmt.string ppf (describe t)
