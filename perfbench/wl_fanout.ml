(* socket_fanout: can and rds loaded with [sockets] sockets open, each
   its own instance principal.  The stream spreads sendmsg, recvmsg and
   ioctl over the sockets, with open/close churn at a fixed small share.

   can's proto_ops lives in .data, so its calls take the checked path
   and walk every principal in writers_of; rds's lives in .rodata, so
   its calls take the writer-set fast path — the built-in control.  The
   can share stays far from 50% so the median sits in the rds mode
   instead of between the two.

   A closed socket's instance principal is never retired (a known leak
   in the runtime), so the churn makes the principal count, and with
   it every checked call, grow through the run; main.ml reports the
   principal count at the start and end. *)

open Kernel_sim
open Kmodules

let sockets = 1000

(* Shares, per 10 000 operations. *)
let churn_share = 2
let can_share = 1500

let can_typ = 3
let rds_typ = 2
let ioctl_cmd = 0x8901

(* Even slots hold can sockets, odd slots rds sockets. *)
let is_can slot = slot land 1 = 0

let open_socket (sys : Ksys.t) slot =
  let sock = sys.Ksys.sock in
  if is_can slot then begin
    let fd = Sockets.sys_socket sock ~family:Sockets.af_can ~typ:can_typ in
    if fd >= 0 && Sockets.sys_bind sock ~fd ~addr:0 ~alen:0 <> 0L then -1 else fd
  end
  else Sockets.sys_socket sock ~family:Sockets.af_rds ~typ:rds_typ

(* The probe site: an ioctl through can's proto_ops slot, which lives
   in .data, so a kernel call through it takes the checked path. *)
let site_of (sys : Ksys.t) fd : Runner.site =
  let mi = Option.get (Lxfi.Runtime.module_named sys.Ksys.rt "can") in
  let types = sys.Ksys.kst.Kstate.types in
  {
    Runner.sys;
    mi;
    checked_slot = Mod_common.gaddr mi "can_ops" + Ktypes.offset types Sockets.ops_struct "ioctl";
    checked_ftype = "proto_ops.ioctl";
    checked_args =
      [ Int64.of_int (Sockets.sock_of_fd sys.Ksys.sock fd); Int64.of_int ioctl_cmd; 0L ];
  }

let setup config =
  let sys = Instr.span "kmodules.boot" (fun () -> Ksys.boot config) in
  List.iter
    (fun spec -> ignore (Instr.span "kmodules.install" (fun () -> Mod_common.install sys spec)))
    [ Can.spec; Rds.spec ];
  let fds =
    Array.init sockets (fun slot ->
        let fd = open_socket sys slot in
        if fd < 0 then failwith (Printf.sprintf "socket_fanout: socket %d failed (%d)" slot fd);
        fd)
  in
  (sys, fds)

let chunk = 64

type kind = Can_send | Can_recv | Can_ioctl | Rds_send | Rds_recv | Rds_ioctl | Churn

let make ~seed config : Runner.t =
  let sys, fds = setup config in
  Instr.wrap_indcall sys;
  let sock = sys.Ksys.sock in
  let ubuf = Kstate.user_alloc sys.Ksys.kst 512 in
  let rng = Fuzz.Rng.create ~seed in
  (* generator model: bytes held by each rds socket, -1 before its first send *)
  let held = Array.make sockets (-1) in
  let kind = Array.make chunk Churn in
  let slot = Array.make chunk 0 in
  let len = Array.make chunk 0 in
  let expect = Array.make chunk 0 in
  let fill () =
    for j = 0 to chunk - 1 do
      let r = Fuzz.Rng.int rng 10_000 in
      let pick_can () = 2 * Fuzz.Rng.int rng (sockets / 2) in
      let pick_rds () = 1 + (2 * Fuzz.Rng.int rng (sockets / 2)) in
      let set k s l e =
        kind.(j) <- k;
        slot.(j) <- s;
        len.(j) <- l;
        expect.(j) <- e
      in
      if r < churn_share then begin
        let s = Fuzz.Rng.int rng sockets in
        held.(s) <- -1;
        set Churn s 0 0
      end
      else if r < churn_share + can_share then begin
        let s = pick_can () in
        match Fuzz.Rng.int rng 20 with
        | 0 | 1 | 2 -> set Can_recv s 64 (-11)
        | 3 | 4 | 5 -> set Can_ioctl s 0 0
        | _ ->
            let l = 1 + Fuzz.Rng.int rng 32 in
            set Can_send s l (min l Can.frame_size)
      end
      else begin
        let s = pick_rds () in
        match Fuzz.Rng.int rng 20 with
        | 0 | 1 | 2 -> set Rds_ioctl s 0 (-25)
        | 3 | 4 | 5 | 6 | 7 ->
            let l = 16 + Fuzz.Rng.int rng 305 in
            set Rds_recv s l (if held.(s) < 0 then -11 else min held.(s) l)
        | _ ->
            (* sends cost in proportion to their length; a narrow range
               keeps the median inside one mode *)
            let l = 48 + Fuzz.Rng.int rng 33 in
            let n = min l Rds.msg_max in
            held.(s) <- n;
            set Rds_send s l n
      end
    done
  in
  let step j =
    let fd = fds.(slot.(j)) in
    let e = Int64.of_int expect.(j) in
    match kind.(j) with
    | Can_send | Rds_send -> Sockets.sys_sendmsg sock ~fd ~buf:ubuf ~len:len.(j) ~flags:0 = e
    | Can_recv | Rds_recv -> Sockets.sys_recvmsg sock ~fd ~buf:ubuf ~len:len.(j) ~flags:0 = e
    | Can_ioctl | Rds_ioctl -> Sockets.sys_ioctl sock ~fd ~cmd:ioctl_cmd ~arg:0 = e
    | Churn ->
        Sockets.sys_close sock ~fd = 0L
        &&
        let fd' = open_socket sys slot.(j) in
        fds.(slot.(j)) <- fd';
        fd' >= 0
  in
  {
    Runner.chunk;
    fill;
    step;
    ledger = (fun () -> Ledger.read sys);
    refuel = (fun () -> Runner.refuel_all sys);
    principals = (fun () -> Runner.principals_of sys);
    slab_live = (fun () -> Runner.slab_live_of sys);
    site = (fun () -> site_of sys fds.(0));
    specs = [ Can.spec; Rds.spec ];
    extra = (fun () -> []);
  }
