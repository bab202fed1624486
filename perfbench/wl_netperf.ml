(* netperf_mix: the Figure 12/13 data path.  One e1000 NIC; the stream
   is mostly small UDP sends, plus 1-2 segment TCP sends, NAPI receive
   bursts of 1-8 frames and UDP/TCP request-response round trips.  One
   operation is one packet-path call of Workloads.Netperf_sim. *)

open Kernel_sim
open Kmodules
module N = Workloads.Netperf_sim

let mss = 1448

(* Drain the TX ring once this many frames are queued (the ring holds
   Nic.ring_entries). *)
let drain_at = 16

let setup config : N.env =
  let sys = Instr.span "kmodules.boot" (fun () -> Ksys.boot config) in
  let pcidev, nic = Ksys.add_nic sys ~vendor:E1000.vendor ~device:E1000.device in
  ignore (Instr.span "kmodules.install" (fun () -> Mod_common.install sys E1000.spec));
  {
    N.sys;
    nic;
    dev = Pci.pci_get_drvdata sys.Ksys.pci pcidev;
    napi = E1000.napi_addr sys ~pcidev;
    irq = Pci.irq sys.Ksys.pci pcidev;
  }

let dev_tx (env : N.env) =
  let p, _, _, _ = Netdev.stats env.N.sys.Ksys.net env.N.dev in
  p

let wire (env : N.env) = fst (Nic.tx_stats env.N.nic)
let rx_delivered (env : N.env) = env.N.sys.Ksys.net.Netdev.rx_delivered_pkts

let chunk = 64

type kind = Udp_send | Tcp_send | Rx_burst | Rr_udp | Rr_tcp

let make ~seed config : Runner.t =
  let env = setup config in
  let sys = env.N.sys in
  Instr.wrap_indcall sys;
  let rng = Fuzz.Rng.create ~seed in
  let pending = ref 0 in
  (* chunk buffers: kind, argument, expected frames queued, frames drained *)
  let kind = Array.make chunk Udp_send in
  let arg = Array.make chunk 0 in
  let queued = Array.make chunk 0 in
  let drained = Array.make chunk 0 in
  let fill () =
    for j = 0 to chunk - 1 do
      let r = Fuzz.Rng.int rng 100 in
      let send k a segs =
        kind.(j) <- k;
        arg.(j) <- a;
        queued.(j) <- segs;
        pending := !pending + segs;
        if !pending >= drain_at then begin
          drained.(j) <- !pending;
          pending := 0
        end
        else drained.(j) <- 0
      in
      if r < 70 then send Udp_send (64 + Fuzz.Rng.int rng 65) 1
      else if r < 80 then
        if Fuzz.Rng.int rng 2 = 0 then send Tcp_send (512 + Fuzz.Rng.int rng (mss - 511)) 1
        else send Tcp_send (mss + 1 + Fuzz.Rng.int rng mss) 2
      else if r < 92 then begin
        kind.(j) <- Rx_burst;
        arg.(j) <- 1 + Fuzz.Rng.int rng 8
      end
      else begin
        (* the round trip's own drain puts every queued frame plus its
           request on the wire *)
        kind.(j) <- (if r < 97 then Rr_udp else Rr_tcp);
        drained.(j) <- !pending + 1;
        pending := 0
      end
    done
  in
  let drain_ok j =
    drained.(j) = 0
    ||
    let w0 = wire env in
    N.drain env;
    wire env - w0 = drained.(j)
  in
  let step j =
    match kind.(j) with
    | Udp_send ->
        let t0 = dev_tx env in
        N.udp_send env ~len:arg.(j);
        dev_tx env - t0 = queued.(j) && drain_ok j
    | Tcp_send ->
        let t0 = dev_tx env in
        N.tcp_send env ~msg_len:arg.(j);
        dev_tx env - t0 = queued.(j) && drain_ok j
    | Rx_burst ->
        let r0 = rx_delivered env in
        let n = N.rx_burst env ~count:arg.(j) ~frame_len:64 in
        n = arg.(j) && rx_delivered env - r0 = n
    | (Rr_udp | Rr_tcp) as k ->
        let w0 = wire env and r0 = rx_delivered env in
        let m = N.measure_rr env ~txns:1 ~tcp:(k = Rr_tcp) in
        m.N.m_units = 1 && wire env - w0 = drained.(j) && rx_delivered env - r0 = 1
  in
  let site () =
    let rt = sys.Ksys.rt in
    let mi = Option.get (Lxfi.Runtime.module_named rt "e1000") in
    let types = sys.Ksys.kst.Kstate.types in
    {
      Runner.sys;
      mi;
      checked_slot =
        Mod_common.gaddr mi "e1000_ops" + Ktypes.offset types "net_device_ops" "ndo_open";
      checked_ftype = "net_device_ops.ndo_open";
      checked_args = [ Int64.of_int env.N.dev ];
    }
  in
  {
    Runner.chunk;
    fill;
    step;
    ledger = (fun () -> Ledger.read sys);
    refuel = (fun () -> Runner.refuel_all sys);
    principals = (fun () -> Runner.principals_of sys);
    slab_live = (fun () -> Runner.slab_live_of sys);
    site;
    specs = [ E1000.spec ];
    extra = (fun () -> []);
  }
