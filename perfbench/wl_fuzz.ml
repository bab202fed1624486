(* fuzz_campaign: the control plane.  One operation is one campaign
   case, exactly as Fuzz.Campaign draws it (case [i] seeds its own
   stream with [Rng.derive seed i]): generate the module, run the full
   clean oracle battery (stock/lxfi/deopt differential, static checker,
   traced reconciliation), then run [mutants_per_case] mutants across
   the twelve classes and take each verdict.

   The harness boots its systems privately, so before each case is
   timed the benchmark replays the clean module under the workload's
   config on a system it boots itself: check, load, init and drive.
   The replay's counters are the workload's simulated ledger; it is
   not part of the operation.  A traced run also times a rewrite and a
   snapshot of each replayed module there. *)

open Kernel_sim
open Kmodules

let mutants_per_case = 2

type replay = { sys : Ksys.t; mi : Lxfi.Runtime.module_info }

(* The harness's fixture order: canary, then the touch buffer, the
   first two allocations after boot. *)
let boot config =
  let sys = Instr.span "kmodules.boot" (fun () -> Ksys.boot config) in
  List.iter
    (fun (name, params, annot_src) ->
      ignore
        (Annot.Registry.define_exn sys.Ksys.rt.Lxfi.Runtime.registry ~name ~params ~annot_src))
    Fuzz.Gen.slot_defs;
  let slab = sys.Ksys.kst.Kstate.slab in
  let _canary = Slab.kmalloc slab Fuzz.Harness.canary_size in
  let kbuf = Slab.kmalloc slab Fuzz.Gen.kbuf_size in
  (sys, kbuf)

(* A clean module must never trip a guard: every drive returns a value. *)
let replay config (case : Fuzz.Gen.case) acc =
  Instr.span "fuzz.replay" (fun () ->
      let sys, kbuf = boot config in
      Instr.wrap_indcall sys;
      let rt = sys.Ksys.rt in
      let base = Ledger.read sys in
      let prog = case.Fuzz.Gen.c_prog in
      let errors =
        Instr.span "check.module" (fun () ->
            Check.Finding.errors (Check.Checker.check_module (Lxfi.Loader.check_env rt) prog))
      in
      let mi, _report = Instr.span "lxfi.load" (fun () -> Lxfi.Loader.load rt prog) in
      let ok = ref (errors = 0) in
      let value f = match f () with (_ : int64) -> () | exception _ -> ok := false in
      value (fun () -> Lxfi.Loader.init_call rt mi "module_init" []);
      let kslot = Mod_common.gaddr mi "kslot" in
      Instr.span "fuzz.drive" (fun () ->
          List.iter
            (fun n ->
              let invoke f args = value (fun () -> Lxfi.Runtime.invoke_module_function rt mi f args) in
              invoke "entry" [ n ];
              invoke "touch" [ Int64.of_int kbuf; n ];
              invoke "peer" [ 0x7001L; n ];
              invoke "peer" [ 0x7002L; n ];
              value (fun () -> Kstate.call_ptr sys.Ksys.kst ~slot:kslot ~ftype:"fuzz.cb" [ n ]))
            case.Fuzz.Gen.c_inputs);
      if Instr.tracing () then begin
        ignore (Instr.span "lxfi.rewrite" (fun () -> Lxfi.Rewriter.instrument rt.Lxfi.Runtime.config prog));
        ignore (Instr.span "lxfi.snapshot" (fun () -> Lxfi.Snapshot.capture rt mi))
      end;
      let d = Ledger.diff (Ledger.read sys) base in
      Ledger.add_into acc d;
      ({ sys; mi }, !ok && d.(Ledger.violations) = 0))

(* [oracles] is false for the stock-config phase that measures the
   interpreter alone: the operation is then generation only. *)
let make ~oracles ~seed config : Runner.t =
  let canary_addr = Fuzz.Harness.canary_addr_of Fuzz.Harness.mutant_config in
  let first, _ = boot config in
  let last = ref None in
  let acc = Ledger.zero () in
  let next = ref 1 in
  let case_ix = ref 0 in
  let replay_ok = ref true in
  let mutants = ref 0 and detected = ref 0 in
  let draw () =
    let rng = Fuzz.Rng.create ~seed:(Fuzz.Rng.derive seed !case_ix) in
    let rand = Fuzz.Rng.rand rng in
    let case = Fuzz.Gen.case_of_rand rand in
    (case, Fuzz.Mutate.select ~rand ~count:mutants_per_case)
  in
  (* Untimed: draw the next case and replay it for the ledger. *)
  let fill () =
    case_ix := !next;
    incr next;
    let case, _ = draw () in
    replay_ok :=
      match replay config case acc with
      | r, ok ->
          last := Some r;
          ok
      | exception _ -> false
  in
  let step _ =
    let case, classes = Instr.span "fuzz.gen" draw in
    let clean_ok =
      (not oracles)
      || Instr.span "fuzz.clean_oracle" (fun () -> Fuzz.Harness.clean_failure ~trace:true case) = None
    in
    let mutants_ok =
      (not oracles)
      || List.for_all
           (fun cls ->
             Instr.span "fuzz.mutant" (fun () ->
                 let m = Fuzz.Mutate.apply ~canary_addr cls case.Fuzz.Gen.c_prog in
                 incr mutants;
                 match Fuzz.Harness.run_mutant m ~inputs:case.Fuzz.Gen.c_inputs with
                 | Error _ -> false
                 | Ok res ->
                     (match res.Fuzz.Harness.mr_outcome with
                     | Fuzz.Harness.Oviolation k when k = Fuzz.Mutate.expected_kind cls ->
                         incr detected
                     | _ -> ());
                     Fuzz.Harness.mutant_verdict m res = None))
           classes
    in
    !replay_ok && clean_ok && mutants_ok
  in
  let live () = match !last with Some r -> r.sys | None -> first in
  let site () =
    match !last with
    | None -> invalid_arg "fuzz_campaign: no case has run"
    | Some { sys; mi } ->
        {
          Runner.sys;
          mi;
          checked_slot = Mod_common.gaddr mi "kslot";
          checked_ftype = "fuzz.cb";
          checked_args = [ 5L ];
        }
  in
  {
    Runner.chunk = 1;
    fill;
    step;
    ledger = (fun () -> Array.copy acc);
    refuel = (fun () -> ());
    principals = (fun () -> Runner.principals_of (live ()));
    slab_live = (fun () -> Runner.slab_live_of (live ()));
    site;
    specs = [];
    extra =
      (fun () ->
        [
          ( "fuzz.detect_ratio",
            if !mutants = 0 then 0. else float_of_int !detected /. float_of_int !mutants );
        ]);
  }
