(* perfbench — the host-cost benchmark of the LXFI simulator.

     main.exe --workload W --seed N --seconds S --trace 0|1

   One process, one caller, closed loop: the next operation is sent
   only after the previous one returns.  The seed fixes the operation
   stream; the program receives only the generated operations, and
   every result is checked against what the generator expects.

   --trace 0 prints the end-to-end metrics; --trace 1 runs the workload
   again with spans recorded around the calls into each layer and
   prints the per-layer metrics.  The last line of output is one JSON
   object: {"correct", "attempted", "failed", "metrics"}.  DESIGN.md in
   this directory records the workloads, the metrics and which layer
   metric should move which end-to-end metric. *)

module Tracer = Meter.Tracer

type workload = {
  name : string;
  check_ops : int;  (** operations a second set-up replays to check the ledger *)
  ledger_ops : int;  (** operations in the reported simulated ledger *)
  windows : int;  (** equal slices of the measured time; timings are their median *)
  setups_per_cut : int;  (** extra set-ups timed at each cut between windows *)
  make : oracles:bool -> seed:int -> Lxfi.Config.t -> Runner.t;
}

let workloads =
  [
    {
      name = "netperf_mix";
      check_ops = 20_000;
      ledger_ops = 100_000;
      windows = 24;
      setups_per_cut = 3;
      make = (fun ~oracles:_ ~seed c -> Wl_netperf.make ~seed c);
    };
    {
      name = "socket_fanout";
      check_ops = 5_000;
      ledger_ops = 50_000;
      windows = 24;
      setups_per_cut = 1;
      make = (fun ~oracles:_ ~seed c -> Wl_fanout.make ~seed c);
    };
    {
      name = "fuzz_campaign";
      check_ops = 50;
      ledger_ops = 1_500;
      windows = 4;
      setups_per_cut = 20;
      make = (fun ~oracles ~seed c -> Wl_fuzz.make ~oracles ~seed c);
    };
  ]

let out_dir = ".perfbench"

let ensure_out_dir () = if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755

(* ---- the closed loop ---- *)

type run = {
  ops : int;
  failed : int;
  busy_ns : int;  (** time inside operation chunks; generation excluded *)
  lat : Meter.Samples.t;  (** per-operation latency, ns *)
  chunk : int;  (** operations per chunk *)
  chunk_ns : Meter.Samples.t;  (** busy ns of each chunk *)
  cal : Meter.Samples.t;  (** calibration-unit ns, one after each chunk *)
  cuts : (int * int) list;  (** (operations, busy ns) at each window's end *)
  marks : (int * Ledger.t) list;  (** ledger of the first [n] operations, per requested [n] *)
  ledger : Ledger.t;  (** ledger of the whole run *)
  heap_peak_words : int;  (** Gc top-heap words when the first window ended *)
  alloc_bytes : float;
  minor_words : float;
  major_collections : int;
}

(* Run operations until [seconds] of busy time have passed and at
   least every count in [marks] is reached.  [between] runs, untimed,
   at each cut between two windows. *)
let drive ?tracer ?(windows = 1) ?(marks = []) ?(between = ignore) (r : Runner.t) ~seconds =
  let lat = Meter.Samples.create (1 lsl 16) in
  let chunk_ns = Meter.Samples.create 4096 in
  let cal = Meter.Samples.create 4096 in
  let op_span = Option.map (fun t -> Tracer.intern t "op") tracer in
  let base = r.Runner.ledger () in
  let at = ref [] in
  let cuts = ref [] in
  let ops = ref 0 and failed = ref 0 and busy = ref 0 in
  let budget = int_of_float (seconds *. 1e9) in
  let last_mark = List.fold_left max 0 marks in
  (* what generation and [between] allocate and collect is not the workload's *)
  let skipped_bytes = ref 0. and skipped_minor = ref 0. and skipped_major = ref 0 in
  let untimed f =
    let a = Gc.allocated_bytes () and g = Gc.quick_stat () in
    f ();
    let g' = Gc.quick_stat () in
    skipped_bytes := !skipped_bytes +. Gc.allocated_bytes () -. a;
    skipped_minor := !skipped_minor +. g'.Gc.minor_words -. g.Gc.minor_words;
    skipped_major := !skipped_major + g'.Gc.major_collections - g.Gc.major_collections
  in
  let heap_peak = ref 0 in
  let between () =
    if !heap_peak = 0 then heap_peak := (Gc.quick_stat ()).Gc.top_heap_words;
    untimed between
  in
  let a0 = Gc.allocated_bytes () in
  let g0 = Gc.quick_stat () in
  while !busy < budget || !ops < last_mark do
    r.Runner.refuel ();
    untimed r.Runner.fill;
    let t0 = Meter.now_ns () in
    for j = 0 to r.Runner.chunk - 1 do
      let s = Meter.now_ns () in
      (match (tracer, op_span) with Some t, Some id -> Tracer.enter t id | _ -> ());
      let ok = try r.Runner.step j with _ -> false in
      (match tracer with Some t -> ignore (Tracer.leave t) | None -> ());
      Meter.Samples.add lat (Meter.now_ns () - s);
      if not ok then incr failed;
      incr ops;
      if List.mem !ops marks then at := (!ops, Ledger.diff (r.Runner.ledger ()) base) :: !at
    done;
    let dt = Meter.now_ns () - t0 in
    busy := !busy + dt;
    Meter.Samples.add chunk_ns dt;
    Meter.Samples.add cal (Meter.calib_ns ());
    if List.length !cuts < windows - 1 && !busy >= (List.length !cuts + 1) * (budget / windows)
    then begin
      cuts := (!ops, !busy) :: !cuts;
      between ()
    end
  done;
  let g1 = Gc.quick_stat () in
  {
    ops = !ops;
    failed = !failed;
    busy_ns = !busy;
    lat;
    chunk = r.Runner.chunk;
    chunk_ns;
    cal;
    cuts = List.rev ((!ops, !busy) :: !cuts);
    marks = !at;
    ledger = Ledger.diff (r.Runner.ledger ()) base;
    heap_peak_words = (if !heap_peak = 0 then g1.Gc.top_heap_words else !heap_peak);
    alloc_bytes = Gc.allocated_bytes () -. a0 -. !skipped_bytes;
    minor_words = g1.Gc.minor_words -. g0.Gc.minor_words -. !skipped_minor;
    major_collections = g1.Gc.major_collections - g0.Gc.major_collections - !skipped_major;
  }

let per_op run x = float_of_int x /. float_of_int run.ops

(* Each window of the run, at the reference host speed: throughput,
   p50 and p99 latency, sample count; then the raw throughput and the
   median calibration, as measured. *)
type window = { tput : float; p50_us : float; p99_us : float; n : int; raw_tput : float; cal_ns : float }

(* Busy ns of chunks [c0, c1) at the reference host speed, with [f]
   the run's speed factors. *)
let scaled_busy run f c0 c1 =
  let busy = ref 0. in
  for c = c0 to c1 - 1 do
    busy := !busy +. (float_of_int (Meter.Samples.get run.chunk_ns c) *. f.(c))
  done;
  !busy

let windows run =
  let f = Meter.speed_factors run.cal in
  let chunk_of i = i / run.chunk in
  let _, _, rows =
    List.fold_left
      (fun (o0, b0, acc) (o1, b1) ->
        let n = o1 - o0 in
        let lat = Meter.Samples.sorted ~off:o0 ~len:n ~scale:(fun i -> f.(chunk_of i)) run.lat in
        let cal = Meter.Samples.sorted ~off:(chunk_of o0) ~len:(chunk_of o1 - chunk_of o0) run.cal in
        let w =
          {
            tput = float_of_int n /. (scaled_busy run f (chunk_of o0) (chunk_of o1) /. 1e9);
            p50_us = Meter.percentile lat 0.50 /. 1e3;
            p99_us = Meter.percentile lat 0.99 /. 1e3;
            n;
            raw_tput = float_of_int n /. (float_of_int (b1 - b0) /. 1e9);
            cal_ns = Meter.percentile cal 0.5;
          }
        in
        (o1, b1, w :: acc))
      (0, 0, []) run.cuts
  in
  List.rev rows

(* Throughput of the whole run at the reference host speed. *)
let ops_per_s run =
  let f = Meter.speed_factors run.cal in
  float_of_int run.ops /. (scaled_busy run f 0 (Array.length f) /. 1e9)

(* ---- output ---- *)

let json_metrics metrics =
  String.concat ", "
    (List.map
       (fun (name, unit, v) ->
         Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name (Printf.sprintf "%.17g" v) unit)
       metrics)

let print_result ~correct ~attempted ~failed metrics =
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (json_metrics metrics)

(* The ledger of the first operations of [seed], as a previous run of
   this same executable recorded it: a second run must agree. *)
let check_ledger_file wl ~seed ledger =
  ensure_out_dir ();
  let exe = String.sub (Digest.to_hex (Digest.file Sys.executable_name)) 0 12 in
  let path = Filename.concat out_dir (Printf.sprintf "ledger-%s-%d-%s.txt" wl.name seed exe) in
  let text = Ledger.render ledger in
  if Sys.file_exists path then begin
    let ic = open_in path in
    let prev = input_line ic in
    close_in ic;
    prev = text
  end
  else begin
    let oc = open_out path in
    output_string oc (text ^ "\n");
    close_out oc;
    true
  end

(* ---- --trace 0: end-to-end ---- *)

let end_to_end wl ~seed ~seconds =
  let config = Lxfi.Config.lxfi in
  let setup_ns = ref [] in
  (* each set-up's time is taken at the reference host speed, from
     calibrations made just before it *)
  let set_up () =
    let cal = Meter.median_float (List.init 5 (fun _ -> float_of_int (Meter.calib_ns ()))) in
    let t0 = Meter.now_ns () in
    let r = wl.make ~oracles:true ~seed config in
    let dt = float_of_int (Meter.now_ns () - t0) in
    setup_ns := (dt *. Meter.speed_factor cal) :: !setup_ns;
    r
  in
  let r = set_up () in
  (* More set-ups at each cut between windows: the host's speed drifts,
     and setup_s should be a median over the whole run like the other
     timings, not a snapshot of one moment. *)
  let between () =
    for _ = 1 to wl.setups_per_cut do
      ignore (set_up ())
    done;
    Gc.full_major ()
  in
  Gc.compact ();
  let principals_start = r.Runner.principals () in
  let run =
    drive r ~seconds ~windows:wl.windows ~marks:[ wl.check_ops; wl.ledger_ops ] ~between
  in
  let heap_peak_mb = float_of_int (run.heap_peak_words * (Sys.word_size / 8)) /. 1e6 in
  let principals_end = r.Runner.principals () in
  let slab_live = r.Runner.slab_live () in
  (* A second set-up replays the start of the stream, after the
     measured run so that heap_peak_mb does not see it: it must
     reproduce the measured run's ledger exactly. *)
  let reference =
    List.assoc_opt wl.check_ops (drive (set_up ()) ~seconds:0. ~marks:[ wl.check_ops ]).marks
  in
  (* Each timing is the median of the windows, at the reference host
     speed (see DESIGN.md, "Host speed"): a burst of slow operations the
     calibration does not follow moves one window, not the result. *)
  let ws = windows run in
  let med f = Meter.median_float (List.map f ws) in
  let tput = med (fun w -> w.tput) and p50 = med (fun w -> w.p50_us) in
  let p99 = med (fun w -> w.p99_us) in
  let min_n = List.fold_left (fun m w -> min m w.n) max_int ws in
  let ledger = List.assoc wl.ledger_ops run.marks in
  let same_in_process = reference = List.assoc_opt wl.check_ops run.marks in
  let same_across_runs = check_ledger_file wl ~seed ledger in
  let setup_s = Meter.median_float !setup_ns /. 1e9 in
  let sim_cycles_per_op = float_of_int (Ledger.cycles ledger) /. float_of_int wl.ledger_ops in
  Printf.printf "perfbench %s: seed %d, closed loop, 1 caller, %d ops in %.2f s measured\n" wl.name
    seed run.ops (float_of_int run.busy_ns /. 1e9);
  Printf.printf
    "  windows at reference speed (ops/s, p50 us, p99 us, samples), then as measured (ops/s, \
     calibration ns):%s\n"
    (String.concat ""
       (List.map
          (fun w ->
            Printf.sprintf " [%.1f %.2f %.2f %d | %.1f %.0f]" w.tput w.p50_us w.p99_us w.n
              w.raw_tput w.cal_ns)
          ws));
  let row name unit v note = Printf.printf "  %-20s %16.4f %-6s %s\n" name v unit note in
  let of_windows = Printf.sprintf "(median of %d windows" wl.windows in
  row "ops_per_s" "1/s" tput (of_windows ^ ")");
  row "op_p50_us" "us" p50 (Printf.sprintf "%s, >= %d samples each)" of_windows min_n);
  row "op_p99_us" "us" p99
    (Printf.sprintf "%s, >= %d samples beyond p99 each)" of_windows (min_n / 100));
  row "alloc_bytes_per_op" "B" (run.alloc_bytes /. float_of_int run.ops) "";
  row "heap_peak_mb" "MB" heap_peak_mb "(Gc top_heap_words after set-up and the first window)";
  row "setup_s" "s" setup_s (Printf.sprintf "(median of %d set-ups)" (List.length !setup_ns));
  Printf.printf "  host speed           calibration unit median %.0f ns (reference %.0f ns), \
                 as-measured ops/s median %.1f\n"
    (med (fun w -> w.cal_ns)) Meter.reference_calib_ns (med (fun w -> w.raw_tput));
  row "error_rate" "ratio" (per_op run run.failed)
    (Printf.sprintf "(%d failed of %d)" run.failed run.ops);
  row "sim_cycles_per_op" "cycles" sim_cycles_per_op
    (Printf.sprintf "(first %d ops)" wl.ledger_ops);
  Printf.printf "  principals_live      start %d end %d\n" principals_start principals_end;
  Printf.printf "  slab_live_objects    %d at end\n" slab_live;
  Printf.printf "ledger of the first %d ops (digest %s):\n  %s\n" wl.ledger_ops
    (Ledger.digest ledger) (Ledger.render ledger);
  Printf.printf "ledger check: same-process replay of %d ops %s, earlier run of this seed %s\n"
    wl.check_ops
    (if same_in_process then "agrees" else "DISAGREES")
    (if same_across_runs then "agrees or absent" else "DISAGREES");
  let correct = run.failed = 0 && same_in_process && same_across_runs in
  print_result ~correct ~attempted:run.ops ~failed:run.failed
    [
      ("ops_per_s", "1/s", tput);
      ("op_p50_us", "us", p50);
      ("op_p99_us", "us", p99);
      ("alloc_bytes_per_op", "B", run.alloc_bytes /. float_of_int run.ops);
      ("heap_peak_mb", "MB", heap_peak_mb);
      ("setup_s", "s", setup_s);
      ("sim_cycles_per_op", "cycles", sim_cycles_per_op);
    ];
  correct

(* ---- --trace 1: per layer ---- *)

let per_layer_units =
  [
    ("kernel_sim.self_ns_per_op", "ns");
    ("kernel_sim.kmem_rw_ns", "ns");
    ("kernel_sim.sim_kernel_cycles_per_op", "cycles");
    ("kernel_sim.slab_allocs_per_op", "count");
    ("kernel_sim.slab_live_objects", "count");
    ("kmodules.boot_ns", "ns");
    ("kmodules.install_ns", "ns");
    ("mir.steps_per_op", "count");
    ("mir.ns_per_step", "ns");
    ("mir.sim_module_cycles_per_op", "cycles");
    ("lxfi.dispatch_ns_per_op", "ns");
    ("lxfi.dispatch_p99_ns", "ns");
    ("lxfi.kindcall_per_op", "count");
    ("lxfi.kindcall_checked_ratio", "ratio");
    ("lxfi.mem_write_checks_per_op", "count");
    ("lxfi.annotation_actions_per_op", "count");
    ("lxfi.fn_entries_per_op", "count");
    ("lxfi.principal_switches_per_op", "count");
    ("lxfi.caps_granted_per_op", "count");
    ("lxfi.caps_revoked_per_op", "count");
    ("lxfi.sim_guard_cycles_per_op", "cycles");
    ("lxfi.principals_live_start", "count");
    ("lxfi.principals_live", "count");
    ("lxfi.guard_write_ns", "ns");
    ("lxfi.has_write_ns", "ns");
    ("lxfi.writer_set_ns", "ns");
    ("lxfi.writers_of_ns", "ns");
    ("lxfi.kindcall_checked_ns", "ns");
    ("lxfi.kindcall_elided_ns", "ns");
    ("lxfi.call_kexport_ns", "ns");
    ("lxfi.entry_exit_guard_ns", "ns");
    ("lxfi.grant_revoke_ns", "ns");
    ("lxfi.load_ns", "ns");
    ("lxfi.rewrite_ns", "ns");
    ("lxfi.snapshot_ns", "ns");
    ("check.module_ns", "ns");
    ("fuzz.gen_ns", "ns");
    ("fuzz.clean_oracle_ns", "ns");
    ("fuzz.mutant_ns", "ns");
    ("fuzz.detect_ratio", "ratio");
    ("ocaml_gc.minor_words_per_op", "words");
    ("ocaml_gc.major_collections_per_kop", "count");
  ]
  @ List.concat_map
      (fun p ->
        List.map
          (fun m -> (Printf.sprintf "%s.p%d" m p, "ns"))
          [ "lxfi.kindcall_checked_ns"; "lxfi.kindcall_elided_ns"; "lxfi.writers_of_ns" ])
      Sweep.points
  @ [
      ("lxfi.enforcement_est_ns_per_op", "ns");
      ("lxfi.unattributed_ns_per_op", "ns");
      ("perfbench.untraced_ops_per_s", "1/s");
      ("perfbench.traced_ops_per_s", "1/s");
      ("perfbench.trace_overhead_ratio", "ratio");
      ("perfbench.host_calib_ns", "ns");
    ]

(* Time inside kernel indirect-call dispatches.  Only dispatch spans
   nest inside a dispatch, so the summed self times are the time under
   the outermost ones. *)
let dispatch_ns t = List.fold_left (fun acc n -> acc + Tracer.self t n) 0 (Instr.dispatch_names t)

(* Interpreter-side time: the dispatches plus, in fuzz_campaign, the
   replay's drive, which enters the module directly. *)
let interp_ns t = dispatch_ns t + Tracer.self t "fuzz.drive"

let traced wl ~seed ~seconds =
  let config = Lxfi.Config.lxfi in
  let phase = seconds /. 2. in
  (* untraced baseline: no tracer, so no wrapper and no spans *)
  Instr.tracer := None;
  let base = drive (wl.make ~oracles:true ~seed config) ~seconds:phase in
  Gc.compact ();
  let t = Tracer.create () in
  Instr.tracer := Some t;
  let r = wl.make ~oracles:true ~seed config in
  let principals_start = r.Runner.principals () in
  Meter.Samples.clear Instr.dispatch_ns;
  let run = drive ~tracer:t r ~seconds:phase in
  let dispatch_sorted = Meter.Samples.sorted Instr.dispatch_ns in
  let principals_end = r.Runner.principals () in
  let slab_live = r.Runner.slab_live () in
  let site = r.Runner.site () in
  let probes = Probes.live site in
  Probes.control config r.Runner.specs site;
  (* interpreter cost alone: the first check_ops operations of the
     same stream under Config.stock.  A count, not a time: in
     fuzz_campaign the untimed replay is most of this phase. *)
  let ts = Tracer.create () in
  Instr.tracer := Some ts;
  let stock =
    drive ~tracer:ts (wl.make ~oracles:false ~seed Lxfi.Config.stock) ~seconds:0.
      ~marks:[ wl.check_ops ]
  in
  Instr.tracer := None;
  let ns_per_step =
    if stock.ledger.(Ledger.mir_steps) = 0 then 0.
    else float_of_int (interp_ns ts) /. float_of_int stock.ledger.(Ledger.mir_steps)
  in
  let sweep = Sweep.run () in
  let values = Hashtbl.create 128 in
  let set k v = Hashtbl.replace values k v in
  let l = run.ledger in
  let po i = per_op run l.(i) in
  let mean name = Option.value ~default:0. (Tracer.mean t name) in
  let probe name = List.assoc name probes in
  set "kernel_sim.self_ns_per_op" (per_op run (Tracer.self t "op"));
  set "kernel_sim.sim_kernel_cycles_per_op" (po Ledger.cycles_kernel);
  set "kernel_sim.slab_allocs_per_op" (po Ledger.slab_allocs);
  set "kernel_sim.slab_live_objects" (float_of_int slab_live);
  set "kmodules.boot_ns" (mean "kmodules.boot");
  set "kmodules.install_ns" (mean "kmodules.install");
  set "mir.steps_per_op" (po Ledger.mir_steps);
  set "mir.ns_per_step" ns_per_step;
  set "mir.sim_module_cycles_per_op" (po Ledger.cycles_module);
  set "lxfi.dispatch_ns_per_op" (per_op run (dispatch_ns t));
  set "lxfi.dispatch_p99_ns"
    (if dispatch_sorted = [||] then 0. else Meter.percentile dispatch_sorted 0.99);
  set "lxfi.kindcall_per_op" (po Ledger.kernel_indcall_all);
  set "lxfi.kindcall_checked_ratio"
    (if l.(Ledger.kernel_indcall_all) = 0 then 0.
     else
       float_of_int l.(Ledger.kernel_indcall_checked) /. float_of_int l.(Ledger.kernel_indcall_all));
  set "lxfi.mem_write_checks_per_op" (po Ledger.mem_write_checks);
  set "lxfi.annotation_actions_per_op" (po Ledger.annotation_actions);
  set "lxfi.fn_entries_per_op" (po Ledger.fn_entry);
  set "lxfi.principal_switches_per_op" (po Ledger.principal_switches);
  set "lxfi.caps_granted_per_op" (po Ledger.caps_granted);
  set "lxfi.caps_revoked_per_op" (po Ledger.caps_revoked);
  set "lxfi.sim_guard_cycles_per_op" (po Ledger.cycles_guard);
  set "lxfi.principals_live_start" (float_of_int principals_start);
  set "lxfi.principals_live" (float_of_int principals_end);
  List.iter (fun (k, v) -> set k v) probes;
  set "lxfi.load_ns" (mean "lxfi.load");
  set "lxfi.rewrite_ns" (mean "lxfi.rewrite");
  set "lxfi.snapshot_ns" (mean "lxfi.snapshot");
  set "check.module_ns" (mean "check.module");
  set "fuzz.gen_ns" (per_op run (Tracer.total t "fuzz.gen"));
  set "fuzz.clean_oracle_ns" (per_op run (Tracer.total t "fuzz.clean_oracle"));
  set "fuzz.mutant_ns" (mean "fuzz.mutant");
  List.iter (fun (k, v) -> set k v) (r.Runner.extra ());
  set "ocaml_gc.minor_words_per_op" (base.minor_words /. float_of_int base.ops);
  set "ocaml_gc.major_collections_per_kop" (1000. *. per_op base base.major_collections);
  List.iter (fun (k, v) -> set k v) sweep;
  (* Layer-sum reconciliation: each probe's cost times its guard's
     per-operation count, against the measured interpreter-side time. *)
  let est =
    (probe "lxfi.guard_write_ns" *. po Ledger.mem_write_checks)
    +. (probe "lxfi.entry_exit_guard_ns" *. po Ledger.fn_entry)
    +. (probe "lxfi.kindcall_checked_ns" *. po Ledger.kernel_indcall_checked)
    +. (probe "lxfi.kindcall_elided_ns" *. po Ledger.kernel_indcall_elided)
    +. (probe "lxfi.call_kexport_ns" *. po Ledger.annotation_actions)
    +. (probe "lxfi.grant_revoke_ns" *. po Ledger.caps_granted)
  in
  set "lxfi.enforcement_est_ns_per_op" est;
  set "lxfi.unattributed_ns_per_op"
    (per_op run (interp_ns t) -. est -. (po Ledger.mir_steps *. ns_per_step));
  set "perfbench.untraced_ops_per_s" (ops_per_s base);
  set "perfbench.traced_ops_per_s" (ops_per_s run);
  set "perfbench.trace_overhead_ratio" (ops_per_s base /. ops_per_s run);
  set "perfbench.host_calib_ns" (Meter.percentile (Meter.Samples.sorted base.cal) 0.5);
  (* report *)
  Printf.printf "perfbench %s (traced): seed %d, %d ops traced, %d untraced\n" wl.name seed run.ops
    base.ops;
  Printf.printf "spans (per traced op): %-44s %10s %14s %14s\n" "name" "count" "total_ns/op"
    "self_ns/op";
  List.iter
    (fun n ->
      Printf.printf "  %-62s %10d %14.1f %14.1f\n" n (Tracer.count t n)
        (per_op run (Tracer.total t n)) (per_op run (Tracer.self t n)))
    (Tracer.names t);
  Printf.printf "per-layer metrics:\n";
  let metrics =
    List.map
      (fun (k, unit) ->
        let v = Option.value ~default:0. (Hashtbl.find_opt values k) in
        Printf.printf "  %-42s %16.4f %s\n" k v unit;
        (k, unit, v))
      per_layer_units
  in
  ensure_out_dir ();
  let spans = Filename.concat out_dir (Printf.sprintf "spans-%s-%d.tsv" wl.name seed) in
  Tracer.write t spans;
  Printf.printf "spans written to %s (%d recorded, first %d kept)\n" spans t.Tracer.started
    Tracer.capacity;
  let failed = base.failed + run.failed + stock.failed in
  let attempted = base.ops + run.ops + stock.ops in
  let correct = failed = 0 in
  print_result ~correct ~attempted ~failed metrics;
  correct

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME netperf_mix | socket_fanout | fuzz_campaign");
      ("--seed", Arg.Set_int seed, "N operation-stream seed");
      ("--seconds", Arg.Set_float seconds, "S measured time per run");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload W --seed N --seconds S --trace 0|1";
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
      prerr_endline ("perfbench: unknown workload " ^ !workload);
      exit 2
  | Some wl ->
      let ok =
        if !trace = 0 then end_to_end wl ~seed:!seed ~seconds:!seconds
        else traced wl ~seed:!seed ~seconds:!seconds
      in
      exit (if ok then 0 else 1)
