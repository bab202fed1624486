(* Host-side measurement: the monotonic clock, latency sample buffers,
   percentiles, repeated-call probes and the in-memory span tracer.
   Everything here is benchmark code; nothing in lib/ is touched. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

(* Growable sample buffer kept outside the OCaml heap, so recording a
   latency neither allocates per operation nor shows in heap_peak_mb. *)
module Samples = struct
  open Bigarray

  type t = { mutable a : (int, int_elt, c_layout) Array1.t; mutable n : int }

  let create cap = { a = Array1.create Int C_layout (max 16 cap); n = 0 }

  let add t v =
    if t.n = Array1.dim t.a then begin
      let b = Array1.create Int C_layout (2 * t.n) in
      Array1.blit t.a (Array1.sub b 0 t.n);
      t.a <- b
    end;
    Array1.unsafe_set t.a t.n v;
    t.n <- t.n + 1

  let clear t = t.n <- 0

  let get t i = Array1.get t.a i

  (* Sorted copy of samples [off, off + len), by default all of them,
     each multiplied by [scale] of its index. *)
  let sorted ?(off = 0) ?len ?(scale = fun _ -> 1.) t =
    let len = Option.value len ~default:(t.n - off) in
    let s = Array.init len (fun i -> float_of_int (Array1.get t.a (off + i)) *. scale (off + i)) in
    Array.sort Float.compare s;
    s
end

(* Linear interpolation between closest ranks (Python's "inclusive"
   method), so a percentile moves continuously with the data. *)
let percentile sorted q =
  let n = Array.length sorted in
  if n = 0 then Float.nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    let f = pos -. float_of_int lo in
    (sorted.(lo) *. (1. -. f)) +. (sorted.(hi) *. f)

let median_float xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  percentile a 0.5

(* ns per call of [f]: batches of calls sized to about 1 ms, repeated
   for [budget_s] seconds (at least five batches); the median batch
   mean is reported, which discards batches a GC slice or a scheduler
   tick landed in. *)
let probe ?(budget_s = 0.05) f =
  let min_batches = 5 in
  f ();
  let t0 = now_ns () in
  f ();
  let one = max 1 (now_ns () - t0) in
  let per_batch = max 1 (1_000_000 / one) in
  let deadline = now_ns () + int_of_float (budget_s *. 1e9) in
  let rec go acc k =
    if k >= min_batches && now_ns () >= deadline then acc
    else begin
      let s = now_ns () in
      for _ = 1 to per_batch do
        f ()
      done;
      let e = now_ns () in
      go (float_of_int (e - s) /. float_of_int per_batch :: acc) (k + 1)
    end
  in
  median_float (go [] 0)

(* Host-speed calibration.  The shared host's speed changes by up to
   1.9x over seconds and minutes as other tenants come and go.  The
   calibration unit is a fixed piece of work that uses none of the
   simulator and does not allocate (so it neither moves the GC nor
   depends on it): a small dispatch loop over a code array, hash-table
   lookups and byte-buffer reads and writes.  Its time, measured next to
   each chunk of operations, tracks how fast the host runs there. *)
let calib_code = Array.init 4096 (fun i -> (i * 7919) land 7)
let calib_table = Hashtbl.create 1024
let () = for k = 0 to 1023 do Hashtbl.replace calib_table k (k * 31) done
let calib_buf = Bytes.make 4096 '\000'

let calib_unit () =
  let acc = ref 0 in
  for i = 0 to 4095 do
    acc :=
      match Array.unsafe_get calib_code i with
      | 0 -> !acc + i
      | 1 -> !acc lxor (i lsl 3)
      | 2 -> !acc + Hashtbl.find calib_table (i land 1023)
      | 3 ->
          Bytes.set_int64_le calib_buf ((i land 511) * 8) (Int64.of_int !acc);
          !acc + 1
      | 4 -> !acc + Int64.to_int (Bytes.get_int64_le calib_buf ((i * 13) land 511 * 8))
      | 5 -> !acc * 3
      | 6 -> !acc - (i land 255)
      | _ -> !acc lsr 1
  done;
  !acc

(* ns taken by one calibration unit now. *)
let calib_ns () =
  let s = now_ns () in
  ignore (Sys.opaque_identity (calib_unit ()));
  now_ns () - s

(* A calibration unit takes about this long when the host is in its
   fast state; times are reported at this speed. *)
let reference_calib_ns = 25_000.

(* The factor that turns a time measured while a calibration unit took
   [cal_ns] into the time at the reference speed. *)
let speed_factor cal_ns = reference_calib_ns /. cal_ns

(* The speed factor of each chunk of a run, from [cal], one calibration
   per chunk.  A chunk's calibration is the median of those within 8
   chunks of it, which discards units a scheduler tick landed in. *)
let speed_factors (cal : Samples.t) =
  let n = cal.Samples.n in
  Array.init n (fun c ->
      let lo = max 0 (c - 8) and hi = min (n - 1) (c + 8) in
      speed_factor (percentile (Samples.sorted ~off:lo ~len:(hi - lo + 1) cal) 0.5))

(* The span tracer.  A span has a name, a start, an end and a parent;
   self time is the duration minus the time covered by child spans.
   Aggregates per name are kept for every span; the first [capacity]
   spans are also stored for {!write}. *)
module Tracer = struct
  let max_names = 256
  let max_depth = 256
  let capacity = 65536

  type t = {
    names : (string, int) Hashtbl.t;
    name_of : string array;
    mutable n_names : int;
    count : int array;
    total : int array;
    self : int array;
    st_id : int array;
    st_name : int array;
    st_start : int array;
    st_child : int array;
    mutable depth : int;
    mutable started : int;
    sp_name : int array;
    sp_parent : int array;
    sp_start : int array;
    sp_stop : int array;
  }

  let create () =
    {
      names = Hashtbl.create 64;
      name_of = Array.make max_names "";
      n_names = 0;
      count = Array.make max_names 0;
      total = Array.make max_names 0;
      self = Array.make max_names 0;
      st_id = Array.make max_depth 0;
      st_name = Array.make max_depth 0;
      st_start = Array.make max_depth 0;
      st_child = Array.make max_depth 0;
      depth = 0;
      started = 0;
      sp_name = Array.make capacity 0;
      sp_parent = Array.make capacity 0;
      sp_start = Array.make capacity 0;
      sp_stop = Array.make capacity 0;
    }

  let intern t name =
    match Hashtbl.find_opt t.names name with
    | Some id -> id
    | None ->
        let id = t.n_names in
        if id >= max_names then invalid_arg "Tracer.intern: too many span names";
        t.n_names <- id + 1;
        t.name_of.(id) <- name;
        Hashtbl.replace t.names name id;
        id

  let enter t name =
    let d = t.depth in
    if d >= max_depth then invalid_arg "Tracer.enter: spans nested too deep";
    let id = t.started in
    t.started <- id + 1;
    let start = now_ns () in
    t.st_id.(d) <- id;
    t.st_name.(d) <- name;
    t.st_start.(d) <- start;
    t.st_child.(d) <- 0;
    t.depth <- d + 1;
    if id < capacity then begin
      t.sp_name.(id) <- name;
      t.sp_parent.(id) <- (if d = 0 then -1 else t.st_id.(d - 1));
      t.sp_start.(id) <- start;
      t.sp_stop.(id) <- start
    end

  (* Close the innermost span; returns its duration in ns. *)
  let leave t =
    let stop = now_ns () in
    let d = t.depth - 1 in
    t.depth <- d;
    let dur = stop - t.st_start.(d) in
    let nm = t.st_name.(d) in
    t.count.(nm) <- t.count.(nm) + 1;
    t.total.(nm) <- t.total.(nm) + dur;
    t.self.(nm) <- t.self.(nm) + dur - t.st_child.(d);
    if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + dur;
    let id = t.st_id.(d) in
    if id < capacity then t.sp_stop.(id) <- stop;
    dur

  let span t name f =
    enter t name;
    match f () with
    | v ->
        ignore (leave t);
        v
    | exception e ->
        ignore (leave t);
        raise e

  let find t name = Hashtbl.find_opt t.names name

  let count t name = match find t name with Some id -> t.count.(id) | None -> 0
  let total t name = match find t name with Some id -> t.total.(id) | None -> 0
  let self t name = match find t name with Some id -> t.self.(id) | None -> 0

  (* Mean duration of one [name] span, ns; [None] if none closed. *)
  let mean t name =
    match find t name with
    | Some id when t.count.(id) > 0 ->
        Some (float_of_int t.total.(id) /. float_of_int t.count.(id))
    | _ -> None

  let names t = List.init t.n_names (fun id -> t.name_of.(id))

  (* Tab-separated: id, parent id (-1 = root), name, start ns, end ns. *)
  let write t path =
    let oc = open_out path in
    output_string oc "id\tparent\tname\tstart_ns\tend_ns\n";
    for id = 0 to min t.started capacity - 1 do
      Printf.fprintf oc "%d\t%d\t%s\t%d\t%d\n" id t.sp_parent.(id) t.name_of.(t.sp_name.(id))
        t.sp_start.(id) t.sp_stop.(id)
    done;
    close_out oc
end
