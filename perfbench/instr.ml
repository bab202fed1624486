(* Tracing state shared by the workloads.  With no tracer installed
   every hook is a no-op, so the end-to-end runs measure the program
   with nothing of the benchmark inside it. *)

open Kernel_sim
module Tracer = Meter.Tracer

let tracer : Tracer.t option ref = ref None

(* Duration of every kernel indirect-call dispatch, ns. *)
let dispatch_ns = Meter.Samples.create 4096

let tracing () = Option.is_some !tracer

let span name f =
  match !tracer with None -> f () | Some t -> Tracer.span t (Tracer.intern t name) f

(* Wrap the public [Kstate.indcall] hook of a booted system so every
   kernel indirect call becomes a [lxfi.dispatch:<owner>:<path>] span.
   The path is the one [Runtime.kernel_indirect_call] takes: [elided]
   when the writer set says no principal can have written the slot,
   [checked] otherwise, [raw] outside LXFI mode. *)
let wrap_indcall (sys : Kmodules.Ksys.t) =
  match !tracer with
  | None -> ()
  | Some t ->
      let kst = sys.Kmodules.Ksys.kst in
      let rt = sys.Kmodules.Ksys.rt in
      let inner = kst.Kstate.indcall in
      let ids = Hashtbl.create 16 in
      let name_id slot =
        let target = Kmem.read_ptr kst.Kstate.mem slot in
        let path =
          let cfg = rt.Lxfi.Runtime.config in
          if cfg.Lxfi.Config.mode <> Lxfi.Config.Lxfi then 0
          else if
            cfg.Lxfi.Config.writer_set_tracking
            && not (Lxfi.Writer_set.maybe_written rt.Lxfi.Runtime.wset slot)
          then 1
          else 2
        in
        let key = (target * 4) + path in
        match Hashtbl.find_opt ids key with
        | Some id -> id
        | None ->
            let owner =
              match Kstate.target_of kst target with
              | Some { Kstate.t_kind = Kstate.Module_fn m; _ } -> m
              | Some { Kstate.t_kind = Kstate.Kernel_fn; _ } -> "kernel"
              | Some { Kstate.t_kind = Kstate.User_fn; _ } -> "user"
              | None -> "unknown"
            in
            let id =
              Tracer.intern t
                (Printf.sprintf "lxfi.dispatch:%s:%s" owner
                   (match path with 0 -> "raw" | 1 -> "elided" | _ -> "checked"))
            in
            Hashtbl.replace ids key id;
            id
      in
      let finish () = Meter.Samples.add dispatch_ns (Tracer.leave t) in
      kst.Kstate.indcall <-
        (fun ~slot ~ftype args ->
          Tracer.enter t (name_id slot);
          match inner ~slot ~ftype args with
          | r ->
              finish ();
              r
          | exception e ->
              finish ();
              raise e)

(* Names of the dispatch spans recorded so far. *)
let dispatch_names t =
  List.filter (fun n -> String.length n > 14 && String.sub n 0 14 = "lxfi.dispatch:") (Tracer.names t)
