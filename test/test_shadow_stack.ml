(* Tests of the per-thread shadow stack (§5): return-token validation,
   principal save/restore, interrupt nesting. *)

open Lxfi

let mk () = Shadow_stack.create ~mem_base:0x3_0000_4000 ~mem_len:0x4000

let some_principal name =
  Some (Principal.make ~kind:Principal.Shared ~owner:name ~primary_name:0)

let test_push_pop () =
  let s = mk () in
  let p = some_principal "m" in
  let tok = Shadow_stack.push s ~wrapper:"w" ~saved_principal:p in
  Alcotest.(check int) "depth" 1 (Shadow_stack.depth s);
  let restored = Shadow_stack.pop s ~wrapper:"w" ~token:tok in
  Alcotest.(check bool) "principal restored" true (restored = p);
  Alcotest.(check int) "empty" 0 (Shadow_stack.depth s)

let test_lifo_nesting () =
  let s = mk () in
  let t1 = Shadow_stack.push s ~wrapper:"outer" ~saved_principal:(some_principal "a") in
  let t2 = Shadow_stack.push s ~wrapper:"inner" ~saved_principal:(some_principal "b") in
  let pb = Shadow_stack.pop s ~wrapper:"inner" ~token:t2 in
  let pa = Shadow_stack.pop s ~wrapper:"outer" ~token:t1 in
  (match (pb, pa) with
  | Some b, Some a ->
      Alcotest.(check string) "inner restores b" "b" b.Principal.owner;
      Alcotest.(check string) "outer restores a" "a" a.Principal.owner
  | _ -> Alcotest.fail "principals lost");
  Alcotest.(check (option string)) "top wrapper empty" None (Shadow_stack.top_wrapper s)

let expect_violation f =
  try
    f ();
    Alcotest.fail "expected shadow-stack violation"
  with Violation.Violation v ->
    Alcotest.(check string) "kind" "shadow-stack" (Violation.kind_name v.Violation.v_kind)

let test_token_mismatch () =
  let s = mk () in
  let t1 = Shadow_stack.push s ~wrapper:"outer" ~saved_principal:None in
  let _t2 = Shadow_stack.push s ~wrapper:"inner" ~saved_principal:None in
  (* returning through the outer frame while inner is live = corrupted
     return address *)
  expect_violation (fun () -> ignore (Shadow_stack.pop s ~wrapper:"outer" ~token:t1))

let test_pop_empty () =
  let s = mk () in
  expect_violation (fun () -> ignore (Shadow_stack.pop s ~wrapper:"w" ~token:1))

let test_stale_token_reuse () =
  let s = mk () in
  let t = Shadow_stack.push s ~wrapper:"w" ~saved_principal:None in
  ignore (Shadow_stack.pop s ~wrapper:"w" ~token:t);
  expect_violation (fun () -> ignore (Shadow_stack.pop s ~wrapper:"w" ~token:t))

let test_overflow () =
  let s = Shadow_stack.create ~mem_base:0 ~mem_len:64 (* 4 frames *) in
  expect_violation (fun () ->
      for _ = 1 to 10 do
        ignore (Shadow_stack.push s ~wrapper:"w" ~saved_principal:None)
      done)

let test_max_depth_tracking () =
  let s = mk () in
  let t1 = Shadow_stack.push s ~wrapper:"a" ~saved_principal:None in
  let t2 = Shadow_stack.push s ~wrapper:"b" ~saved_principal:None in
  ignore (Shadow_stack.pop s ~wrapper:"b" ~token:t2);
  ignore (Shadow_stack.pop s ~wrapper:"a" ~token:t1);
  Alcotest.(check int) "max depth recorded" 2 s.Shadow_stack.max_depth

(* [depth] is a counter kept by push, pop and unwind_to; it must always
   equal the number of frames. *)
let check_depth s n =
  Alcotest.(check int) "depth" n (Shadow_stack.depth s);
  Alcotest.(check int) "frames" n (List.length s.Shadow_stack.frames)

let test_depth_counter () =
  let s = mk () in
  check_depth s 0;
  let toks = List.init 5 (fun i -> Shadow_stack.push s ~wrapper:(string_of_int i) ~saved_principal:None) in
  check_depth s 5;
  ignore (Shadow_stack.pop s ~wrapper:"4" ~token:(List.nth toks 4));
  check_depth s 4;
  (* a refused pop leaves the stack as it was *)
  expect_violation (fun () -> ignore (Shadow_stack.pop s ~wrapper:"0" ~token:(List.hd toks)));
  check_depth s 4;
  ignore (Shadow_stack.unwind_to s ~depth:6);
  check_depth s 4;
  ignore (Shadow_stack.unwind_to s ~depth:1);
  check_depth s 1;
  ignore (Shadow_stack.unwind_to s ~depth:0);
  check_depth s 0;
  (* the overflowing push raises with its frame on the stack *)
  let small = Shadow_stack.create ~mem_base:0 ~mem_len:64 in
  expect_violation (fun () ->
      for _ = 1 to 10 do
        ignore (Shadow_stack.push small ~wrapper:"w" ~saved_principal:None)
      done);
  check_depth small 5

(* A wrapper whose callee raises pops its own frame on the way out. *)
let test_depth_after_exception_unwind () =
  let kst = Kernel_sim.Kstate.boot () in
  let rt = Runtime.create ~kst ~config:Config.lxfi in
  let mi, _ =
    Loader.load rt
      (Mir.Parser.parse
         {|module boom
imports:
func f(n) {
  return (n / 0);
}
|})
  in
  ignore (Annot.Registry.define_exn rt.Runtime.registry ~name:"t.f" ~params:[ "n" ] ~annot_src:"");
  Hashtbl.replace mi.Runtime.mi_func_slot "f" (Annot.Registry.find rt.Runtime.registry "t.f");
  let outer = Shadow_stack.push rt.Runtime.sstack ~wrapper:"outer" ~saved_principal:None in
  (match Runtime.invoke_module_function rt mi "f" [ 1L ] with
  | _ -> Alcotest.fail "expected the callee to raise"
  | exception Kernel_sim.Kstate.Oops _ -> ());
  check_depth rt.Runtime.sstack 1;
  ignore (Shadow_stack.pop rt.Runtime.sstack ~wrapper:"outer" ~token:outer);
  check_depth rt.Runtime.sstack 0

(* IRQ semantics through the runtime: an interrupt must strip module
   privileges and restore them at exit. *)
let test_irq_save_restore () =
  let kst = Kernel_sim.Kstate.boot () in
  let rt = Runtime.create ~kst ~config:Config.lxfi in
  let p = Principal.make ~kind:Principal.Instance ~owner:"m" ~primary_name:0x9000 in
  rt.Runtime.current <- Some p;
  let tok = Runtime.irq_enter rt in
  Alcotest.(check bool) "irq runs as kernel" true (rt.Runtime.current = None);
  Runtime.irq_exit rt tok;
  (match rt.Runtime.current with
  | Some q -> Alcotest.(check int) "module principal restored" p.Principal.id q.Principal.id
  | None -> Alcotest.fail "principal lost");
  (* nested irqs *)
  let t1 = Runtime.irq_enter rt in
  let t2 = Runtime.irq_enter rt in
  Runtime.irq_exit rt t2;
  Runtime.irq_exit rt t1;
  Alcotest.(check bool) "still the module principal" true
    (match rt.Runtime.current with Some q -> q.Principal.id = p.Principal.id | None -> false)

let () =
  Alcotest.run "shadow_stack"
    [
      ( "frames",
        [
          Alcotest.test_case "push/pop" `Quick test_push_pop;
          Alcotest.test_case "LIFO nesting" `Quick test_lifo_nesting;
          Alcotest.test_case "token mismatch" `Quick test_token_mismatch;
          Alcotest.test_case "pop empty" `Quick test_pop_empty;
          Alcotest.test_case "stale token" `Quick test_stale_token_reuse;
          Alcotest.test_case "overflow" `Quick test_overflow;
          Alcotest.test_case "max depth" `Quick test_max_depth_tracking;
          Alcotest.test_case "depth counter" `Quick test_depth_counter;
          Alcotest.test_case "depth after exception unwind" `Quick
            test_depth_after_exception_unwind;
        ] );
      ("irq", [ Alcotest.test_case "irq save/restore" `Quick test_irq_save_restore ]);
    ]
