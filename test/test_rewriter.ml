(* Tests of the compile-time rewriter (§4.2): guard insertion, the
   safe-store elision, trivial-function inlining, and the cases the
   rewriter must refuse. *)

open Mir.Builder
module RW = Lxfi.Rewriter

let cfg = Lxfi.Config.lxfi

let cfg_noopt =
  { cfg with Lxfi.Config.opt_elide_safe_writes = false; opt_inline_trivial = false }

let mk funcs = prog "t" ~imports:[] ~globals:[ global "g" 64 ] ~funcs

let guards_in prog =
  List.fold_left
    (fun acc (f : Mir.Ast.func) ->
      Mir.Ast.fold_stmts
        ~stmt:(fun n -> function Mir.Ast.Guard _ -> n + 1 | _ -> n)
        (fun n _ -> n) acc f.Mir.Ast.body)
    0 prog.Mir.Ast.funcs

(* Run [f] of a program on a bare interpreter: guards and hooks are
   no-ops, so an original and its instrumented form must agree. *)
let run_f ?(args = []) prog =
  let kst = Kernel_sim.Kstate.boot () in
  let globals = Hashtbl.create 4 in
  List.iter
    (fun (g : Mir.Ast.glob) ->
      Hashtbl.replace globals g.Mir.Ast.gname
        (Kernel_sim.Kstate.alloc_module_area kst (max 16 g.Mir.Ast.gsize)))
    prog.Mir.Ast.globals;
  let ctx =
    Mir.Interp.create ~kst ~prog
      ~global_addr:(Hashtbl.find globals)
      ~func_addr:(fun f -> Hashtbl.hash f)
      ~ext_addr:(fun _ -> 0)
      ~call_ext:(fun _ _ -> 0L)
      ~guard_write:(fun ~addr:_ ~size:_ -> ())
      ~guard_indcall:(fun ~target:_ -> ())
      ~on_entry:(fun _ -> ())
      ~on_exit:(fun _ -> ())
      ~hooks_enabled:false
      ~stack_base:(Kernel_sim.Kstate.alloc_module_area kst 4096)
      ~stack_len:4096
  in
  Mir.Interp.run ctx "f" args

let test_store_gets_guard () =
  let p = mk [ func "f" [] [ store64 (glob "g") (ii 1); ret0 ] ] in
  let p', r = RW.instrument cfg_noopt p in
  Alcotest.(check int) "one write guard" 1 r.RW.r_write_guards;
  Alcotest.(check int) "guard statement present" 1 (guards_in p');
  Alcotest.(check bool) "size grew" true (r.RW.r_inst_size > r.RW.r_orig_size)

let test_stock_unchanged () =
  let p = mk [ func "f" [] [ store64 (glob "g") (ii 1); ret0 ] ] in
  let p', r = RW.instrument Lxfi.Config.stock p in
  Alcotest.(check int) "no guards" 0 (guards_in p');
  Alcotest.(check int) "size unchanged" r.RW.r_orig_size r.RW.r_inst_size

let test_safe_store_elided () =
  let p =
    mk
      [
        func "f" []
          [
            alloca "buf" 32;
            store64 (v "buf") (ii 1) (* offset 0, in bounds *);
            store64 (v "buf" +: ii 24) (ii 2) (* offset 24+8 = 32, in bounds *);
            store64 (v "buf" +: ii 25) (ii 3) (* 25+8 > 32: out of bounds *);
            store64 (glob "g") (ii 4) (* not an alloca *);
            ret0;
          ];
      ]
  in
  let _, r = RW.instrument cfg p in
  Alcotest.(check int) "two elided" 2 r.RW.r_write_elided;
  Alcotest.(check int) "two guarded" 2 r.RW.r_write_guards

let test_elision_needs_stable_binding () =
  (* rebinding the alloca variable kills the bound, so the store must
     be guarded *)
  let p =
    mk
      [
        func "f" []
          [
            alloca "buf" 32;
            let_ "buf" (v "buf" +: ii 16);
            store64 (v "buf") (ii 1);
            ret0;
          ];
      ]
  in
  let _, r = RW.instrument cfg p in
  Alcotest.(check int) "no elision after rebind" 0 r.RW.r_write_elided;
  Alcotest.(check int) "guarded" 1 r.RW.r_write_guards

let test_indirect_call_guarded () =
  let p =
    mk
      [
        func "f" []
          [
            let_ "fp" (load64 (glob "g"));
            let_ "x" (call_ind (v "fp") [ ii 1 ]);
            ret (v "x");
          ];
      ]
  in
  let p', r = RW.instrument cfg p in
  Alcotest.(check int) "one indirect guard" 1 r.RW.r_indcall_guards;
  Alcotest.(check int) "guard present" 1 (guards_in p')

let test_nested_indirect_rejected () =
  (* an indirect call buried in a subexpression cannot be guarded; the
     rewriter refuses it like the paper's plugin refuses untraceable
     pointers (§7) *)
  let p =
    mk
      [
        func "f" []
          [ ret (ii 1 +: call_ind (load64 (glob "g")) []) ];
      ]
  in
  match RW.instrument cfg p with
  | exception RW.Rewrite_error _ -> ()
  | _ -> Alcotest.fail "expected rewrite error"

let test_trivial_inlining () =
  let p =
    mk
      [
        func "double" [ "x" ] [ ret (v "x" *: ii 2) ];
        func "f" [] [ ret (call "double" [ ii 21 ]) ];
      ]
  in
  let p', r = RW.instrument cfg p in
  Alcotest.(check int) "one call inlined" 1 r.RW.r_inlined_calls;
  Alcotest.(check int) "leaf dropped" 1 r.RW.r_dropped_funcs;
  Alcotest.(check int) "one function remains" 1 (List.length p'.Mir.Ast.funcs)

let test_inlining_preserves_semantics () =
  (* run the instrumented program and compare with the original *)
  let p =
    mk
      [
        func "triple" [ "x" ] [ ret (v "x" *: ii 3) ];
        func "f" [ "n" ] [ ret (call "triple" [ v "n" ] +: call "triple" [ ii 2 ]) ];
      ]
  in
  let p', _ = RW.instrument cfg p in
  Alcotest.(check int64) "same result" (run_f ~args:[ 5L ] p) (run_f ~args:[ 5L ] p')

(* Inlining substitutes argument expressions into the callee's body, so
   a call inside an argument could be dropped (the parameter is unused)
   or reordered (the parameters are used out of order).  Such sites
   stay calls. *)
let bump = func "bump" [] [ store64 (glob "g") (load64 (glob "g") +: ii 1); ret (load64 (glob "g")) ]

let check_not_inlined name p =
  let p', r = RW.instrument cfg p in
  Alcotest.(check int) (name ^ ": site kept") 0 r.RW.r_inlined_calls;
  Alcotest.(check int64) (name ^ ": same result") (run_f p) (run_f p')

let test_inlining_keeps_dropped_arg_call () =
  check_not_inlined "unused parameter"
    (mk
       [
         func "k" [ "x" ] [ ret (ii 7) ];
         bump;
         func "f" [] [ expr (call "k" [ call "bump" [] ]); ret (load64 (glob "g")) ];
       ])

let test_inlining_keeps_arg_call_order () =
  check_not_inlined "reordered parameters"
    (mk
       [
         func "sub" [ "a"; "b" ] [ ret (v "b" -: v "a") ];
         bump;
         func "f" [] [ ret (call "sub" [ load64 (glob "g"); call "bump" [] ]) ];
       ])

let test_no_double_duplication_of_effects () =
  (* a trivial function whose parameter appears twice must NOT be
     inlined when the argument could carry effects *)
  let p =
    mk
      [
        func "square" [ "x" ] [ ret (v "x" *: v "x") ];
        func "bump_and_get" []
          [
            store64 (glob "g") (load64 (glob "g") +: ii 1);
            ret (load64 (glob "g"));
          ];
        func "f" [] [ ret (call "square" [ call "bump_and_get" [] ]) ];
      ]
  in
  let p', _ = RW.instrument cfg p in
  (* square must still exist because it was not inlined *)
  Alcotest.(check bool) "square survives" true
    (Mir.Ast.find_func p' "square" <> None)

let test_exported_functions_survive_inlining () =
  let p =
    prog "t" ~imports:[] ~globals:[]
      ~funcs:[ func "cb" [ "x" ] [ ret (v "x") ] ~export:"bench.entry" ]
  in
  let p', _ = RW.instrument cfg p in
  Alcotest.(check bool) "exported trivial function kept" true
    (Mir.Ast.find_func p' "cb" <> None)

let test_address_taken_survive () =
  let p =
    prog "t" ~imports:[]
      ~globals:[ global "tbl" 8 ~init:[ init_func 0 "cb" ] ]
      ~funcs:
        [
          func "cb" [ "x" ] [ ret (v "x") ];
          func "f" [] [ ret (call "cb" [ ii 3 ]) ];
        ]
  in
  let p', _ = RW.instrument cfg p in
  Alcotest.(check bool) "address-taken function kept" true
    (Mir.Ast.find_func p' "cb" <> None)

let test_double_instrumentation_rejected () =
  let p = mk [ func "f" [] [ store64 (glob "g") (ii 1); ret0 ] ] in
  let p', _ = RW.instrument cfg p in
  match RW.instrument cfg p' with
  | exception RW.Rewrite_error _ -> ()
  | _ -> Alcotest.fail "re-instrumenting must fail"

(* The rewriter's report for every catalog module and Figure 11
   program: IR size before and after, write guards, elided stores,
   indirect-call guards, inlined calls, dropped functions. *)
let report_golden =
  [
    ("e1000", [ 509; 712; 37; 0; 0; 0; 0 ]);
    ("snd_intel8x0", [ 168; 232; 10; 0; 0; 0; 0 ]);
    ("snd_ens1370", [ 168; 232; 10; 0; 0; 0; 0 ]);
    ("rds", [ 265; 340; 11; 0; 0; 0; 0 ]);
    ("can", [ 241; 316; 11; 0; 0; 0; 0 ]);
    ("can_bcm", [ 327; 427; 16; 0; 0; 0; 0 ]);
    ("econet", [ 279; 354; 11; 0; 0; 0; 0 ]);
    ("dm_crypt", [ 122; 149; 5; 0; 0; 1; 1 ]);
    ("dm_zero", [ 61; 79; 2; 0; 0; 0; 0 ]);
    ("dm_snapshot", [ 152; 177; 3; 0; 0; 0; 0 ]);
    ("hotlist", [ 82; 103; 3; 0; 0; 0; 0 ]);
    ("lld", [ 164; 210; 8; 0; 0; 5; 2 ]);
    ("MD5", [ 587; 611; 4; 28; 0; 0; 0 ]);
  ]

let test_report_golden () =
  let sys = Kmodules.Ksys.boot cfg in
  let progs =
    List.map
      (fun (s : Kmodules.Mod_common.spec) -> (s.Kmodules.Mod_common.name, s.Kmodules.Mod_common.make sys))
      Kmodules.Catalog.all
    @ Workloads.Microbench.[ ("hotlist", hotlist_prog); ("lld", lld_prog); ("MD5", md5_prog) ]
  in
  Alcotest.(check (list string)) "programs" (List.map fst report_golden) (List.map fst progs);
  List.iter2
    (fun (name, want) (_, prog) ->
      let _, r = RW.instrument cfg prog in
      Alcotest.(check (list int)) name want
        RW.
          [
            r.r_orig_size;
            r.r_inst_size;
            r.r_write_guards;
            r.r_write_elided;
            r.r_indcall_guards;
            r.r_inlined_calls;
            r.r_dropped_funcs;
          ])
    report_golden progs

let () =
  Alcotest.run "rewriter"
    [
      ( "guards",
        [
          Alcotest.test_case "store guarded" `Quick test_store_gets_guard;
          Alcotest.test_case "stock untouched" `Quick test_stock_unchanged;
          Alcotest.test_case "safe stores elided" `Quick test_safe_store_elided;
          Alcotest.test_case "rebind kills elision" `Quick test_elision_needs_stable_binding;
          Alcotest.test_case "indirect call guarded" `Quick test_indirect_call_guarded;
          Alcotest.test_case "nested indirect rejected" `Quick test_nested_indirect_rejected;
          Alcotest.test_case "double instrumentation rejected" `Quick
            test_double_instrumentation_rejected;
        ] );
      ( "inlining",
        [
          Alcotest.test_case "trivial call inlined" `Quick test_trivial_inlining;
          Alcotest.test_case "semantics preserved" `Quick test_inlining_preserves_semantics;
          Alcotest.test_case "effectful args not duplicated" `Quick
            test_no_double_duplication_of_effects;
          Alcotest.test_case "exports survive" `Quick test_exported_functions_survive_inlining;
          Alcotest.test_case "address-taken survive" `Quick test_address_taken_survive;
          Alcotest.test_case "argument call not dropped" `Quick
            test_inlining_keeps_dropped_arg_call;
          Alcotest.test_case "argument call not reordered" `Quick
            test_inlining_keeps_arg_call_order;
        ] );
      ("report", [ Alcotest.test_case "golden per module" `Quick test_report_golden ]);
    ]
