(* ChessLang frontend: lexing, parsing (precedence, errors with positions),
   static checks, and end-to-end execution under the checker. *)

open Fairmc_core
module D = Fairmc_dsl
module T = D.Token

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let parse src = D.Parser.parse_string src
let load src = D.load_string src

let run ?(cfg = { Search_config.default with livelock_bound = Some 1_000 }) src =
  Search.run cfg (load src)

let verdict_of src =
  match (run src).Report.verdict with
  | Report.Verified -> "verified"
  | Report.Safety_violation _ -> "safety"
  | Report.Deadlock _ -> "deadlock"
  | Report.Divergence _ -> "divergence"
  | Report.Race _ -> "race"
  | Report.Crash _ -> "crash"
  | Report.Limits_reached -> "limits"

let expect_sema_error src =
  match D.load_string src with
  | exception D.Sema.Error _ -> ()
  | exception e -> Alcotest.fail ("expected Sema.Error, got " ^ Printexc.to_string e)
  | _ -> Alcotest.fail "expected a static error"

let expect_parse_error src =
  match parse src with
  | exception D.Parser.Error _ -> ()
  | exception D.Lexer.Error _ -> ()
  | _ -> Alcotest.fail "expected a parse error"

let lexer_tests =
  [ Alcotest.test_case "tokens" `Quick (fun () ->
        let toks = List.map fst (D.Lexer.tokenize_string "var x = 42; // comment\n x == !y") in
        check "token stream" true
          (toks
           = [ T.KW_VAR; T.IDENT "x"; T.ASSIGN; T.INT 42; T.SEMI; T.IDENT "x"; T.EQ;
               T.BANG; T.IDENT "y"; T.EOF ]));
    Alcotest.test_case "nested comments and strings" `Quick (fun () ->
        let toks = List.map fst (D.Lexer.tokenize_string "/* a /* b */ c */ \"hi\\n\"") in
        check "comment skipped, string lexed" true (toks = [ T.STRING "hi\n"; T.EOF ]));
    Alcotest.test_case "positions track lines" `Quick (fun () ->
        let toks = D.Lexer.tokenize_string "var\nx" in
        match toks with
        | [ (_, p1); (_, p2); _ ] ->
          check_int "first line" 1 p1.D.Ast.line;
          check_int "second line" 2 p2.D.Ast.line
        | _ -> Alcotest.fail "unexpected token count");
    Alcotest.test_case "bad character reported" `Quick (fun () ->
        try
          ignore (D.Lexer.tokenize_string "var x @ 3");
          Alcotest.fail "expected lexer error"
        with D.Lexer.Error _ -> ()) ]

let parser_tests =
  [ Alcotest.test_case "precedence: 1 + 2 * 3 == 7" `Quick (fun () ->
        check_int "verified means assert held" 0
          (if verdict_of "var r = 0; thread t { r = 1 + 2 * 3; assert(r == 7); }" = "verified"
           then 0
           else 1));
    Alcotest.test_case "associativity and unary operators" `Quick (fun () ->
        check "left-assoc minus" true
          (verdict_of "thread t { local r = 10 - 3 - 2; assert(r == 5); }" = "verified");
        check "unary minus binds tight" true
          (verdict_of "thread t { local r = -2 * 3; assert(r == -6); }" = "verified");
        check "negation" true
          (verdict_of "thread t { local r = !0; assert(r == 1 && !1 == 0); }" = "verified"));
    Alcotest.test_case "else-if chains" `Quick (fun () ->
        check "chain" true
          (verdict_of
             "thread t { local x = 2; local r = 0;\n\
              if (x == 1) { r = 10; } else if (x == 2) { r = 20; } else { r = 30; }\n\
              assert(r == 20); }"
           = "verified"));
    Alcotest.test_case "program header optional" `Quick (fun () ->
        check_int "named" 0 (compare (parse "program foo; thread t { skip; }").prog_name "foo");
        check "unnamed defaults" true
          (String.length (parse "thread t { skip; }").prog_name > 0));
    Alcotest.test_case "syntax errors carry positions" `Quick (fun () ->
        (try
           ignore (parse "thread t { x = ; }");
           Alcotest.fail "expected error"
         with D.Parser.Error (_, pos) -> check "line 1" true (pos.D.Ast.line = 1));
        expect_parse_error "thread t { if x { skip; } }";
        expect_parse_error "var 3;";
        expect_parse_error "thread t { lock m; }" (* missing parens *));
    Alcotest.test_case "statement ids are unique" `Quick (fun () ->
        let prog = parse "thread a { skip; skip; } thread b { while (1) { skip; } }" in
        let ids = ref [] in
        let rec go (b : D.Ast.block) =
          List.iter
            (fun (s : D.Ast.stmt) ->
              ids := s.id :: !ids;
              match s.kind with
              | D.Ast.If (_, x, y) ->
                go x;
                go y
              | D.Ast.While (_, x) | D.Ast.Atomic x -> go x
              | _ -> ())
            b
        in
        List.iter (fun (_, b) -> go b) (D.Ast.threads prog);
        check_int "unique" (List.length !ids) (List.length (List.sort_uniq compare !ids))) ]

let sema_tests =
  [ Alcotest.test_case "static errors" `Quick (fun () ->
        expect_sema_error "thread t { x = 1; }" (* undeclared *);
        expect_sema_error "var x; var x; thread t { skip; }" (* duplicate *);
        expect_sema_error "var x; thread t { lock(x); }" (* kind confusion *);
        expect_sema_error "mutex m; thread t { local r = m + 1; }" (* mutex as value *);
        expect_sema_error "sem s = -1; thread t { skip; }" (* negative sem *);
        expect_sema_error "var x; thread t { local x = 1; }" (* shadowing *);
        expect_sema_error "mutex m; thread t { local r = trylock(m) + trylock(m); }"
        (* two primitives in one statement *);
        expect_sema_error "mutex m; thread t { atomic { lock(m); } }"
        (* sync inside atomic *);
        expect_sema_error "thread t { atomic { local c = choose(2); } }"
        (* choice inside atomic *);
        expect_sema_error "thread t { atomic { atomic { skip; } } }" (* nested atomic *);
        expect_sema_error "var x; " (* no threads *));
    Alcotest.test_case "array kind checks" `Quick (fun () ->
        expect_sema_error "var x; thread t { local r = x[0]; }";
        expect_parse_error "array a[0]; thread t { skip; }";
        check "array use ok" true
          (verdict_of "array a[3] = 7; thread t { assert(a[0] + a[2] == 14); }" = "verified")) ]

let exec_tests =
  [ Alcotest.test_case "fig3.chess matches the native state space" `Quick (fun () ->
        let src = "var x = 0; thread t { x = 1; } thread u { while (x != 1) { yield; } }" in
        let r =
          Search.run
            { Search_config.default with coverage = true; livelock_bound = Some 1_000 }
            (load src)
        in
        check "verified" true (r.verdict = Report.Verified);
        check_int "5 states (paper Figure 3)" 5 r.stats.states);
    Alcotest.test_case "assertion failures are found with a trace" `Quick (fun () ->
        let src =
          "var x = 0;\n\
           thread a { if (x == 0) { x = x + 1; } }\n\
           thread b { if (x == 0) { x = x + 1; } }\n\
           thread c { while (x < 1) { yield; } assert(x == 1, \"lost update\"); }"
        in
        (* The check-then-act race allows x = 2; but note threads a/b read x
           and increment atomically per statement, so the race is between the
           if-test and the assignment statements. *)
        let r = run src in
        check "safety violation" true
          (match r.Report.verdict with
           | Report.Safety_violation { failure = Engine.Assertion m; _ } ->
             m = "lost update (thread c, line 4, column 41)"
             || String.length m > 0 (* message includes position *)
           | _ -> false));
    Alcotest.test_case "deadlock in opposite lock order" `Quick (fun () ->
        let src =
          "mutex m1; mutex m2;\n\
           thread a { lock(m1); lock(m2); unlock(m2); unlock(m1); }\n\
           thread b { lock(m2); lock(m1); unlock(m1); unlock(m2); }"
        in
        check "deadlock" true (verdict_of src = "deadlock"));
    Alcotest.test_case "semaphores, events, timed waits" `Quick (fun () ->
        let src =
          "sem s = 0; event done_ev; var got = 0;\n\
           thread producer { v(s); set(done_ev); }\n\
           thread consumer { p(s); wait(done_ev); got = 1; }\n\
           thread watch { while (got != 1) { sleep; } }"
        in
        check "verified" true (verdict_of src = "verified"));
    Alcotest.test_case "timedlock yields and returns failure" `Quick (fun () ->
        let src =
          "mutex m; var r = -1;\n\
           thread holder { lock(m); yield; unlock(m); }\n\
           thread prober { local ok = timedlock(m); if (ok) { unlock(m); } else { skip; } }"
        in
        check "verified" true (verdict_of src = "verified"));
    Alcotest.test_case "choose explores all alternatives" `Quick (fun () ->
        let src =
          "var seen0 = 0; var seen2 = 0;\n\
           thread t { local c = choose(3); if (c == 0) { seen0 = 1; }\n\
           if (c == 2) { seen2 = 1; } assert(c <= 2); }"
        in
        let r =
          Search.run { Search_config.default with coverage = true } (load src)
        in
        check "verified" true (r.verdict = Report.Verified);
        check "explored each branch" true (r.stats.executions >= 3));
    Alcotest.test_case "atomic blocks are single transitions" `Quick (fun () ->
        (* Two atomic increments cannot interleave: the final value is
           always 2, unlike the racy version. *)
        let src =
          "var x = 0;\n\
           thread a { atomic { local t = x; x = t + 1; } }\n\
           thread b { atomic { local t = x; x = t + 1; } }\n\
           thread c { while (x != 2) { yield; } }"
        in
        check "verified (no lost update possible)" true (verdict_of src = "verified"));
    Alcotest.test_case "non-atomic increments do lose updates" `Quick (fun () ->
        let src =
          "var x = 0;\n\
           thread a { local t = x; x = t + 1; }\n\
           thread b { local t = x; x = t + 1; }\n\
           thread c { while (x == 0) { yield; } assert(x == 2, \"lost update\"); }"
        in
        check "safety" true (verdict_of src = "safety"));
    Alcotest.test_case "runtime errors become safety violations" `Quick (fun () ->
        check "bounds" true
          (verdict_of "array a[2]; thread t { a[5] = 1; }" = "safety");
        check "division by zero" true
          (verdict_of "var x = 0; thread t { local r = 1 / x; }" = "safety");
        check "uninitialized local read" true
          (verdict_of "thread t { local a = 0; while (a == 1) { local b = 0; } local c = b; }"
           = "safety"));
    Alcotest.test_case "livelock detection through the DSL" `Quick (fun () ->
        let src =
          "var x = 0;\n\
           thread t { x = 1; }\n\
           thread u { local cached = x; while (cached != 1) { sleep; } }"
        in
        check "divergence" true (verdict_of src = "divergence"));
    Alcotest.test_case "example .chess files load and check" `Quick (fun () ->
        let dir =
          List.find_opt Sys.file_exists
            [ "../../../examples/programs"; "examples/programs" ]
        in
        match dir with
        | None -> ()  (* running outside the repo tree *)
        | Some dir ->
          let quick expected file llb =
            let prog = D.load_file (Filename.concat dir file) in
            let r =
              Search.run
                { Search_config.default with
                  livelock_bound = Some llb;
                  max_executions = Some 30_000;
                  time_limit = Some 10.0 }
                prog
            in
            let got =
              match r.Report.verdict with
              | Report.Verified | Report.Limits_reached -> "no-error"
              | Report.Divergence _ -> "divergence"
              | Report.Safety_violation _ -> "safety"
              | Report.Deadlock _ -> "deadlock"
              | Report.Race _ -> "race"
              | Report.Crash _ -> "crash"
            in
            Alcotest.(check string) file expected got
          in
          quick "no-error" "fig3.chess" 500;
          quick "divergence" "fig1_dining.chess" 500;
          quick "divergence" "stale_flag_livelock.chess" 500;
          quick "no-error" "bounded_buffer.chess" 2_000;
          quick "no-error" "peterson.chess" 2_000;
          quick "no-error" "dekker.chess" 2_000) ]

(* ------------------------------------------------------------------ *)
(* Differential suite: the bytecode VM against the AST-walking oracle.

   The VM replaces the AST interpreter as the default backend; its
   correctness contract is observable equivalence — identical [Op.t]
   transition streams per schedule, identical runtime errors (message and
   position), identical verdicts, counterexamples and coverage counts.
   Random ChessLang programs are generated directly as ASTs (shared by
   both backends, so positions and statement ids coincide) and compared
   under random schedules and under full searches. *)

module R = Fairmc_util.Rng
module BS = Fairmc_util.Bitset
module SC = Fairmc_statecap
module A = D.Ast

(* Random sema-valid programs over a fixed declaration set: two scalars,
   an array, a mutex, a semaphore, an event, 2–3 threads. Locals are
   always declared ([local x = ...] somewhere in the thread), usually up
   front — occasionally at the end, leaving earlier reads uninitialized
   (a runtime error both backends must report identically). *)
let gen_program rng : A.program =
  let next_id = ref 0 in
  let stmt kind =
    incr next_id;
    { A.id = !next_id; pos = { A.line = !next_id; col = 0 }; kind }
  in
  let p0 = { A.line = 0; col = 0 } in
  let ppos () = { A.line = 500 + R.int rng 400; col = 1 + R.int rng 9 } in
  let locals = [| "la"; "lb" |] in
  let local () = locals.(R.int rng 2) in
  let global () = if R.bool rng then "g0" else "g1" in
  let rec gen_expr depth prim ~in_atomic =
    let leaf () =
      match R.int rng (if !prim && not in_atomic then 6 else 5) with
      | 0 | 3 -> A.Int (R.int rng 5)
      | 1 -> A.Name (ppos (), local ())
      | 2 -> A.Name (ppos (), global ())
      | 4 -> A.Index (ppos (), "arr", gen_expr 0 prim ~in_atomic)
      | _ ->
        prim := false;
        (match R.int rng 5 with
         | 0 -> A.Try_lock (ppos (), "m")
         | 1 -> A.Timed_lock (ppos (), "m")
         | 2 -> A.Sem_try (ppos (), "s")
         | 3 -> A.Timed_wait (ppos (), "ev")
         | _ -> A.Choose (ppos (), 1 + R.int rng 3))
    in
    if depth = 0 || R.int rng 3 = 0 then leaf ()
    else
      match R.int rng 3 with
      | 0 ->
        let ops =
          [| A.Add; A.Sub; A.Mul; A.Div; A.Mod; A.Eq; A.Ne; A.Lt; A.Le; A.Gt; A.Ge;
             A.And; A.Or |]
        in
        A.Binop
          ( ops.(R.int rng (Array.length ops)),
            gen_expr (depth - 1) prim ~in_atomic,
            gen_expr (depth - 1) prim ~in_atomic )
      | 1 -> A.Unop ((if R.bool rng then A.Not else A.Neg), gen_expr (depth - 1) prim ~in_atomic)
      | _ -> leaf ()
  in
  let rec gen_stmts depth ~in_atomic n =
    List.concat (List.init n (fun _ -> gen_stmt depth ~in_atomic))
  and gen_stmt depth ~in_atomic : A.stmt list =
    let prim = ref true in
    let e d = gen_expr d prim ~in_atomic in
    match R.int rng (if in_atomic then 8 else 16) with
    | 0 -> [ stmt (A.Local (local (), e 2)) ]
    | 1 -> [ stmt (A.Assign (A.Lname (p0, local ()), e 2)) ]
    | 2 -> [ stmt (A.Assign (A.Lname (p0, global ()), e 2)) ]
    | 3 -> [ stmt (A.Assign (A.Lindex (ppos (), "arr", e 1), e 1)) ]
    | 4 when depth > 0 ->
      [ stmt
          (A.If
             ( e 1,
               gen_stmts (depth - 1) ~in_atomic (1 + R.int rng 2),
               if R.bool rng then [] else gen_stmts (depth - 1) ~in_atomic 1 )) ]
    | 5 when depth > 0 && not in_atomic ->
      (* Bounded counter loop, up from 0 or down from k under one of the
         six comparisons: terminates on its own unless the body reassigns
         the counter. Its reads and writes carry real positions, as every
         other generated read does. *)
      let l = local () in
      let k = 1 + R.int rng 3 in
      let name () = A.Name (ppos (), l) in
      let up = R.bool rng in
      let test =
        if up then
          match R.int rng 4 with
          | 0 -> A.Binop (A.Lt, name (), A.Int k)
          | 1 -> A.Binop (A.Le, name (), A.Int (k - 1))
          | 2 -> A.Binop (A.Ne, name (), A.Int k)
          | _ -> A.Binop (A.Eq, name (), A.Int 0)
        else if R.bool rng then A.Binop (A.Gt, name (), A.Int 0)
        else A.Binop (A.Ge, name (), A.Int 1)
      in
      [ stmt (A.Local (l, A.Int (if up then 0 else k)));
        stmt
          (A.While
             ( test,
               gen_stmts (depth - 1) ~in_atomic 1
               @ [ stmt
                     (A.Assign
                        ( A.Lname (ppos (), l),
                          A.Binop ((if up then A.Add else A.Sub), name (), A.Int 1) )) ] ))
      ]
    | 6 when not in_atomic ->
      (* Spin on a global with a good-samaritan yield: may livelock, which
         the searches classify identically as a divergence. *)
      [ stmt
          (A.While
             ( A.Binop (A.Ne, A.Name (p0, global ()), A.Int (R.int rng 3)),
               [ stmt (if R.bool rng then A.Yield else A.Sleep) ] )) ]
    | 7 -> [ stmt (A.Assert (e 1, "gen-assert")) ]
    | _ when in_atomic -> [ stmt A.Skip ]
    | 8 -> [ stmt (A.Lock "m") ]
    | 9 -> [ stmt (A.Unlock "m") ]
    | 10 -> [ stmt (A.Sem_p "s") ]
    | 11 -> [ stmt (A.Sem_v "s") ]
    | 12 ->
      [ stmt
          (match R.int rng 3 with
           | 0 -> A.Set_event "ev"
           | 1 -> A.Reset_event "ev"
           | _ -> A.Wait "ev") ]
    | 13 -> [ stmt A.Yield ]
    | 14 when depth > 0 ->
      [ stmt (A.Atomic (gen_stmts (depth - 1) ~in_atomic:true (1 + R.int rng 2))) ]
    | _ -> [ stmt A.Skip ]
  in
  let thread tname =
    let decl l = stmt (A.Local (l, A.Int (R.int rng 3))) in
    let body = gen_stmts 2 ~in_atomic:false (2 + R.int rng 3) in
    let body =
      if R.int rng 5 = 0 then (decl "la" :: body) @ [ decl "lb" ]
      else decl "la" :: decl "lb" :: body
    in
    A.Dthread (p0, tname, body)
  in
  let nthreads = 2 + R.int rng 2 in
  { A.prog_name = "gen";
    decls =
      [ A.Dvar (p0, "g0", R.int rng 3);
        A.Dvar (p0, "g1", R.int rng 3);
        A.Darray (p0, "arr", 3, R.int rng 2);
        A.Dmutex (p0, "m");
        A.Dsem (p0, "s", 1);
        A.Devent (p0, "ev", R.bool rng) ]
      @ List.init nthreads (fun i -> thread (Printf.sprintf "t%d" i)) }

let bits bs =
  let l = ref [] in
  BS.iter (fun t -> l := t :: !l) bs;
  List.rev !l

type drive_result = {
  d_events : (int * int * Op.t * int * bool * bool * int list) list;
  d_failure : (int * Engine.failure) option;
  d_finished : bool;
}

(* Drive one engine run under a random schedule (recording decisions) or a
   fixed decision list; returns the full observable record. *)
let drive prog ~schedule ~max_steps =
  let run = Engine.start prog in
  Fun.protect ~finally:(fun () -> Engine.stop run) @@ fun () ->
  let fixed = match schedule with `Fixed l -> Some (Array.of_list l) | `Random _ -> None in
  let i = ref 0 in
  let ok = ref true in
  while
    !ok && Engine.failure run = None
    && (not (Engine.all_finished run))
    && !i < max_steps
  do
    let elist = bits (Engine.enabled_set run) in
    (if elist = [] then ok := false (* deadlock: compared via the record *)
     else
       match fixed with
       | Some a ->
         if !i >= Array.length a then ok := false
         else begin
           let tid, alt = a.(!i) in
           if (not (List.mem tid elist)) || alt >= Engine.alternatives run tid then
             ok := false (* schedule does not fit: streams will differ *)
           else Engine.step run ~tid ~alt
         end
       | None ->
         let rng = match schedule with `Random r -> r | `Fixed _ -> assert false in
         let tid = List.nth elist (R.int rng (List.length elist)) in
         let alt = R.int rng (Engine.alternatives run tid) in
         Engine.step run ~tid ~alt);
    incr i
  done;
  let d_events =
    List.map
      (fun (e : Trace.event) ->
        (e.Trace.step, e.tid, e.op, e.alt, e.result, e.yielded, bits e.enabled))
      (Trace.events (Engine.trace run))
  in
  ( { d_events; d_failure = Engine.failure run; d_finished = Engine.all_finished run },
    Trace.decisions (Engine.trace run) )

let pp_failure = function
  | None -> "none"
  | Some (tid, f) -> Format.asprintf "t%d:%a" tid Engine.pp_failure f

let prop_schedules seed =
  let rng = R.make (Int64.of_int ((seed * 2654435761) + 1)) in
  let ast = gen_program rng in
  let pa, dump_a = Machine.compile_inspect ast in
  let pv, dump_v = D.Vm.compile_inspect ast in
  List.for_all
    (fun k ->
      let sched = R.make (Int64.of_int ((seed * 31) + (k * 7) + 11)) in
      let ra, decisions = drive pa ~schedule:(`Random sched) ~max_steps:300 in
      let rv, _ = drive pv ~schedule:(`Fixed decisions) ~max_steps:300 in
      if ra.d_events <> rv.d_events then
        QCheck.Test.fail_reportf "op streams differ (seed %d, schedule %d)" seed k
      else if ra.d_failure <> rv.d_failure then
        QCheck.Test.fail_reportf "failures differ (seed %d): ast=%s vm=%s" seed
          (pp_failure ra.d_failure) (pp_failure rv.d_failure)
      else if ra.d_finished <> rv.d_finished then
        QCheck.Test.fail_reportf "termination differs (seed %d)" seed
      else if dump_a () <> dump_v () then
        QCheck.Test.fail_reportf "final stores differ (seed %d)" seed
      else true)
    [ 0; 1; 2 ]

let cex_decisions r = Option.map (fun c -> c.Report.decisions) (Report.cex r)
let cex_rendered r = Option.map (fun c -> c.Report.rendered) (Report.cex r)

(* The VM program with its capture hook removed: the search then replays
   every prefix from the initial state, as it does for the AST
   interpreter. *)
let strip_capture (p : Program.t) =
  Program.make ~name:p.Program.name ?facts:p.Program.facts (fun () ->
      { (p.Program.boot ()) with Program.capture = None })

let timeless (s : Report.stats) =
  { s with Report.elapsed = 0.; search_elapsed = 0.; first_error_time = None }

(* Everything a search reports that must not depend on how prefixes are
   re-established: verdict, counterexample schedule and rendering, stats
   (coverage included) and the deterministic event slice. *)
let same_search ?(det = true) ~what (ra, ea) (rb, eb) =
  let key r = Report.verdict_key r.Report.verdict in
  if key ra <> key rb then
    QCheck.Test.fail_reportf "%s: verdicts differ: %s vs %s" what (key ra) (key rb)
  else if cex_decisions ra <> cex_decisions rb then
    QCheck.Test.fail_reportf "%s: counterexample schedules differ" what
  else if cex_rendered ra <> cex_rendered rb then
    QCheck.Test.fail_reportf "%s: rendered counterexamples differ" what
  else if timeless ra.Report.stats <> timeless rb.Report.stats then
    QCheck.Test.fail_reportf "%s: stats differ: (%d,%d,%d) vs (%d,%d,%d)" what
      ra.stats.executions ra.stats.transitions ra.stats.states rb.stats.executions
      rb.stats.transitions rb.stats.states
  else if det && Test_telemetry.det_slice ea <> Test_telemetry.det_slice eb then
    QCheck.Test.fail_reportf "%s: det event slices differ" what
  else true

(* The VM restores states on backtrack; the AST interpreter and the
   capture-stripped VM replay prefixes. All three must report the same
   search, under fair DFS and context bounds, with and without sleep sets,
   and the restoring VM must agree with itself at jobs = 2. *)
let prop_search seed =
  let rng = R.make (Int64.of_int ((seed * 48271) + 1000)) in
  let ast = gen_program rng in
  let base =
    { Search_config.default with
      coverage = true;
      livelock_bound = Some 300;
      max_steps = 2_000;
      max_executions = Some 300;
      seed = Int64.of_int (seed + 17) }
  in
  let vm = D.Vm.compile ast in
  let replaying = [ ("ast", Machine.compile ast); ("vm-replay", strip_capture vm) ] in
  List.for_all
    (fun (mode, sleep_sets) ->
      let cfg = { base with mode; sleep_sets } in
      let what arm =
        Printf.sprintf "seed %d, %s%s, %s" seed (Search_config.mode_name mode)
          (if sleep_sets then "+ss" else "") arm
      in
      let restored = Test_telemetry.run_collect cfg vm in
      List.for_all
        (fun (arm, p) ->
          same_search ~what:(what arm) (Test_telemetry.run_collect cfg p) restored)
        replaying
      &&
      (* A budget stop cuts the parallel tree at a timing-dependent point;
         a search that finished inside the budget is compared unbounded.
         Only an error-free search's det slice is jobs-invariant: workers
         past the first error emit their own paths until cancelled. *)
      match (fst restored).Report.verdict with
      | Report.Limits_reached -> true
      | v ->
        let cfg = { cfg with max_executions = None } in
        same_search ~det:(v = Report.Verified) ~what:(what "vm jobs=2")
          (Test_telemetry.run_collect { cfg with jobs = 2 } vm)
          (Test_telemetry.run_collect cfg vm))
    [ (Search_config.Dfs, false);
      (Search_config.Dfs, true);
      (Search_config.Context_bounded 1, false);
      (Search_config.Context_bounded 1, true);
      (Search_config.Context_bounded 2, false);
      (Search_config.Context_bounded 2, true) ]

(* Everything the search reads off a run, plus the state signature. *)
let observe run =
  let n = Engine.nthreads run in
  ( ( bits (Engine.enabled_set run),
      List.init n (fun tid ->
          (Engine.pending run tid, Engine.alternatives run tid, Engine.would_yield run tid)),
      (Engine.failure run, Engine.all_finished run, Engine.deadlocked run) ),
    ( Engine.steps run,
      (Engine.sync_ops run, Engine.var_ops run, Engine.context_switches run),
      Array.to_list (Engine.op_counts run) ),
    List.map
      (fun (e : Trace.event) ->
        (e.Trace.step, e.tid, e.op, e.alt, e.result, e.yielded, bits e.enabled))
      (Trace.events (Engine.trace run)),
    Engine.state_signature run )

(* Step a random enabled thread up to [n] times while the run can go on;
   returns the decisions taken. *)
let walk rng run n =
  let rec go n acc =
    let es = bits (Engine.enabled_set run) in
    if n = 0 || es = [] || Engine.failure run <> None then List.rev acc
    else begin
      let tid = List.nth es (R.int rng (List.length es)) in
      let alt = R.int rng (Engine.alternatives run tid) in
      Engine.step run ~tid ~alt;
      go (n - 1) ((tid, alt) :: acc)
    end
  in
  go n []

(* Capture at a random step, walk on, restore: the run must be back in the
   captured state (as a replay to that step also reaches it), must re-walk
   the same continuation, and must restore again. *)
let prop_restore seed =
  let rng = R.make (Int64.of_int ((seed * 7919) + 3)) in
  let prog = D.Vm.compile (gen_program rng) in
  let run = Engine.start prog in
  let prefix = walk rng run (R.int rng 40) in
  let fail fmt = QCheck.Test.fail_reportf ("seed %d: " ^^ fmt) seed in
  if Engine.failure run <> None then begin
    Engine.stop run;
    true (* a failed run is never captured *)
  end
  else begin
    let captured = observe run in
    let snap = Engine.capture run in
    let onward = walk rng run (1 + R.int rng 40) in
    let walked = observe run in
    Engine.restore run snap;
    let ok1 = observe run = captured in
    List.iter (fun (tid, alt) -> Engine.step run ~tid ~alt) onward;
    let ok2 = observe run = walked in
    Engine.restore run snap;
    let ok3 = observe run = captured in
    let replay = Engine.start prog in
    List.iter (fun (tid, alt) -> Engine.step replay ~tid ~alt) prefix;
    let ok4 = observe replay = captured in
    Engine.stop replay;
    if not ok1 then fail "restore did not return to the captured state"
    else if not ok2 then fail "the restored run re-walked differently"
    else if not ok3 then fail "a second restore differs"
    else if not ok4 then fail "a replay to the captured step differs"
    else true
  end

(* A restore writes the VM's arrays and the engine's counters back and
   runs no thread, so it allocates next to nothing. *)
let restore_cost_tests =
  [ Alcotest.test_case "a restore allocates at most 20 minor words" `Quick (fun () ->
        match
          List.find_opt Sys.file_exists [ "../../../examples/programs"; "examples/programs" ]
        with
        | None -> ()  (* running outside the repo tree *)
        | Some dir ->
          List.iter
            (fun file ->
              let run = Engine.start (D.load_file (Filename.concat dir file)) in
              let rng = R.make 29L in
              ignore (walk rng run 6);
              let snap = Engine.capture run in
              ignore (walk rng run 6);
              let reps = 1_000 in
              let w0 = Gc.minor_words () in
              for _ = 1 to reps do
                Engine.restore run snap
              done;
              let words = (Gc.minor_words () -. w0) /. float_of_int reps in
              Engine.stop run;
              if words > 20. then
                Alcotest.failf "%s: %.1f minor words per restore" file words)
            [ "peterson.chess"; "bounded_buffer.chess" ]) ]

let differential_qprops =
  [ QCheck.Test.make
      ~name:"random programs x random schedules: identical op streams and stores"
      ~count:40 QCheck.small_int prop_schedules;
    QCheck.Test.make
      ~name:"random programs: identical verdicts, counterexamples, coverage" ~count:25
      QCheck.small_int prop_search ]

let restore_qprops =
  [ QCheck.Test.make
      ~name:"random programs: a restored run equals the captured and replayed state"
      ~count:100 QCheck.small_int prop_restore ]

let differential_tests =
  [ Alcotest.test_case "first counterexample equal across backends and jobs=1/4" `Quick
      (fun () ->
        let progs =
          [ ( "lost-update",
              "var x = 0;\n\
               thread a { local t = x; x = t + 1; }\n\
               thread b { local t = x; x = t + 1; }\n\
               thread c { while (x == 0) { yield; } assert(x == 2, \"lost update\"); }" );
            ( "deadlock",
              "mutex m1; mutex m2;\n\
               thread a { lock(m1); lock(m2); unlock(m2); unlock(m1); }\n\
               thread b { lock(m2); lock(m1); unlock(m1); unlock(m2); }" ) ]
        in
        List.iter
          (fun (name, src) ->
            let ast = D.Parser.parse_string src in
            let cfg = { Search_config.default with livelock_bound = Some 1_000 } in
            let reports =
              List.map
                (fun (prog, jobs) -> Checker.check ~config:{ cfg with jobs } prog)
                [ (Machine.compile ast, 1); (Machine.compile ast, 4); (D.compile ast, 1);
                  (D.compile ast, 4) ]
            in
            match reports with
            | r0 :: rest ->
              List.iter
                (fun r ->
                  check (name ^ ": verdict") true
                    (Report.verdict_key r.Report.verdict
                     = Report.verdict_key r0.Report.verdict);
                  check (name ^ ": first counterexample") true
                    (cex_decisions r = cex_decisions r0))
                rest
            | [] -> assert false)
          progs);
    Alcotest.test_case "checkpoint interrupt/resume on the VM backend" `Quick (fun () ->
        let src =
          "sem s = 0; event done_ev; var got = 0;\n\
           thread producer { v(s); set(done_ev); }\n\
           thread consumer { p(s); wait(done_ev); got = 1; }\n\
           thread watch { while (got != 1) { sleep; } }"
        in
        let prog = D.load_string src (* VM backend is the default *) in
        let cfg = { Search_config.default with livelock_bound = Some 1_000 } in
        let _, resumed = Test_checkpoint.resume_equal cfg prog ~cut:300 in
        ignore
          (Test_checkpoint.resume_equal { cfg with Search_config.jobs = 4 } prog
             ~cut:500);
        (* The resumed restoring search also matches a replaying one. *)
        let replayed = Search.run cfg (strip_capture prog) in
        check "resumed restore = uninterrupted replay" true
          (resumed.Report.verdict = replayed.Report.verdict
          && timeless resumed.Report.stats = timeless replayed.Report.stats));
    Alcotest.test_case "stateful ground truth agrees across backends" `Quick (fun () ->
        let fig3 = "var x = 0; thread t { x = 1; } thread u { while (x != 1) { yield; } }" in
        let sa = SC.Stateful.explore (Machine.compile (parse fig3)) in
        let sv = SC.Stateful.explore (D.load_string fig3) in
        check_int "fig3 states on the VM (paper Figure 3)" 5 sv.SC.Stateful.states;
        check_int "same state count" sa.SC.Stateful.states sv.SC.Stateful.states;
        check "both complete" true (sa.SC.Stateful.complete && sv.SC.Stateful.complete)) ]

let limit_tests =
  [ Alcotest.test_case "thread limit: 62 threads search, 63 are a static error" `Quick
      (fun () ->
        (* One thread per line after the declaration of x. *)
        let src n =
          "var x = 0;\n"
          ^ String.concat "" (List.init n (Printf.sprintf "thread t%d { x = x + 1; }\n"))
        in
        let r =
          Search.run { Search_config.default with max_executions = Some 3 } (load (src 62))
        in
        check "62 threads reach a verdict" true (r.verdict = Report.Limits_reached);
        check_int "executions" 3 r.stats.executions;
        match load (src 63) with
        | exception D.Sema.Error (_, pos) ->
          check_int "error at the 63rd thread" 64 pos.D.Ast.line
        | _ -> Alcotest.fail "63 threads accepted") ]

(* The CLI is a declared dependency of the test stanza, built next to this
   executable. *)
let cli =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "chess_cli.exe")

let with_source src f =
  let file = Filename.temp_file "fairmc_dsl" ".chess" in
  Out_channel.with_open_bin file (fun oc -> output_string oc src);
  Fun.protect ~finally:(fun () -> Sys.remove file) (fun () -> f file)

let cli_status args =
  Sys.command (Filename.quote_command cli args ^ " >/dev/null 2>/dev/null")

let storage_tests =
  [ Alcotest.test_case "global storage is bounded" `Quick (fun () ->
        let sema_error_line src =
          match D.Sema.check (parse src) with
          | exception D.Sema.Error (_, pos) -> Some pos.D.Ast.line
          | _ -> None
        in
        let n = D.Sema.max_global_slots in
        check "an array filling the bound is accepted" true
          (sema_error_line (Printf.sprintf "array a[%d];\nthread t { skip; }" n) = None);
        Alcotest.(check (option int))
          "one slot past the bound" (Some 3)
          (sema_error_line
             (Printf.sprintf "array a[%d];\nvar x;\nvar y;\nthread t { skip; }" (n - 1)));
        Alcotest.(check (option int))
          "a huge array" (Some 1)
          (sema_error_line "array q[99999999999] = 1;\nthread t { skip; }");
        Alcotest.(check (option int))
          "max_int-sized arrays" (Some 1)
          (sema_error_line
             "array aa[4611686018427387903];\narray bb[4611686018427387903];\nthread t { skip; }"));
    Alcotest.test_case "oversized storage is a static error for check and lint" `Quick
      (fun () ->
        if not (Sys.file_exists cli) then Alcotest.skip ();
        with_source "array q[99999999999] = 1;\nthread t { skip; }" (fun file ->
            check_int "check exits 2" 2 (cli_status [ "check"; file; "-q" ]);
            check_int "lint exits 2" 2 (cli_status [ "lint"; file; "-q" ]))) ]

(* Restore and replay agree through the CLI too: the restoring VM at -j 1,
   -j 2 and --workers 2 reports what an in-process replaying search
   reports. *)
let cli_agreement_tests =
  [ Alcotest.test_case "restore agrees with replay at -j 1, -j 2 and --workers 2" `Quick
      (fun () ->
        if not (Sys.file_exists cli) then Alcotest.skip ();
        let module J = Fairmc_util.Json in
        let field k = function
          | J.Obj kv -> (match List.assoc_opt k kv with Some v -> v | None -> J.Null)
          | _ -> J.Null
        in
        let int_field k j = match field k j with J.Int n -> n | _ -> -1 in
        let summary (key, execs, trans, states, digest, decisions) =
          Printf.sprintf "%s %d/%d/%d %s %s" key execs trans states digest
            (String.concat " "
               (List.map (fun (t, a) -> Printf.sprintf "%d.%d" t a) decisions))
        in
        List.iter
          (fun (src, extra) ->
            with_source src (fun file ->
                let cfg =
                  { Search_config.default with coverage = true; livelock_bound = Some 1_000 }
                in
                let cfg =
                  match extra with
                  | [ "-s"; "cb:2" ] -> { cfg with mode = Search_config.Context_bounded 2 }
                  | _ -> cfg
                in
                let r =
                  Search.run cfg (strip_capture (Fairmc_static.load_file file))
                in
                let want =
                  summary
                    ( Report.verdict_key r.Report.verdict,
                      r.stats.executions,
                      r.stats.transitions,
                      r.stats.states,
                      Report.digest_hex r.stats.path_digest,
                      Option.value ~default:[] (cex_decisions r) )
                in
                List.iter
                  (fun par ->
                    let json = Filename.temp_file "fairmc_dsl" ".json" in
                    ignore
                      (cli_status
                         ([ "check"; file; "--coverage"; "--livelock-bound"; "1000";
                            "--json"; json; "-q" ]
                         @ extra @ par));
                    let doc =
                      match J.of_string (In_channel.with_open_bin json In_channel.input_all) with
                      | Ok j -> j
                      | Error e -> Alcotest.failf "unparseable report: %s" e
                    in
                    Sys.remove json;
                    let stats = field "stats" doc in
                    let decisions =
                      match field "counterexample" (field "verdict" doc) with
                      | J.Obj _ as c ->
                        (match field "decisions" c with
                         | J.Arr ds ->
                           List.map
                             (function
                               | J.Arr [ J.Int t; J.Int a ] -> (t, a)
                               | _ -> Alcotest.fail "bad decision")
                             ds
                         | _ -> [])
                      | _ -> []
                    in
                    let got =
                      summary
                        ( (match field "verdict_key" doc with J.Str k -> k | _ -> "?"),
                          int_field "executions" stats,
                          int_field "transitions" stats,
                          int_field "states" stats,
                          (match field "path_digest" stats with J.Str d -> d | _ -> "?"),
                          decisions )
                    in
                    Alcotest.(check string) (String.concat " " (extra @ par)) want got)
                  [ [ "-j"; "1" ]; [ "-j"; "2" ]; [ "--workers"; "2" ] ]))
          [ ( "var x = 0;\n\
               thread a { local t = x; x = t + 1; }\n\
               thread b { local t = x; x = t + 1; }\n\
               thread c { while (x == 0) { yield; } assert(x == 2, \"lost update\"); }",
              [] );
            ( "var x = 0; var y = 0; mutex m;\n\
               thread a { lock(m); x = x + 1; unlock(m); while (y == 0) { yield; } }\n\
               thread b { lock(m); y = x; unlock(m); }\n\
               thread c { local r = choose(2); x = x + r; }",
              [ "-s"; "cb:2" ] ) ]) ]

(* The VM and the AST oracle walk the same tree on three regimes: long
   silent loops between transitions (compute-heavy), a sync-heavy
   bounded buffer, and Peterson's good-samaritan spin loops. *)
let src_compute =
  "var acc = 0;\n\
   thread a { local i = 0; local h = 0; while (i < 40) { h = 0; local j = 0; \
   while (j < 400) { h = (h * 31 + j) % 65521; j = j + 1; } acc = acc + h; i = i + 1; } }\n\
   thread b { local i = 0; local h = 0; while (i < 40) { h = 0; local j = 0; \
   while (j < 400) { h = (h * 7 + j) % 65521; j = j + 1; } acc = acc + h; i = i + 1; } }"

let src_buffer =
  "array buf[2] = 0; var head = 0; var tail = 0;\n\
   sem items = 0; sem spaces = 2; mutex m;\n\
   thread producer { local i = 0; while (i < 3) { p(spaces); lock(m); \
   buf[tail % 2] = i + 1; tail = tail + 1; unlock(m); v(items); i = i + 1; } }\n\
   thread consumer { local expect = 1; while (expect < 4) { p(items); lock(m); \
   local got = buf[head % 2]; head = head + 1; unlock(m); v(spaces); \
   assert(got == expect, \"out of order\"); expect = expect + 1; } }"

let src_peterson =
  "var flag0 = 0; var flag1 = 0; var turn = 0; var crit = 0;\n\
   thread p0 { local i = 0; while (i < 2) { flag0 = 1; turn = 1; \
   while (flag1 == 1 && turn == 1) { yield; } crit = crit + 1; \
   assert(crit == 1, \"mutex\"); crit = crit - 1; flag0 = 0; i = i + 1; } }\n\
   thread p1 { local i = 0; while (i < 2) { flag1 = 1; turn = 0; \
   while (flag0 == 1 && turn == 0) { yield; } crit = crit + 1; \
   assert(crit == 1, \"mutex\"); crit = crit - 1; flag1 = 0; i = i + 1; } }"

let same_tree_tests =
  [ Alcotest.test_case "VM and AST oracle: same tree on compute, buffer and spin workloads"
      `Quick (fun () ->
        List.iter
          (fun (name, src, cfg) ->
            let ast = parse src in
            let summary (r : Report.t) =
              Printf.sprintf "%s %d/%d" (Report.verdict_key r.Report.verdict)
                r.stats.executions r.stats.transitions
            in
            Alcotest.(check string) name
              (summary (Search.run cfg (Machine.compile ast)))
              (summary (Search.run cfg (D.compile ast))))
          [ ( "compute-heavy",
              src_compute,
              { Search_config.default with
                max_executions = Some 40;
                max_steps = 100_000;
                livelock_bound = Some 100_000 } );
            ( "bounded-buffer",
              src_buffer,
              { Search_config.default with
                max_executions = Some 2_000;
                livelock_bound = Some 2_000 } );
            ( "peterson-spin",
              src_peterson,
              { Search_config.default with
                max_executions = Some 3_000;
                livelock_bound = Some 2_000 } ) ]) ]

(* Superinstructions: the VM executes fused code ({!D.Fuse}); the oracle
   and every analysis see canonical bytecode. *)

(* (pc, opcode) of every instruction start, walked by [width]. *)
let instructions width (code : int array) =
  let rec go pc acc =
    if pc >= Array.length code then List.rev acc
    else go (pc + width code.(pc)) ((pc, code.(pc)) :: acc)
  in
  go 0 []

(* Instructions dispatched from [lo] to [hi] inclusive on straight-line
   code. *)
let dispatches width code lo hi =
  List.length (List.filter (fun (pc, _) -> pc >= lo && pc <= hi) (instructions width code))

(* The first backward jump of a thread's code, an innermost loop's back
   edge, as (loop head, jump pc). *)
let inner_loop (code : int array) =
  let pc, _ =
    List.find
      (fun (pc, op) -> op = D.Compile.op_jmp && code.(pc + 1) < pc)
      (instructions D.Compile.width code)
  in
  (code.(pc + 1), pc)

let fused_ops code =
  List.filter_map
    (fun (_, op) -> if op > D.Compile.op_assert then Some op else None)
    (instructions D.Fuse.width code)

let all_fused =
  D.Fuse.
    [ op_fuel_load_l; op_fuel_push; op_add_c; op_mul_c; op_div_c; op_mod_c; op_add_l;
      op_sub_l; op_mul_l; op_div_l; op_mod_l; op_set_l_lc; op_if_eq_lc; op_if_ne_lc;
      op_if_lt_lc; op_if_le_lc; op_if_gt_lc; op_if_ge_lc ]

let fused_threads src =
  Array.map
    (fun (tc : D.Compile.thread_code) -> (tc.D.Compile.t_code, D.Fuse.code tc.D.Compile.t_code))
    (D.Compile.compile (parse src)).D.Compile.c_threads

(* The VM against the oracle on [src] under a few random schedules: same
   op streams, failures (message and position), termination and final
   stores. Returns the VM's failure message, if any. *)
let agree_with_oracle ~what src =
  let ast = parse src in
  let pa, dump_a = Machine.compile_inspect ast in
  let pv, dump_v = D.Vm.compile_inspect ast in
  let failures =
    List.map
      (fun k ->
        let schedule = `Random (R.make (Int64.of_int k)) in
        let ra, decisions = drive pa ~schedule ~max_steps:500 in
        let rv, _ = drive pv ~schedule:(`Fixed decisions) ~max_steps:500 in
        check (what ^ ": op streams") true (ra.d_events = rv.d_events);
        Alcotest.(check string) (what ^ ": failure") (pp_failure ra.d_failure)
          (pp_failure rv.d_failure);
        check (what ^ ": termination") true (ra.d_finished = rv.d_finished);
        check (what ^ ": final stores") true (dump_a () = dump_v ());
        rv.d_failure)
      [ 1; 2; 3 ]
  in
  match List.hd failures with
  | Some (_, Engine.Assertion m) -> Some m
  | Some (_, f) -> Some (Format.asprintf "%a" Engine.pp_failure f)
  | None -> None

let contains = Test_checker.contains

(* Every fused form, in loops, straight-line code and a visible thread. *)
let src_forms =
  "var g = 0;\n\
   thread a {\n\
  \  local i = 0; local s = 0; local k = 7;\n\
  \  while (i < 3) { i = i + 1; }\n\
  \  while (i > 0) { i = i - 1; }\n\
  \  while (i <= 2) { i = i + 2; }\n\
  \  while (i >= 1) { i = i - 3; }\n\
  \  while (i != 5) { i = i + 1; }\n\
  \  if (i == 5) { s = k + 1; }\n\
  \  s = s * 3 + k;\n\
  \  s = s / 2 % 7 * 5 + 1;\n\
  \  s = 100 - s;\n\
  \  s = s + k - k * k / k % k;\n\
  \  g = s - k;\n\
   }\n\
   thread b { local j = 2; g = g * j - 4 / j; }"

let fusion_tests =
  [ Alcotest.test_case "compute-heavy inner loop: 8 dispatches per iteration, not 20" `Quick
      (fun () ->
        Array.iter
          (fun (canon, fused) ->
            let head, back = inner_loop canon in
            check_int "canonical" 20 (dispatches D.Compile.width canon head back);
            let n = dispatches D.Fuse.width fused head back in
            if n > 8 then Alcotest.failf "%d fused dispatches per iteration" n;
            check_int "same length" (Array.length canon) (Array.length fused))
          (fused_threads src_compute));
    Alcotest.test_case "every fused form agrees with the oracle" `Quick (fun () ->
        let present =
          List.concat_map (fun (_, f) -> fused_ops f) (Array.to_list (fused_threads src_forms))
        in
        List.iter
          (fun op -> check (Printf.sprintf "opcode %d is reached" op) true (List.mem op present))
          all_fused;
        check "no failure" true (agree_with_oracle ~what:"forms" src_forms = None));
    Alcotest.test_case "uninitialised reads inside fused forms fail as in the oracle" `Quick
      (fun () ->
        List.iter
          (fun (what, body) ->
            let src =
              "thread t {\n  local a = 0; local c = 0;\n  while (a == 1) { local b = 0; }\n  "
              ^ body ^ "\n}"
            in
            match agree_with_oracle ~what src with
            | Some m when contains m "local b read before initialization" -> ()
            | m -> Alcotest.failf "%s: %s" what (Option.value m ~default:"no failure"))
          [ ("if_lc", "while (b < 3) { c = c + 1; }");
            ("set_l_lc", "c = b + 1;");
            ("fuel_load_l", "c = b * 2;");
            ("add_l", "c = c + b;");
            ("div_l", "c = 10 / b;") ]);
    Alcotest.test_case "fuel runs out inside a fused loop where the oracle says" `Quick
      (fun () ->
        (* 100,000 statement ticks: the loop test or one of the three body
           statements (each a different fused form) takes the last one,
           depending on how many statements run before the loop. *)
        let last_tick = Hashtbl.create 4 in
        List.iter
          (fun pre ->
            let src =
              "thread t {\n  local i = 0; local c = 0;" ^ pre
              ^ "\n  while (i < 1000000) {\n    i = i + 1;\n    c = 5;\n    c = i * 2;\n  }\n}"
            in
            match agree_with_oracle ~what:("fuel" ^ pre) src with
            | Some m when contains m "ran 100000 silent steps" -> Hashtbl.replace last_tick m ()
            | m -> Alcotest.failf "%S: %s" pre (Option.value m ~default:"no failure"))
          [ ""; " c = 1;"; " c = 1; c = 2;"; " c = 1; c = 2; c = 3;" ];
        check_int "four different statements ran out" 4 (Hashtbl.length last_tick));
    Alcotest.test_case "DIV and MOD by a constant 0 stay canonical and fail as in the oracle"
      `Quick (fun () ->
        List.iter
          (fun (expr, msg) ->
            let src = "thread t { local k = 3; local r = k " ^ expr ^ "; }" in
            Array.iter
              (fun (canon, fused) ->
                let divisor =
                  List.filter (fun (_, op) -> op = D.Compile.op_div || op = D.Compile.op_mod)
                    (instructions D.Compile.width canon)
                in
                check (expr ^ ": one divisor") true (List.length divisor = 1);
                List.iter
                  (fun (pc, op) ->
                    check (expr ^ ": PUSH 0 left canonical") true
                      (fused.(pc - 2) = D.Compile.op_push && fused.(pc) = op))
                  divisor)
              (fused_threads src);
            match agree_with_oracle ~what:expr src with
            | Some m when contains m msg -> ()
            | m -> Alcotest.failf "%s: %s" expr (Option.value m ~default:"no failure"))
          [ ("/ 0", "division by zero"); ("% 0", "modulo by zero") ]);
    Alcotest.test_case "a jump into a fusible sequence keeps it canonical" `Quick (fun () ->
        (* [la + (la && lb)] ends in PUSH 0; ADD, and the && jumps to the
           ADD with lb's value: fused to ADD_C 0 it would skip it. *)
        let src =
          "var g = 0;\nthread t { local la = 1; local lb = 5;\n\
          \  local r = la + (la && lb);\n  g = r * (0 || lb);\n  local q = r - (la && 0); }"
        in
        let inside = ref 0 in
        Array.iter
          (fun (canon, fused) ->
            let starts = instructions D.Compile.width canon in
            let targets =
              List.filter_map
                (fun (pc, op) ->
                  if op = D.Compile.op_jmp || op = D.Compile.op_jz || op = D.Compile.op_jnz
                  then Some canon.(pc + 1)
                  else None)
                starts
            in
            (* A PUSH right before an arithmetic jump target. *)
            let rec scan = function
              | (pc, op) :: ((pc', op') :: _ as rest) ->
                if op = D.Compile.op_push && op' >= D.Compile.op_add && op' <= D.Compile.op_mod
                   && List.mem pc' targets
                then begin
                  incr inside;
                  check "left canonical" true (fused.(pc) = op && fused.(pc') = op')
                end;
                scan rest
              | _ -> ()
            in
            scan starts)
          (fused_threads src);
        check_int "sequences with a jump inside" 3 !inside;
        check "no failure" true (agree_with_oracle ~what:"jump-in" src = None)) ]

(* Byte fuzz of the front end, through the loader `chess check` uses:
   Parser.parse_string, then Fairmc_static.compile (visibility analysis,
   merged compile, fusion). Only the documented parse and sema errors may
   escape, and every program that compiles boots and runs one path. *)

let fuzz_pieces =
  [| "program"; "var"; "array"; "mutex"; "sem"; "event"; "autoevent"; "thread"; "local";
     "if"; "else"; "while"; "yield"; "sleep"; "skip"; "assert"; "atomic"; "lock"; "unlock";
     "trylock"; "timedlock"; "wait"; "timedwait"; "set"; "reset"; "p"; "v"; "semtry";
     "choose"; "true"; "false"; "x"; "y"; "a"; "m"; "t"; "0"; "1"; "2"; "-1";
     "4611686018427387903"; "99999999999999999999"; "("; ")"; "{"; "}"; "["; "]"; ";"; ",";
     "=="; "!="; "<="; ">="; "<"; ">"; "="; "+"; "-"; "*"; "/"; "%"; "&&"; "||"; "!";
     "\"s\""; "//c\n"; "/*"; "*/"; "\n" |]

let fuzz_seeds =
  [ src_forms; src_compute; src_buffer; src_peterson;
    "sem s = 0; event done_ev; autoevent ae; mutex m; var got = 0; array q[3] = 1;\n\
     thread producer { v(s); set(done_ev); local r = trylock(m); if (r) { unlock(m); } }\n\
     thread consumer { p(s); wait(done_ev); got = semtry(s) + timedwait(ae); reset(done_ev); }\n\
     thread watch { local c = choose(3); q[c] = timedlock(m); atomic { got = got + q[c]; } \
     while (got != 1) { sleep; } assert(got <= 9, \"bound\"); }" ]

(* Random bytes, token soup, or a seed program under 1-4 mutations. Most
   mutations keep the text close to a program (a number or an operator
   swapped, a statement copied or dropped), so many mutants still compile
   and reach the VM; the rest cut, insert or overwrite bytes. *)
let fuzz_source st =
  let int n = Random.State.int st n in
  let pick a = a.(int (Array.length a)) in
  let piece () = pick fuzz_pieces in
  let mutate s =
    let n = String.length s in
    let positions p = List.filter (fun i -> p s.[i]) (List.init n Fun.id) in
    let at_one p k =
      match positions p with [] -> s | ps -> k (List.nth ps (int (List.length ps)))
    in
    let splice i len by = String.sub s 0 i ^ by ^ String.sub s (i + len) (n - i - len) in
    let is_digit c = c >= '0' && c <= '9' in
    match int 6 with
    | 0 ->
      let numbers = [| "0"; "1"; "2"; "7"; "65521"; "4611686018427387903"; "9999999999999999999" |] in
      at_one is_digit (fun i -> splice i 1 (pick numbers))
    | 1 ->
      let ops = [| "+"; "-"; "*"; "/"; "%"; "<"; ">" |] in
      at_one (String.contains "+-*/%<>!") (fun i -> splice i 1 (pick ops))
    | 2 | 3 ->
      (* Copy or drop the text between two semicolons. *)
      let semis = positions (( = ) ';') in
      if List.length semis < 2 then s
      else
        let a = List.nth semis (int (List.length semis - 1)) in
        let b = List.find (fun j -> j > a) semis in
        let stmt = String.sub s (a + 1) (b - a) in
        if int 2 = 0 then splice (a + 1) 0 stmt else splice (a + 1) (b - a) ""
    | 4 ->
      let i = int (n + 1) in
      splice i 0 (" " ^ piece () ^ " ")
    | _ ->
      let i = int (n + 1) in
      splice i (min (int 4) (n - i)) (String.make (int 2) (Char.chr (int 256)))
  in
  match int 5 with
  | 0 -> String.init (int 256) (fun _ -> Char.chr (int 256))
  | 1 -> String.concat " " (List.init (int 60) (fun _ -> piece ()))
  | _ ->
    let rec go k s = if k = 0 then s else go (k - 1) (mutate s) in
    go (1 + int 4) (List.nth fuzz_seeds (int (List.length fuzz_seeds)))

let fuzz_tests =
  [ Alcotest.test_case "front end: random and mutated sources fail cleanly or run" `Quick
      (fun () ->
        let st = Random.State.make [| 0xC4E55 |] in
        let cfg =
          { Search_config.default with
            max_executions = Some 1;
            max_steps = 300;
            livelock_bound = Some 300 }
        in
        let ran = ref 0 in
        for _ = 1 to 5_000 do
          let src = fuzz_source st in
          match Fairmc_static.compile (D.Parser.parse_string src) with
          | exception (D.Parser.Error _ | D.Lexer.Error _ | D.Sema.Error _) -> ()
          | exception e ->
            Alcotest.failf "escaped the front end: %s\nsource: %S" (Printexc.to_string e) src
          | prog ->
            (match Search.run cfg prog with
             | _ -> incr ran
             | exception e ->
               Alcotest.failf "escaped the first path: %s\nsource: %S" (Printexc.to_string e)
                 src)
        done;
        if !ran < 500 then Alcotest.failf "only %d of 5000 sources compiled" !ran) ]

let suite =
  lexer_tests @ parser_tests @ sema_tests @ exec_tests @ differential_tests
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) differential_qprops
  @ limit_tests
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) restore_qprops
  @ storage_tests @ cli_agreement_tests @ same_tree_tests @ fusion_tests @ fuzz_tests
  @ restore_cost_tests
