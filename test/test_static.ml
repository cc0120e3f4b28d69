(* Static analysis layer: lint rules over the fixture corpus, the
   fairmc-lint/1 JSON document, sema error positions, visibility-based
   transition merging, and the ON/OFF differential soundness suite. *)

open Fairmc_core
module D = Fairmc_dsl
module S = Fairmc_static
module Lint = S.Lint
module Visibility = S.Visibility
module Json = Fairmc_util.Json
module R = Fairmc_util.Rng

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)
let check_strs = Alcotest.(check (list string))

(* Tests run from _build/default/test; the fixtures live in the source
   tree. *)
let fixture_dir sub =
  List.find_opt Sys.file_exists [ "../../../examples/" ^ sub; "examples/" ^ sub ]

let chess_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> Filename.check_suffix f ".chess")
  |> List.sort compare

let rules fs = List.map (fun (f : Lint.finding) -> f.Lint.rule) fs

(* ------------------------------------------------------------------ *)
(* Lint: exact findings over the fixture corpus.                       *)

(* One seeded defect per rule; each file must produce exactly its own
   finding and nothing else. *)
let seeded_table =
  [ ("dead_code.chess", [ "dead-code" ]);
    ("double_lock.chess", [ "double-lock" ]);
    ("lock_inversion.chess", [ "lock-inversion" ]);
    ("never_signaled_event.chess", [ "never-signaled" ]);
    ("never_signaled_sem.chess", [ "never-signaled" ]);
    ("race_candidate.chess", [ "race-candidate" ]);
    ("silent_loop.chess", [ "silent-loop" ]);
    ("unlock_unheld.chess", [ "unlock-unheld" ]);
    ("unused_global.chess", [ "unused-global" ]);
    ("unused_local.chess", [ "unused-local" ]) ]

(* The example programs: the mutex-free classics legitimately flag their
   unprotected globals; fig1's inverted forks flag the deadlock; the
   bounded buffer is clean. *)
let example_table =
  [ ("bounded_buffer.chess", []);
    ("dekker.chess", [ "race-candidate"; "race-candidate"; "race-candidate" ]);
    ("fig1_dining.chess", [ "lock-inversion" ]);
    ("fig3.chess", [ "race-candidate" ]);
    ("peterson.chess", [ "race-candidate"; "race-candidate"; "race-candidate" ]);
    ("stale_flag_livelock.chess", [ "race-candidate" ]) ]

let corpus_tests =
  [ Alcotest.test_case "seeded fixtures: exactly the intended finding" `Quick
      (fun () ->
        match fixture_dir "lint/seeded" with
        | None -> ()
        | Some dir ->
          check_strs "corpus covers every rule" (List.map fst seeded_table)
            (chess_files dir);
          List.iter
            (fun (file, expected) ->
              let fs = S.lint_file (Filename.concat dir file) in
              check_strs file expected (rules fs))
            seeded_table);
    Alcotest.test_case "clean fixtures: zero findings" `Quick (fun () ->
        match fixture_dir "lint/clean" with
        | None -> ()
        | Some dir ->
          let files = chess_files dir in
          check "clean corpus is non-empty" true (files <> []);
          List.iter
            (fun file ->
              check_strs file [] (rules (S.lint_file (Filename.concat dir file))))
            files);
    Alcotest.test_case "example programs: expected findings only" `Quick (fun () ->
        match fixture_dir "programs" with
        | None -> ()
        | Some dir ->
          List.iter
            (fun (file, expected) ->
              let fs = S.lint_file (Filename.concat dir file) in
              check_strs file expected (rules fs))
            example_table);
    Alcotest.test_case "findings are deterministic and sorted" `Quick (fun () ->
        match fixture_dir "lint/seeded" with
        | None -> ()
        | Some dir ->
          List.iter
            (fun file ->
              let path = Filename.concat dir file in
              let a = S.lint_file path and b = S.lint_file path in
              check file true (a = b);
              check (file ^ " sorted") true
                (List.sort Lint.compare_finding a = a))
            (chess_files dir));
    Alcotest.test_case "findings carry real source positions" `Quick (fun () ->
        let fs =
          S.lint_string ~name:"pos.chess"
            "program pos;\nmutex m;\nthread t {\n  unlock(m);\n}\n"
        in
        match fs with
        | [ f ] ->
          check_str "rule" "unlock-unheld" f.Lint.rule;
          check_str "file" "pos.chess" f.Lint.file;
          check_int "line" 4 f.Lint.line;
          check_int "col" 3 f.Lint.col;
          check_str "rendered" "pos.chess:4:3: error: mutex 'm' is released \
                                but cannot be held here [unlock-unheld]"
            (Lint.to_string f)
        | fs -> Alcotest.failf "expected 1 finding, got %d" (List.length fs)) ]

(* ------------------------------------------------------------------ *)
(* The fairmc-lint/1 JSON document.                                    *)

let field name = function
  | Json.Obj kvs -> List.assoc name kvs
  | _ -> Alcotest.fail "expected a JSON object"

let json_tests =
  [ Alcotest.test_case "fairmc-lint/1 schema round-trips" `Quick (fun () ->
        match fixture_dir "lint/seeded" with
        | None -> ()
        | Some dir ->
          let files = chess_files dir in
          let findings =
            List.concat_map (fun f -> S.lint_file (Filename.concat dir f)) files
          in
          let doc = Lint.to_json ~program:"seeded" findings in
          (* Round-trip through the printer/parser. *)
          (match Json.of_string (Json.to_string ~pretty:true doc) with
           | Error e -> Alcotest.fail e
           | Ok doc' -> check "round-trip" true (Json.equal doc doc'));
          check "schema tag" true (field "schema" doc = Json.Str "fairmc-lint/1");
          check "program" true (field "program" doc = Json.Str "seeded");
          check_int "count"
            (List.length findings)
            (match field "count" doc with Json.Int n -> n | _ -> -1);
          (* Severity counts partition the findings. *)
          let n k = match field k doc with Json.Int n -> n | _ -> -1 in
          check_int "severities partition" (List.length findings)
            (n "errors" + n "warnings" + n "notes");
          (* by_rule sums to count and names only real rules. *)
          (match field "by_rule" doc with
           | Json.Obj kvs ->
             check_int "by_rule sums"
               (List.length findings)
               (List.fold_left
                  (fun acc (_, v) ->
                    match v with Json.Int n -> acc + n | _ -> -1000)
                  0 kvs);
             check_int "one rule per seeded kind (two share never-signaled)"
               (List.length seeded_table - 1)
               (List.length kvs)
           | _ -> Alcotest.fail "by_rule is not an object");
          (match field "findings" doc with
           | Json.Arr items ->
             check_int "findings array" (List.length findings) (List.length items);
             List.iter
               (fun item ->
                 List.iter
                   (fun k -> ignore (field k item))
                   [ "rule"; "severity"; "file"; "line"; "col"; "message" ])
               items
           | _ -> Alcotest.fail "findings is not an array"));
    Alcotest.test_case "summary block: count + by_rule" `Quick (fun () ->
        let fs =
          S.lint_string ~name:"s" "program s;\nmutex m;\nthread t { unlock(m); }\n"
        in
        let s = Lint.summary_json fs in
        check_int "count" 1 (match field "count" s with Json.Int n -> n | _ -> -1);
        check "by_rule" true
          (field "by_rule" s = Json.Obj [ ("unlock-unheld", Json.Int 1) ])) ]

(* ------------------------------------------------------------------ *)
(* Sema error paths report real positions.                             *)

let sema_error src =
  match D.Parser.parse_string ~name:"err.chess" src |> D.Sema.check with
  | exception D.Sema.Error (msg, pos) -> (msg, pos.D.Ast.line, pos.D.Ast.col)
  | _ -> Alcotest.fail "expected Sema.Error"

let sema_tests =
  [ Alcotest.test_case "undeclared variable: message and position" `Quick
      (fun () ->
        let msg, line, col =
          sema_error "program perr;\nthread t {\n  x = 1;\n}\n"
        in
        check_str "message"
          "assignment to undeclared variable x (use 'local x = ...')" msg;
        check_int "line" 3 line;
        check_int "col" 3 col);
    Alcotest.test_case "duplicate thread: message and position" `Quick (fun () ->
        let msg, line, col =
          sema_error
            "program perr;\nthread t {\n  yield;\n}\nthread t {\n  yield;\n}\n"
        in
        check_str "message" "duplicate thread t" msg;
        check_int "line" 5 line;
        check_int "col" 1 col);
    Alcotest.test_case "duplicate global: message and position" `Quick (fun () ->
        let msg, line, col =
          sema_error "program perr;\nvar g = 0;\nvar g = 1;\nthread t {\n  g = 2;\n}\n"
        in
        check_str "message" "duplicate declaration of g" msg;
        check_int "line" 3 line;
        check_int "col" 1 col) ]

(* ------------------------------------------------------------------ *)
(* Visibility analysis.                                                *)

let visibility_tests =
  [ Alcotest.test_case "bounded buffer: single-accessor cursors merge" `Quick
      (fun () ->
        match fixture_dir "programs" with
        | None -> ()
        | Some dir ->
          let ast = D.Parser.parse_file (Filename.concat dir "bounded_buffer.chess") in
          let r = Visibility.analyze ast in
          check_strs "invisible" [ "head"; "tail" ] r.Visibility.invisible;
          check_strs "vetoed" [] r.Visibility.vetoed;
          check "merged sites" true (r.Visibility.merged_sites > 0));
    Alcotest.test_case "peterson: every global is shared, nothing merges" `Quick
      (fun () ->
        match fixture_dir "programs" with
        | None -> ()
        | Some dir ->
          let ast = D.Parser.parse_file (Filename.concat dir "peterson.chess") in
          let r = Visibility.analyze ast in
          check_strs "invisible" [] r.Visibility.invisible;
          check_int "merged sites" 0 r.Visibility.merged_sites);
    Alcotest.test_case "silent-loop veto keeps the livelock visible" `Quick
      (fun () ->
        (* `c` is thread-local, but merging it would leave the while(1)
           body with no scheduling point: the fair livelock verdict would
           degrade into a silent-fuel runtime error. The veto must keep
           it visible. *)
        let src =
          "program veto;\nvar c = 0;\nvar stop = 0;\n\
           thread spin {\n  while (1) {\n    c = c + 1;\n  }\n}\n\
           thread other {\n  stop = 1;\n}\n"
        in
        let ast = D.Parser.parse_string ~name:"veto" src in
        let r = Visibility.analyze ast in
        check_strs "vetoed" [ "c" ] r.Visibility.vetoed;
        check "c not invisible" true (not (List.mem "c" r.Visibility.invisible));
        (* And the merged program still classifies the loop as a
           divergence, exactly like the plain one. (The divergence
           subkind — livelock vs good-samaritan — is a first-found
           artifact of DFS order, which merging legitimately changes;
           both kinds exist in both trees.) *)
        let cfg =
          { Search_config.default with
            livelock_bound = Some 500;
            max_executions = Some 10_000 }
        in
        let diverges p =
          match (Search.run cfg p).Report.verdict with
          | Report.Divergence _ -> true
          | _ -> false
        in
        check "plain diverges" true (diverges (D.compile ast));
        check "merged diverges" true (diverges (S.compile ast)));
    Alcotest.test_case "merging shrinks the tree on a local-state workload"
      `Quick (fun () ->
        (* Two threads each looping on a private counter: every iteration
           is invisible once merged, so the interleaving explosion
           collapses. *)
        let src =
          "program beat;\nvar a = 0;\nvar b = 0;\n\
           thread t1 {\n  local i = 0;\n  while (i < 3) {\n    a = a + 1;\n    \
           i = i + 1;\n    yield;\n  }\n}\n\
           thread t2 {\n  local i = 0;\n  while (i < 3) {\n    b = b + 1;\n    \
           i = i + 1;\n    yield;\n  }\n}\n"
        in
        let ast = D.Parser.parse_string ~name:"beat" src in
        let r = Visibility.analyze ast in
        check_strs "invisible" [ "a"; "b" ] r.Visibility.invisible;
        let cfg = { Search_config.default with livelock_bound = Some 1_000 } in
        let off = Search.run cfg (D.compile ast) in
        let on = Search.run cfg (S.compile ast) in
        check_str "same verdict"
          (Report.verdict_key off.Report.verdict)
          (Report.verdict_key on.Report.verdict);
        check "fewer executions" true
          (on.Report.stats.Report.executions < off.Report.stats.Report.executions)) ]

(* ------------------------------------------------------------------ *)
(* Differential soundness: merging ON vs OFF must agree on everything
   observable — verdict and failure — across both backends and both
   job counts, on random programs.                                     *)

(* What merging must preserve: whether an error exists and which class
   it is. The divergence subkind and the identity of the first-found
   counterexample are DFS-order artifacts — merging reshapes the tree,
   so a program holding two errors may surface the other one first. *)
let failure_sig (r : Report.t) =
  match r.Report.verdict with
  | Report.Safety_violation { failure; _ } ->
    Printf.sprintf "safety %s" (Format.asprintf "%a" Engine.pp_failure failure)
  | Report.Divergence _ -> "divergence"
  | v -> Report.verdict_key v

(* S.compile over the AST oracle: the same invisible set and conflict
   facts, fed to the other backend. *)
let static_oracle ast =
  let r = S.Visibility.analyze ast in
  Program.with_facts
    (Machine.compile ~invisible:(fun n -> List.mem n r.S.Visibility.invisible) ast)
    r.S.Visibility.facts

let diff_cfg =
  { Search_config.default with
    livelock_bound = Some 200;
    max_executions = Some 30_000;
    time_limit = Some 10.0 }

let differential_tests =
  [ Alcotest.test_case
      "random programs: ON/OFF verdicts agree (both backends, jobs 1/4)" `Quick
      (fun () ->
        let rng = R.make 0xD1FFL in
        for i = 1 to 12 do
          let ast = Test_dsl.gen_program rng in
          List.iter
            (fun (backend, off, on) ->
              List.iter
                (fun jobs ->
                  let cfg = { diff_cfg with Search_config.jobs } in
                  let run p =
                    if jobs = 1 then Search.run cfg p else Checker.check ~config:cfg p
                  in
                  let ro = run off and rn = run on in
                  (* Budget exhaustion on either side makes the verdicts
                     incomparable; the budget is sized so this is rare. *)
                  if
                    ro.Report.verdict <> Report.Limits_reached
                    && rn.Report.verdict <> Report.Limits_reached
                  then begin
                    check_str
                      (Printf.sprintf "sample %d (%s, jobs=%d)" i backend jobs)
                      (failure_sig ro) (failure_sig rn);
                    check
                      (Printf.sprintf "sample %d: ON explores no more than OFF" i)
                      true
                      (rn.Report.stats.Report.executions
                       <= ro.Report.stats.Report.executions)
                  end)
                [ 1; 4 ])
            [ ("vm", D.compile ast, S.compile ast);
              ("ast", Machine.compile ast, static_oracle ast) ]
        done);
    Alcotest.test_case "checkpoint/resume with merging enabled" `Quick (fun () ->
        match fixture_dir "programs" with
        | None -> ()
        | Some dir ->
          let prog =
            S.load_file (Filename.concat dir "bounded_buffer.chess")
          in
          let cfg =
            { Search_config.default with
              livelock_bound = Some 2_000;
              coverage = true;
              metrics = true }
          in
          ignore (Test_checkpoint.resume_equal cfg prog ~cut:5)) ]

(* ------------------------------------------------------------------ *)
(* The reduction floor: how much merging saves, in counts               *)

(* Local-state-heavy: each thread drives its own cursor global; only the
   yields interleave once the cursors merge. *)
let src_counters =
  "var c0 = 0; var c1 = 0; var c2 = 0; var done0 = 0; var done1 = 0; var done2 = 0;\n\
   thread t0 { local i = 0; while (i < 2) { c0 = c0 + 1; i = i + 1; yield; } done0 = 1; }\n\
   thread t1 { local i = 0; while (i < 2) { c1 = c1 + 1; i = i + 1; yield; } done1 = 1; }\n\
   thread t2 { local i = 0; while (i < 2) { c2 = c2 + 1; i = i + 1; yield; } done2 = 1; }"

(* Spin-heavy, every global shared: merging must be a no-op. *)
let src_peterson_spin =
  "var flag0 = 0; var flag1 = 0; var turn = 0; var crit = 0;\n\
   thread p0 { local i = 0; while (i < 2) { flag0 = 1; turn = 1; \
   while (flag1 == 1 && turn == 1) { yield; } crit = crit + 1; \
   assert(crit == 1, \"mutex\"); crit = crit - 1; flag0 = 0; i = i + 1; } }\n\
   thread p1 { local i = 0; while (i < 2) { flag1 = 1; turn = 0; \
   while (flag0 == 1 && turn == 0) { yield; } crit = crit + 1; \
   assert(crit == 1, \"mutex\"); crit = crit - 1; flag1 = 0; i = i + 1; } }"

let reduction_tests =
  let both src cfg =
    let ast = D.Parser.parse_string src in
    (Search.run cfg (S.compile ast), Search.run cfg (D.compile ast))
  in
  [ Alcotest.test_case "merging collapses local counters; peterson is the control" `Quick
      (fun () ->
        (* Unmerged, the counters search runs 541,716 executions (~2 s); a
           1,000-execution budget shows it far from done. *)
        let merged, plain =
          both src_counters
            { Search_config.default with
              livelock_bound = Some 5_000;
              max_executions = Some 1_000 }
        in
        check "merged: verified" true (merged.Report.verdict = Report.Verified);
        check_int "merged: executions" 90 merged.Report.stats.executions;
        check_int "merged: transitions" 540 merged.Report.stats.transitions;
        check "plain: not done after 1,000 executions" true
          (plain.Report.verdict = Report.Limits_reached);
        let merged, plain =
          both src_peterson_spin
            { Search_config.default with
              livelock_bound = Some 2_000;
              max_executions = Some 3_000 }
        in
        check_int "peterson: same executions" plain.Report.stats.executions
          merged.Report.stats.executions;
        check_int "peterson: same transitions" plain.Report.stats.transitions
          merged.Report.stats.transitions) ]

let suite =
  corpus_tests @ json_tests @ sema_tests @ visibility_tests @ differential_tests @ reduction_tests
