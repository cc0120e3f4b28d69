(* Parallel-search tests: exact equivalence with the sequential search
   (same verdict, execution count, transition count and coverage-state count
   for every jobs value, sampling modes included), and deterministic replay
   of counterexamples found by workers. The searches fork worker processes
   ({!Supervisor}) on however many cores the host has — the invariants are
   scheduling-independent. *)

open Fairmc_core
module W = Fairmc_workloads

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let base = { Search_config.default with livelock_bound = Some 2_000 }

let verdict_kind (r : Report.t) = Report.verdict_name r.verdict

let cex_of = Report.cex

(* Systematic searches must be bit-for-bit equivalent: the parallel
   decomposition re-executes every sequential path exactly once and resolves
   errors in DFS order. *)
let assert_systematic_equiv name cfg prog =
  let seq = Search.run cfg prog in
  List.iter
    (fun jobs ->
      let par = Checker.check ~config:{ cfg with Search_config.jobs } prog in
      let tag fmt = Printf.sprintf "%s j=%d: %s" name jobs fmt in
      Alcotest.(check string) (tag "verdict") (verdict_kind seq) (verdict_kind par);
      check_int (tag "executions") seq.stats.executions par.stats.executions;
      check_int (tag "transitions") seq.stats.transitions par.stats.transitions;
      check_int (tag "states") seq.stats.states par.stats.states;
      check_int (tag "max depth") seq.stats.max_depth par.stats.max_depth;
      check_int (tag "path digest") seq.stats.path_digest par.stats.path_digest;
      Alcotest.(check (option int))
        (tag "first error execution")
        seq.stats.first_error_execution par.stats.first_error_execution;
      match (cex_of seq, cex_of par) with
      | None, None -> ()
      | Some c1, Some c2 ->
        check (tag "identical counterexample") true (c1.decisions = c2.decisions)
      | _ -> Alcotest.fail (tag "counterexample presence differs"))
    [ 2; 4 ]

let suite =
  [ Alcotest.test_case "systematic: verified workload is bit-equal" `Quick (fun () ->
        (* C(6,3) = 20 schedules; every one must be executed exactly once
           across the workers. *)
        let p = W.Litmus.two_step_threads ~nthreads:2 ~steps:3 in
        assert_systematic_equiv "two-step" { base with fair = false; coverage = true } p);
    Alcotest.test_case "systematic: coverage union equals sequential" `Quick (fun () ->
        let p = W.Dining.coverage_program ~n:2 in
        assert_systematic_equiv "dining-cov" { base with coverage = true } p);
    Alcotest.test_case "systematic: deadlock found at the sequential position" `Quick
      (fun () ->
        let p = W.Dining.program ~n:2 W.Dining.Deadlock in
        assert_systematic_equiv "dining-deadlock" { base with coverage = true } p);
    Alcotest.test_case "systematic: known livelock is reproduced" `Quick (fun () ->
        (* Figure 1 with yields: a fair nontermination below the livelock
           bound. The divergence classification must survive the parallel
           decomposition. *)
        let p = W.Dining.program ~n:2 W.Dining.Try_acquire_yield in
        assert_systematic_equiv "dining-livelock"
          { base with livelock_bound = Some 500; coverage = true }
          p);
    Alcotest.test_case "systematic: cb + sleep sets stay exact" `Quick (fun () ->
        let p = W.Wsq.program ~stealers:1 W.Wsq.Bug1 in
        assert_systematic_equiv "wsq-bug1"
          { base with
            mode = Search_config.Context_bounded 2;
            sleep_sets = true;
            coverage = true }
          p);
    Alcotest.test_case "systematic: splitting on demand does not change results" `Quick
      (fun () ->
        (* The search starts as one item; idle workers have busy ones split
           theirs, so every fan-out runs more than one. *)
        let p = W.Dining.coverage_program ~n:2 in
        let cfg = { base with coverage = true; metrics = true } in
        let seq = Search.run cfg p in
        List.iter
          (fun jobs ->
            let par = Checker.check ~config:{ cfg with jobs } p in
            let items =
              match Fairmc_obs.Metrics.Snapshot.find par.metrics "sup/items" with
              | Some (Fairmc_obs.Metrics.Snapshot.Gauge n) -> n
              | _ -> 0
            in
            check (Printf.sprintf "items split at j=%d" jobs) true (items >= 2);
            check_int
              (Printf.sprintf "executions at j=%d" jobs)
              seq.stats.executions par.stats.executions;
            check_int (Printf.sprintf "states at j=%d" jobs) seq.stats.states par.stats.states;
            check_int
              (Printf.sprintf "path digest at j=%d" jobs)
              seq.stats.path_digest par.stats.path_digest)
          [ 2; 3; 4 ]);
    Alcotest.test_case "parallel counterexample replays deterministically" `Quick (fun () ->
        let p = W.Litmus.race_assert () in
        let r = Checker.check ~config:{ base with jobs = 4 } p in
        match r.verdict with
        | Report.Safety_violation { cex; _ } ->
          (match Search.replay p cex.decisions (fun _ -> ()) with
           | Search.Replayed_failure replayed ->
             check_int "replayed length" cex.length replayed.length
           | Search.Replayed_no_failure | Search.Replay_mismatch _ ->
             Alcotest.fail "replay did not reproduce the failure")
        | _ -> Alcotest.fail "expected safety violation");
    Alcotest.test_case "sampling: verdict matches sequential, runs reproduce" `Quick
      (fun () ->
        let p = W.Promise.program W.Promise.Stale_cache in
        let cfg =
          { base with mode = Search_config.Random_walk 100; livelock_bound = Some 300 }
        in
        let seq = Search.run cfg p in
        let par () = Checker.check ~config:{ cfg with jobs = 4 } p in
        let r1 = par () and r2 = par () in
        Alcotest.(check string) "verdict kind" (verdict_kind seq) (verdict_kind r1);
        (* The winning item and its schedule are deterministic even
           though worker timing is not. *)
        Alcotest.(check string) "reproducible verdict" (verdict_kind r1) (verdict_kind r2);
        (match (cex_of r1, cex_of r2) with
         | Some c1, Some c2 -> check "identical schedule" true (c1.decisions = c2.decisions)
         | None, None -> ()
         | _ -> Alcotest.fail "runs disagree on finding an error"));
    Alcotest.test_case "sampling: budget is sharded, not multiplied" `Quick (fun () ->
        let p = W.Dining.coverage_program ~n:2 in
        let cfg =
          { base with mode = Search_config.Priority_random 21; coverage = true; jobs = 4 }
        in
        let r = Checker.check ~config:cfg p in
        check "no error" false (Report.found_error r);
        check_int "21 executions total" 21 r.stats.executions;
        check_int "the sequential paths" (Search.run cfg p).stats.path_digest r.stats.path_digest);
    Alcotest.test_case "sampling: pinned counterexample at jobs=4" `Quick (fun () ->
        (* Execution i draws from (seed, i) whichever item runs it, so four
           workers find the sequential search's counterexample at its
           execution index. *)
        let cfg =
          { Search_config.default with mode = Search_config.Random_walk 400; seed = 7L }
        in
        let p = W.Litmus.race_assert () in
        let seq = Search.run cfg p in
        let r = Checker.check ~config:{ cfg with jobs = 4 } p in
        match (seq.verdict, r.verdict) with
        | ( Report.Safety_violation { cex = want; _ },
            Report.Safety_violation { tid; failure = Engine.Assertion msg; cex } ) ->
          check_int "failing thread" 2 tid;
          Alcotest.(check string) "failure" "check-then-act race" msg;
          Alcotest.(check (list (pair int int)))
            "the sequential schedule" want.decisions cex.decisions;
          Alcotest.(check (list (pair int int)))
            "schedule"
            [ (1, 0); (1, 0); (0, 0); (1, 0); (0, 0); (0, 0); (2, 0); (2, 0); (2, 0) ]
            cex.decisions;
          Alcotest.(check (option int))
            "the sequential execution index" seq.stats.first_error_execution
            r.stats.first_error_execution;
          check_int "executions" seq.stats.executions r.stats.executions;
          check_int "path digest" seq.stats.path_digest r.stats.path_digest
        | _, v ->
          Alcotest.failf "expected the assertion failure, got %s" (Report.verdict_key v));
    Alcotest.test_case "jobs=0 resolves to the host's domain count" `Quick (fun () ->
        check_int "auto"
          (Domain.recommended_domain_count ())
          (Supervisor.resolve_workers { base with jobs = 0 });
        check_int "explicit" 3 (Supervisor.resolve_workers { base with jobs = 3 });
        check_int "the larger of jobs and workers" 3
          (Supervisor.resolve_workers { base with jobs = 2; workers = 3 });
        let p = W.Litmus.race_assert () in
        let r = Checker.check ~config:{ base with jobs = 0 } p in
        check "auto jobs still finds the bug" true (Report.found_error r)) ]

(* ------------------------------------------------------------------ *)
(* Random programs: every strategy reports the same at every fan-out    *)

let report_key (r : Report.t) =
  ( Report.verdict_key r.verdict,
    Test_checkpoint.strip_time r.stats,
    Option.map (fun (c : Report.counterexample) -> c.decisions) (cex_of r) )

(* A sampling run cut by [max_executions] at three workers and resumed at
   two reports what one uninterrupted run reports. A cut that lands after
   the first error leaves a complete checkpoint: nothing to resume. *)
let resumes_exactly ~seed (cfg : Search_config.t) prog want =
  let file = Filename.temp_file "fairmc_fanout" ".ckpt" in
  Fun.protect ~finally:(fun () -> try Sys.remove file with Sys_error _ -> ()) @@ fun () ->
  let cut =
    { cfg with
      workers = 3;
      max_executions = Some 15;
      checkpoint = Some file;
      checkpoint_interval = 0. }
  in
  let plan ck = Checkpoint.plan_resume ck cfg ~program:prog.Program.name in
  match (Checker.check ~config:cut prog).verdict with
  | Report.Limits_reached ->
    (match Result.bind (Checkpoint.load file) plan with
     | Error e -> QCheck.Test.fail_reportf "seed %d: %s" seed e
     | Ok resume ->
       report_key (Checker.check ~config:{ cfg with workers = 2 } ~resume prog) = want
       || QCheck.Test.fail_reportf "seed %d, %s: the resumed run differs" seed
            (Search_config.mode_name cfg.mode))
  | _ -> true

(* Random walk, random priorities and an unfair depth-bounded DFS (whose
   cut paths finish under random tails) at one, two and three workers, on
   the VM with and without static merging. About 90% of generated programs
   fail on their first execution whatever the schedule, and 1% later; the
   items below the winning one matter only when the first error comes
   later, so each seed takes the first of 24 programs whose random walk
   fails later, else the first that does not fail, else the first. *)
let prop_fan_out seed =
  let base =
    { Search_config.default with
      livelock_bound = Some 300;
      max_steps = 1_000;
      coverage = true;
      seed = Int64.of_int seed }
  in
  let sampling = { base with mode = Search_config.Random_walk 40 } in
  let candidates =
    List.init 24 (fun k ->
        let ast =
          Test_dsl.gen_program
            (Fairmc_util.Rng.make (Int64.of_int ((seed * 104729) + (k * 7) + 17)))
        in
        let prog =
          if seed land 1 = 0 then Fairmc_dsl.Vm.compile ast else Fairmc_static.compile ast
        in
        (prog, (Search.run sampling prog).stats.first_error_execution))
  in
  let first p = Option.map fst (List.find_opt (fun (_, e) -> p e) candidates) in
  let prog =
    match first (function Some e -> e > 1 | None -> false) with
    | Some prog -> prog
    | None -> Option.value (first Option.is_none) ~default:(fst (List.hd candidates))
  in
  List.for_all
    (fun (cfg : Search_config.t) ->
      let seq = Search.run cfg prog in
      let want = report_key seq in
      (* A DFS cut by its budget may cut elsewhere at another fan-out. One
         that finished inside it runs unbudgeted there: workers on items
         above the first error spend executions too. *)
      seq.verdict = Report.Limits_reached && Search.is_systematic cfg
      || List.for_all
           (fun workers ->
             let cfg = { cfg with workers; max_executions = None } in
             report_key (Checker.check ~config:cfg prog) = want
             || QCheck.Test.fail_reportf "seed %d, %s%s: workers=%d differs" seed
                  (Search_config.mode_name cfg.mode)
                  (if cfg.fair then "" else " unfair")
                  workers)
           [ 2; 3 ])
    [ sampling;
      { base with mode = Search_config.Priority_random 40 };
      { base with fair = false; depth_bound = Some 4; max_executions = Some 2_000 } ]
  && resumes_exactly ~seed sampling prog (report_key (Search.run sampling prog))

let suite =
  suite
  @ [ QCheck_alcotest.to_alcotest ~long:false
        (QCheck.Test.make
           ~name:"random programs: every strategy reports the same at workers 1, 2 and 3"
           ~count:30 QCheck.int prop_fan_out) ]

(* ------------------------------------------------------------------ *)
(* Splitting at every path boundary                                   *)

(* A search run in process as work items with the split request always up:
   each item stops at its first path boundary that leaves work to split
   off, and the pieces run one at a time in DFS order (execution order, for
   sampling). Merged in that order, the first error deciding, they give the
   report the supervisor would. *)
let split_everywhere (cfg : Search_config.t) prog =
  let tally = Tally.create ~slots:1 in
  Tally.ask_split tally true;
  let states = Hashtbl.create 64 in
  let spent () =
    match cfg.max_executions with Some m -> Tally.executions tally >= m | None -> false
  in
  let rec go (acc : Report.t) = function
    | item :: later when not (spent ()) ->
      let r, tbl, rest = Search.run_item ~tally cfg prog item in
      Hashtbl.iter (fun k () -> Hashtbl.replace states k ()) tbl;
      let acc =
        { r with
          Report.stats = Checkpoint.merge_stats ~prior:acc.stats r.stats;
          metrics = Fairmc_obs.Metrics.Snapshot.merge acc.metrics r.metrics }
      in
      (match r.verdict with
       | Report.Verified | Report.Limits_reached -> go acc (rest @ later)
       | _ -> acc)
    | left ->
      (* Every item ran, or the budget ran out with items left; a sampling
         search never verifies. A budget spent by the tree's last path
         verifies, as it does in [Search.run]. *)
      let limited = left <> [] || not (Search.is_systematic cfg) in
      { acc with verdict = (if limited then Report.Limits_reached else Report.Verified) }
  in
  let r =
    go
      { Report.verdict = Report.Verified; stats = Checkpoint.zero_stats;
        metrics = Fairmc_obs.Metrics.Snapshot.empty; analysis = None }
      [ Search.root cfg ]
  in
  { r with stats = { r.stats with states = Hashtbl.length states } }

(* Most generated programs fail on their first path; each seed takes the
   first of 16 whose fair DFS runs 20 paths or more, else the first. *)
let prop_split_everywhere seed =
  let base =
    { Search_config.default with
      livelock_bound = Some 300;
      max_steps = 1_000;
      max_executions = Some 300;
      coverage = true;
      metrics = true;
      seed = Int64.of_int seed }
  in
  let candidates =
    List.init 16 (fun k ->
        let ast =
          Test_dsl.gen_program
            (Fairmc_util.Rng.make (Int64.of_int ((seed * 6151) + (k * 13) + 5)))
        in
        if seed land 1 = 0 then Fairmc_dsl.Vm.compile ast else Fairmc_static.compile ast)
  in
  let prog =
    match
      List.find_opt (fun p -> (Search.run base p).stats.executions >= 20) candidates
    with
    | Some p -> p
    | None -> List.hd candidates
  in
  List.for_all
    (fun ((cfg : Search_config.t), sleep_sets) ->
      let cfg = { cfg with sleep_sets } in
      let seq = Search.run cfg prog and split = split_everywhere cfg prog in
      let counters (r : Report.t) = Test_checkpoint.prefix_steps_folded r.metrics in
      (report_key seq = report_key split && counters seq = counters split)
      || QCheck.Test.fail_reportf "seed %d, %s%s%s: split at every boundary differs" seed
           (Search_config.mode_name cfg.mode)
           (if cfg.fair then "" else " unfair")
           (if sleep_sets then " +sleepsets" else ""))
    (List.concat_map
       (fun cfg -> [ (cfg, false); (cfg, true) ])
       [ base;
         { base with mode = Search_config.Context_bounded 1 };
         { base with mode = Search_config.Context_bounded 2 };
         { base with fair = false; depth_bound = Some 4; livelock_bound = None };
         { base with mode = Search_config.Random_walk 40 } ])

let suite =
  suite
  @ [ QCheck_alcotest.to_alcotest ~long:false
        (QCheck.Test.make
           ~name:"random programs: split at every path boundary, the pieces give the report"
           ~count:40 QCheck.int prop_split_everywhere) ]
