(* Search-layer tests: exhaustiveness (schedule counting against closed
   forms), context-bound accounting, depth bounding with random tails,
   verdicts, replay of counterexamples, coverage, and baselines. *)

open Fairmc_core
module W = Fairmc_workloads

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let dfs = { Search_config.default with livelock_bound = Some 2_000 }

let binomial n k =
  let num = ref 1 in
  for i = 1 to k do
    num := !num * (n - k + i) / i
  done;
  !num

let suite =
  [ Alcotest.test_case "DFS counts interleavings of independent threads" `Quick (fun () ->
        (* Two independent threads with s steps each have C(2s, s) maximal
           schedules. Unfair DFS without fairness restrictions must
           enumerate exactly that many terminated executions. *)
        List.iter
          (fun s ->
            let p = W.Litmus.two_step_threads ~nthreads:2 ~steps:s in
            let cfg = { dfs with fair = false } in
            let r = Search.run cfg p in
            check "verified" true (r.verdict = Report.Verified);
            check_int
              (Printf.sprintf "C(%d,%d) schedules" (2 * s) s)
              (binomial (2 * s) s)
              r.stats.executions)
          [ 1; 2; 3; 4 ]);
    Alcotest.test_case "fair DFS also explores all yield-free schedules" `Quick (fun () ->
        (* Theorem 5: with no yields the priority relation stays empty, so
           the fair search coincides with the unrestricted one. *)
        let p = W.Litmus.two_step_threads ~nthreads:2 ~steps:3 in
        let r = Search.run dfs p in
        check_int "same count as unfair" (binomial 6 3) r.stats.executions);
    Alcotest.test_case "cb=0 explores only non-preemptive schedules" `Quick (fun () ->
        (* Without preemptions, each of the two 2-step threads runs to
           completion once scheduled: the only choice is which thread goes
           first at depth 0 and after a termination — exactly 2 schedules. *)
        let p = W.Litmus.two_step_threads ~nthreads:2 ~steps:2 in
        let cfg = { dfs with fair = false; mode = Search_config.Context_bounded 0 } in
        let r = Search.run cfg p in
        check_int "2 non-preemptive schedules" 2 r.stats.executions);
    Alcotest.test_case "cb budget widens coverage monotonically" `Quick (fun () ->
        let p = W.Wsq.coverage_program ~stealers:1 () in
        let states c =
          let cfg =
            { dfs with mode = Search_config.Context_bounded c; coverage = true }
          in
          (Search.run cfg p).stats.states
        in
        let s0 = states 0 and s1 = states 1 and s2 = states 2 in
        check "cb=0 <= cb=1" true (s0 <= s1);
        check "cb=1 <= cb=2" true (s1 <= s2);
        check "cb=1 strictly adds states here" true (s0 < s2));
    Alcotest.test_case "deadlock reported with counterexample" `Quick (fun () ->
        let r = Search.run dfs (W.Dining.program ~n:2 W.Dining.Deadlock) in
        match r.verdict with
        | Report.Deadlock { cex } ->
          check "counterexample nonempty" true (cex.length > 0);
          check "schedule recorded" true (List.length cex.decisions = cex.length)
        | _ -> Alcotest.fail "expected deadlock");
    Alcotest.test_case "safety counterexamples replay to the same failure" `Quick (fun () ->
        let p = W.Litmus.race_assert () in
        let r = Search.run dfs p in
        match r.verdict with
        | Report.Safety_violation { cex; _ } ->
          (match Search.replay p cex.decisions (fun _ -> ()) with
           | Search.Replayed_failure replayed ->
             check_int "same length" cex.length replayed.length
           | Search.Replayed_no_failure | Search.Replay_mismatch _ ->
             Alcotest.fail "replay did not reproduce the failure")
        | _ -> Alcotest.fail "expected safety violation");
    Alcotest.test_case "depth-bounded unfair search counts bound hits" `Quick (fun () ->
        let p = W.Litmus.fig3 () in
        let cfg =
          { (Search_config.unfair_dfs ~depth_bound:12) with
            coverage = true;
            max_steps = 3_000;
            seed = 5L }
        in
        let r = Search.run cfg p in
        check "some paths hit the depth bound" true (r.stats.depth_bound_hits > 0);
        (* The random tail completes them: with high probability no path
           reaches the hard cap. *)
        check "all executions terminated" true (r.stats.nonterminating = 0));
    Alcotest.test_case "depth-bounded paths run on past the bound" `Quick (fun () ->
        (* A path cut at the depth bound finishes under random scheduling
           (paper §4.2.1); none is dropped at the bound. *)
        let p = W.Litmus.fig3 () in
        let r = Search.run (Search_config.unfair_dfs ~depth_bound:6) p in
        check "verified" true (r.verdict = Report.Verified);
        check "bound hits recorded" true (r.stats.depth_bound_hits > 0);
        check "paths continue past the bound" true (r.stats.max_depth > 6));
    Alcotest.test_case "max_executions and time limits yield Limits_reached" `Quick (fun () ->
        let p = W.Dining.program ~n:3 W.Dining.Ordered in
        let r = Search.run { dfs with max_executions = Some 5 } p in
        check "limits" true (r.verdict = Report.Limits_reached);
        check_int "stopped at 5" 5 r.stats.executions);
    Alcotest.test_case "random walk finds the spin-loop livelock" `Quick (fun () ->
        let p = W.Promise.program W.Promise.Stale_cache in
        let cfg =
          { dfs with mode = Search_config.Random_walk 100; livelock_bound = Some 300 }
        in
        let r = Search.run cfg p in
        check "divergence found" true
          (match r.verdict with Report.Divergence _ -> true | _ -> false));
    Alcotest.test_case "round-robin is a single fair schedule" `Quick (fun () ->
        (* The Section 2 discussion: one fair schedule terminates but covers
           almost nothing. *)
        let p = W.Dining.coverage_program ~n:2 in
        let cfg = { dfs with mode = Search_config.Round_robin; coverage = true } in
        let r = Search.run cfg p in
        check_int "one execution" 1 r.stats.executions;
        let full = Search.run { dfs with coverage = true } p in
        check "covers strictly less than DFS" true (r.stats.states < full.stats.states));
    Alcotest.test_case "priority-random baseline terminates and underperforms" `Quick (fun () ->
        let p = W.Dining.coverage_program ~n:2 in
        let cfg = { dfs with mode = Search_config.Priority_random 20; coverage = true } in
        let r = Search.run cfg p in
        check_int "20 executions" 20 r.stats.executions;
        check "no error" false (Report.found_error r));
    Alcotest.test_case "fair k-parameterization still verifies" `Quick (fun () ->
        let p = W.Litmus.fig3 () in
        let r = Search.run { dfs with fair_k = 2; coverage = true } p in
        check "verified" true (r.verdict = Report.Verified);
        check "covers the full space" true (r.stats.states >= 5));
    Alcotest.test_case "first-error statistics populated" `Quick (fun () ->
        let r = Search.run dfs (W.Litmus.race_assert ()) in
        check "first_error_execution set" true (r.stats.first_error_execution <> None);
        check "first_error_time set" true (r.stats.first_error_time <> None);
        check "found_error" true (Report.found_error r));
    Alcotest.test_case "a transition allocates at most 100 minor words" `Quick (fun () ->
        (* Every path re-executes its prefix from the initial state, so what
           one transition allocates multiplies through every verdict. A
           closure or boxed value added to the per-transition path (engine
           step, enabled set, fair scheduler, search loop) shows here as a
           deterministic count, free of timing noise. *)
        let p = (Option.get (W.Registry.find "wsq-1s-correct")).W.Registry.program in
        let cfg = { Search_config.default with mode = Search_config.Context_bounded 2 } in
        let before = Gc.minor_words () in
        let r = Search.run cfg p in
        let per = (Gc.minor_words () -. before) /. float_of_int r.stats.transitions in
        check "verified" true (r.verdict = Report.Verified);
        check (Printf.sprintf "%.1f minor words per transition <= 100" per) true (per <= 100.));
    Alcotest.test_case "the fair search explores a pinned tree" `Quick (fun () ->
        (* A change to the fair scheduler's representation must not change
           what the search explores: these counts, including the
           priority-relation accounting, pin the explored tree of three
           fair searches. *)
        let counter snap name =
          match Fairmc_obs.Metrics.Snapshot.find snap name with
          | Some (Fairmc_obs.Metrics.Snapshot.Counter c) -> c
          | _ -> Alcotest.failf "counter %s missing" name
        in
        List.iter
          (fun (name, cfg, (execs, transitions, yields, added, removed, penalties)) ->
            let p = (Option.get (W.Registry.find name)).W.Registry.program in
            let r = Search.run { cfg with Search_config.metrics = true } p in
            let m = r.Report.metrics in
            Alcotest.(check (list (pair string int)))
              name
              [ ("executions", execs); ("transitions", transitions); ("yields", yields);
                ("edges added", added); ("edges removed", removed);
                ("penalties", penalties) ]
              [ ("executions", r.stats.executions);
                ("transitions", r.stats.transitions);
                ("yields", r.stats.yields);
                ("edges added", counter m "sched/priority_edges_added");
                ("edges removed", counter m "sched/priority_edges_removed");
                ("penalties", counter m "sched/priority_penalties") ])
          [ ("fig3", Search_config.default, (5, 22, 6, 1, 1, 6));
            ( "wsq-1s-correct",
              { Search_config.default with mode = Search_config.Context_bounded 2 },
              (1656, 73494, 3312, 272, 272, 3312) );
            ( "dining-2-tryacquire+yield",
              { dfs with fair_k = 2 },
              (1289, 1305056, 320464, 99, 99, 159813) ) ]) ]
