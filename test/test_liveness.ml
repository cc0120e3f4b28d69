(* Liveness detection: livelocks (fair nontermination), good-samaritan
   violations, and the classification between them — the paper's outcomes 2
   and 3. *)

open Fairmc_core
module W = Fairmc_workloads

let check = Alcotest.(check bool)

let cfg = { Search_config.default with livelock_bound = Some 1_500 }

let run p = Search.run cfg p

let is_livelock r =
  match r.Report.verdict with
  | Report.Divergence { kind = Report.Fair_nontermination; _ } -> true
  | _ -> false

let is_gs r =
  match r.Report.verdict with
  | Report.Divergence { kind = Report.Good_samaritan_violation _; _ } -> true
  | _ -> false

let suite =
  [ Alcotest.test_case "Figure 8 stale-cache promise is a livelock" `Quick (fun () ->
        (* The spinner sleeps (yields) every iteration, so its divergence is
           a *fair* infinite execution: outcome 3. *)
        check "livelock" true (is_livelock (run (W.Promise.program W.Promise.Stale_cache))));
    Alcotest.test_case "Figure 1 dining with yields is a fair livelock" `Quick (fun () ->
        check "livelock" true
          (is_livelock (run (W.Dining.program ~n:2 W.Dining.Try_acquire_yield))));
    Alcotest.test_case "Figure 1 dining without yields violates good samaritan" `Quick
      (fun () ->
        (* No yields anywhere: the first divergence the search constructs
           starves a philosopher while the other spins — outcome 2. *)
        check "good samaritan" true
          (is_gs (run (W.Dining.program ~n:2 W.Dining.Try_acquire))));
    Alcotest.test_case "Figure 7 taskpool shutdown spin violates good samaritan" `Quick
      (fun () ->
        let r = run (W.Taskpool.program W.Taskpool.Spin_shutdown) in
        check "good samaritan" true (is_gs r);
        (* The blamed thread is the spinning worker (tid 0). *)
        match r.verdict with
        | Report.Divergence { kind = Report.Good_samaritan_violation t; _ } ->
          Alcotest.(check int) "worker blamed" 0 t
        | _ -> assert false);
    Alcotest.test_case "spin loop without yield is a good-samaritan violation" `Quick
      (fun () ->
        check "good samaritan" true (is_gs (run (W.Litmus.fig3_no_yield ()))));
    Alcotest.test_case "courteous variants show no divergence under fairness" `Quick
      (fun () ->
        (* fig3 and the spin-then-sleep promise have small spaces and verify
           outright; the courteous task pool's space is large, so we bound
           the search and require only that no error is found. *)
        List.iter
          (fun p ->
            let r = run p in
            check (p.Program.name ^ " verified") true (r.verdict = Report.Verified))
          [ W.Litmus.fig3 (); W.Promise.program W.Promise.Spin_then_sleep ];
        let r =
          Search.run
            { cfg with max_executions = Some 20_000; time_limit = Some 10.0 }
            (W.Taskpool.program W.Taskpool.Courteous)
        in
        check "no error in the courteous pool" false (Report.found_error r));
    Alcotest.test_case "divergence counterexamples carry the trace tail" `Quick (fun () ->
        let r = run (W.Promise.program W.Promise.Stale_cache) in
        match r.verdict with
        | Report.Divergence { cex; _ } ->
          check "long execution" true (cex.length >= 1_500);
          check "rendered tail" true (String.length cex.rendered > 0)
        | _ -> Alcotest.fail "expected divergence");
    Alcotest.test_case "deadlock is never misreported as livelock" `Quick (fun () ->
        let r = run (W.Dining.program ~n:3 W.Dining.Deadlock) in
        check "deadlock verdict" true
          (match r.verdict with Report.Deadlock _ -> true | _ -> false));
    Alcotest.test_case "livelock bound is configurable" `Quick (fun () ->
        let r =
          Search.run { cfg with livelock_bound = Some 200 }
            (W.Promise.program W.Promise.Stale_cache)
        in
        match r.verdict with
        | Report.Divergence { cex; _ } ->
          check "stops at the configured bound" true (cex.length < 400)
        | _ -> Alcotest.fail "expected divergence") ]
