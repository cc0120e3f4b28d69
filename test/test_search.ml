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

module B = Fairmc_util.Bitset

(* What the search loop keeps along a path: the scheduler's relation, edge
   count and windows, the budget, the last thread and its yield bit, and
   the yield and edge counts. *)
let loop_view ~fair ~budget ~last ~last_yielded ~yields ~(edges : Fair_sched.obs) =
  ( Fair_sched.priority_pairs fair,
    Fair_sched.edge_count fair,
    List.init (Fair_sched.nthreads fair) (fun tid ->
        let e, d, s = Fair_sched.sets fair ~tid in
        ((e :> int), (d :> int), (s :> int))),
    (budget, last, last_yielded, yields),
    (edges.edges_added, edges.edges_removed, edges.penalties) )

(* A seeded random path drawn from the schedulable set, stepped as the
   search loop steps it. Returns the run, each decision's preemption cost,
   and the loop's view and a copy of its state after each prefix (index i:
   after i steps). A step that fails ends the path without being
   counted. *)
let loop_path (cfg : Search_config.t) prog seed ~max =
  let rng = Fairmc_util.Rng.make (Int64.of_int seed) in
  let run = Engine.start prog in
  let fair = ref (Fair_sched.create ~nthreads:(Engine.nthreads run) ~k:cfg.fair_k ()) in
  let edges = Fair_sched.obs_create () in
  let budget = ref (match cfg.mode with Search_config.Context_bounded c -> c | _ -> max_int) in
  let last = ref (-1) and last_yielded = ref false and yields = ref 0 in
  let view () =
    ( loop_view ~fair:!fair ~budget:!budget ~last:!last ~last_yielded:!last_yielded
        ~yields:!yields ~edges,
      { Search.p_fair = Fair_sched.copy !fair; p_budget = !budget; p_last = !last;
        p_last_yielded = !last_yielded; p_yields = !yields;
        p_edges = { edges with Fair_sched.edges_added = edges.edges_added } } )
  in
  let views = ref [ view () ] and costs = ref [] in
  while
    Engine.failure run = None
    && (not (Engine.all_finished run))
    && (not (B.is_empty (Engine.enabled_set run)))
    && List.length !costs < max
  do
    let es = Engine.enabled_set run in
    let tset = if cfg.fair then Fair_sched.schedulable !fair ~enabled:es else es in
    let tid = B.nth tset (Fairmc_util.Rng.int rng (B.cardinal tset)) in
    let n = Engine.alternatives run tid in
    let alt = if n = 1 then 0 else Fairmc_util.Rng.int rng n in
    let cost =
      if tid <> !last && !last >= 0 && B.mem !last tset && not !last_yielded then 1 else 0
    in
    let yielded = Engine.would_yield run tid in
    let nth = Engine.nthreads run in
    Engine.step run ~tid ~alt;
    if Engine.failure run = None then begin
      for _ = nth + 1 to Engine.nthreads run do
        fair := Fair_sched.add_thread !fair
      done;
      if cfg.fair then
        fair :=
          Fair_sched.step ~obs:edges !fair ~chosen:tid ~yielded ~es_before:es
            ~es_after:(Engine.enabled_set run);
      budget := !budget - cost;
      last := tid;
      last_yielded := yielded;
      if yielded then incr yields;
      costs := cost :: !costs;
      views := view () :: !views
    end
  done;
  let views, states = List.split (List.rev !views) in
  (run, Array.of_list (List.rev !costs), Array.of_list views, Array.of_list states)

(* Full replay through the search loop: an observer must see every
   transition, so a run with an analysis never fast-forwards. *)
let replays_every_step : Analysis_hook.t =
  { Analysis_hook.name = "replay";
    create =
      (fun () ->
        { Analysis_hook.exec_start = ignore;
          observe = (fun ~tid:_ ~op:_ ~result:_ -> ());
          first_race = (fun () -> None);
          result =
            (fun () -> { Analysis_hook.first_race = None; lock_edges = []; counters = [] }) }) }

let fast_forward_tests =
  [ Alcotest.test_case "the state derived from a trace is the loop's, at every prefix" `Quick
      (fun () ->
        (* Each native registry program, seeded random fair paths: fair
           cb:2, fair DFS at k = 2, unfair cb:1. The trace is fast-forwarded
           along from its longest prefix down, each run adopting the one
           before's, and each prefix [i] is derived twice: from the initial
           state, and from the loop's state at an earlier step [j], at most
           15 below, as a path that starts from a frame's snapshot derives
           it. *)
        let configs =
          [| { dfs with mode = Search_config.Context_bounded 2 };
             { dfs with fair_k = 2 };
             { dfs with fair = false; mode = Search_config.Context_bounded 1 } |]
        in
        List.iter
          (fun (entry : W.Registry.entry) ->
            let prog = entry.program in
            List.iter
              (fun seed ->
                let cfg = configs.(seed mod Array.length configs) in
                let run, costs, views, states = loop_path cfg prog seed ~max:80 in
                let trace = ref (Engine.trace run) in
                Engine.stop run;
                let derive ?from i =
                  let run = Engine.start prog in
                  let p = Search.fast_forward ?from cfg run !trace i ~cost:(fun j -> costs.(j)) in
                  trace := Engine.trace run;
                  Engine.stop run;
                  loop_view ~fair:p.p_fair ~budget:p.p_budget ~last:p.p_last
                    ~last_yielded:p.p_last_yielded ~yields:p.p_yields ~edges:p.p_edges
                in
                for i = Array.length costs downto 0 do
                  if derive i <> views.(i) then
                    Alcotest.failf "%s, seed %d: the state derived at step %d differs"
                      entry.name seed i;
                  let j = i - ((i + seed) mod (min i 15 + 1)) in
                  let s = states.(j) in
                  let from =
                    { s with
                      Search.p_fair = Fair_sched.copy s.Search.p_fair;
                      p_edges = { s.p_edges with Fair_sched.edges_added = s.p_edges.edges_added } }
                  in
                  if derive ~from:(j, from) i <> views.(i) then
                    Alcotest.failf "%s, seed %d: the state derived at step %d from step %d differs"
                      entry.name seed i j
                done)
              [ 0; 1; 2; 3; 4; 5 ])
          (W.Registry.all ()));
    Alcotest.test_case "fast-forwarded searches report what full replays report" `Quick
      (fun () ->
        (* Same verdict and counterexample, stats (coverage included) and
           metric counters, replay and fresh steps included, on every native
           registry program. The full replay takes no step in place, so the
           in-place decisions (path ends, prunes, divergences classified in
           the hook) are held to the loop's too. *)
        let configs =
          [ { dfs with coverage = true; metrics = true; max_executions = Some 200 };
            { dfs with
              mode = Search_config.Context_bounded 2;
              sleep_sets = true;
              coverage = true;
              metrics = true;
              max_executions = Some 200 };
            { (Search_config.unfair_dfs ~depth_bound:12) with
              metrics = true;
              max_steps = 600;
              max_executions = Some 200 };
            { dfs with mode = Search_config.Random_walk 300; metrics = true };
            { dfs with livelock_bound = Some 300; metrics = true; max_executions = Some 200 } ]
        in
        List.iter
          (fun (entry : W.Registry.entry) ->
            List.iteri
              (fun k cfg ->
                let ff = Search.run cfg entry.program in
                let full =
                  Search.run { cfg with analyses = [ replays_every_step ] } entry.program
                in
                let what = Printf.sprintf "%s, config %d" entry.name k in
                check (what ^ ": verdict") true (ff.verdict = full.verdict);
                check (what ^ ": stats") true
                  (Test_checkpoint.strip_time ff.stats = Test_checkpoint.strip_time full.stats);
                Alcotest.(check (list (pair string int)))
                  (what ^ ": counters")
                  (Fairmc_obs.Metrics.Snapshot.counters full.metrics)
                  (Fairmc_obs.Metrics.Snapshot.counters ff.metrics))
              configs)
          (W.Registry.all ())) ]

(* One thread that chooses three times, two ways each; with [bad], the
   combination 1, 0, 1 fails. *)
let three_choices ~bad =
  Program.of_threads ~name:"three-choices" (fun () ->
      [ (fun () ->
          let a = Sync.choose 2 in
          let b = Sync.choose 2 in
          let c = Sync.choose 2 in
          if bad then Sync.check (not (a = 1 && b = 0 && c = 1)) "1, 0, 1") ])

let in_place_tests =
  [ Alcotest.test_case
      "a fresh transition that stays on its thread allocates at most 58 minor words" `Quick
      (fun () ->
        (* One thread, one path: every transition after the first is fresh
           and continues the thread before, so it is decided and taken
           inside the thread's [Sync.sched] call, with no park or resume
           (68.2 words when each one parked). *)
        let p =
          Program.of_threads ~name:"setter" (fun () ->
              let v = Sync.int_var 0 in
              [ (fun () ->
                  for i = 1 to 10_000 do
                    Sync.Svar.set v i
                  done) ])
        in
        let before = Gc.minor_words () in
        let r = Search.run Search_config.default p in
        let per = (Gc.minor_words () -. before) /. float_of_int r.stats.transitions in
        check "verified" true (r.verdict = Report.Verified);
        check_int "one path" 1 r.stats.executions;
        check_int "every write" 10_000 r.stats.transitions;
        check (Printf.sprintf "%.1f minor words per transition <= 58" per) true (per <= 58.));
    Alcotest.test_case "choices taken in place explore every combination" `Quick (fun () ->
        (* The search's hook is unset once a search is over: a finalizer
           unwound when its run is released must not call into it. *)
        let run cfg prog =
          let r = Search.run cfg prog in
          check "the hook is unset" true (Option.is_none Runtime.ctx.Runtime.take);
          r
        in
        let r = run dfs (three_choices ~bad:false) in
        check "verified" true (r.verdict = Report.Verified);
        check_int "2^3 executions" 8 r.stats.executions;
        let r = run dfs (three_choices ~bad:true) in
        let full = run { dfs with analyses = [ replays_every_step ] } (three_choices ~bad:true) in
        check "a safety violation" true
          (match r.verdict with Report.Safety_violation _ -> true | _ -> false);
        check "the full replay's counterexample" true (r.verdict = full.verdict);
        Alcotest.(check (option int))
          "the full replay's execution" full.stats.first_error_execution
          r.stats.first_error_execution;
        check_int "as many executions" full.stats.executions r.stats.executions) ]

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
  @ fast_forward_tests @ in_place_tests
