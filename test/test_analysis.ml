(* Dynamic-analysis layer tests (PR 4): vector-clock algebra (qcheck laws),
   the engine observer hook, happens-before and lockset race detection on
   the races workload family (true positives with replayable schedules, no
   false positives on the synchronized twins), lock-order cycle prediction,
   and jobs=1 vs jobs=4 determinism of race reports and lock graphs. *)

open Fairmc_core
module A = Fairmc_analysis
module VC = Fairmc_analysis.Vclock
module AH = Analysis_hook
module W = Fairmc_workloads

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let base = { Search_config.default with livelock_bound = Some 2_000 }

let run ?(jobs = 1) analyses prog =
  Checker.check ~config:{ base with Search_config.jobs; analyses } prog

let race_of (r : Report.t) =
  match r.verdict with Report.Race { race; _ } -> Some race | _ -> None

(* ------------------------------------------------------------------ *)
(* Vector-clock laws.                                                  *)

let vc_gen =
  QCheck.Gen.(map VC.of_list (list_size (int_bound 6) (int_bound 4)))

let vc_arb = QCheck.make ~print:(Format.asprintf "%a" VC.pp) vc_gen

let vc_props =
  let open QCheck in
  [ Test.make ~name:"join is associative" ~count:300 (triple vc_arb vc_arb vc_arb)
      (fun (a, b, c) -> VC.equal (VC.join a (VC.join b c)) (VC.join (VC.join a b) c));
    Test.make ~name:"join is commutative" ~count:300 (pair vc_arb vc_arb)
      (fun (a, b) -> VC.equal (VC.join a b) (VC.join b a));
    Test.make ~name:"join is idempotent" ~count:300 vc_arb
      (fun a -> VC.equal (VC.join a a) a);
    Test.make ~name:"empty is the identity of join" ~count:300 vc_arb
      (fun a -> VC.equal (VC.join a VC.empty) a);
    Test.make ~name:"leq is a partial order (refl, antisym, trans)" ~count:300
      (triple vc_arb vc_arb vc_arb) (fun (a, b, c) ->
        VC.leq a a
        && ((not (VC.leq a b && VC.leq b a)) || VC.equal a b)
        && ((not (VC.leq a b && VC.leq b c)) || VC.leq a c));
    Test.make ~name:"join is the least upper bound" ~count:300 (pair vc_arb vc_arb)
      (fun (a, b) -> VC.leq a (VC.join a b) && VC.leq b (VC.join a b));
    Test.make ~name:"lt is a strict partial order" ~count:300
      (triple vc_arb vc_arb vc_arb) (fun (a, b, c) ->
        (not (VC.lt a a))
        && ((not (VC.lt a b)) || not (VC.lt b a))
        && ((not (VC.lt a b && VC.lt b c)) || VC.lt a c));
    Test.make ~name:"tick strictly increases its component" ~count:300
      (pair vc_arb (int_bound 6)) (fun (a, i) ->
        let t = VC.tick a i in
        VC.lt a t && VC.get t i = VC.get a i + 1) ]

(* ------------------------------------------------------------------ *)
(* Observer hook.                                                      *)

(* A trivial analysis that counts callbacks: checks the hook fires once per
   transition (stats.transitions counts exactly the observed steps) and that
   its counters reach the report's metrics snapshot. *)
let counting_analysis hits =
  { AH.name = "counting";
    create =
      (fun () ->
        { AH.exec_start = (fun _ -> ());
          observe = (fun ~tid:_ ~op:_ ~result:_ -> incr hits);
          first_race = (fun () -> None);
          result =
            (fun () ->
              { AH.first_race = None;
                lock_edges = [];
                counters = [ ("analysis/counting/hits", !hits) ] }) }) }

let observer_counts () =
  let hits = ref 0 in
  let r = run [ counting_analysis hits ] (W.Races.locked_counter ()) in
  check_str "verdict" "verified" (Report.verdict_key r.verdict);
  check_int "one callback per transition" r.stats.transitions !hits;
  check_int "analysis counters surface in metrics" !hits
    (match
       List.assoc_opt "analysis/counting/hits"
         (Fairmc_obs.Metrics.Snapshot.counters r.metrics)
     with
     | Some n -> n
     | None -> -1)

let observer_cleared () =
  (* After a search with analyses, a plain search must observe nothing. *)
  let hits = ref 0 in
  ignore (run [ counting_analysis hits ] (W.Races.locked_counter ()));
  let before = !hits in
  let r = run [] (W.Races.locked_counter ()) in
  check_str "verdict" "verified" (Report.verdict_key r.verdict);
  check_int "observer uninstalled after the search" before !hits

(* ------------------------------------------------------------------ *)
(* Race detection: true positives with replayable schedules.           *)

let hb_finds_race () =
  let prog = W.Races.unsync_counter () in
  let r = run [ A.Hb_race.analysis ] prog in
  match race_of r with
  | None -> Alcotest.fail "expected a race on the unsynchronized counter"
  | Some race ->
    check_str "detector" "hb" race.AH.detector;
    check_str "object" "counter" race.AH.obj_name;
    check "distinct threads" true (race.AH.a_tid <> race.AH.b_tid);
    check "strictly ordered steps" true (race.AH.a_step < race.AH.b_step);
    check "nonempty schedule" true (race.AH.decisions <> []);
    (* The schedule replays cleanly: no engine failure on the way (a race
       is not an assertion failure) and no exception. *)
    (match Search.replay prog race.AH.decisions (fun _ -> ()) with
     | Search.Replayed_no_failure -> ()
     | Search.Replayed_failure cex ->
       Alcotest.failf "race schedule replayed into an engine failure: %s" cex.rendered
     | Search.Replay_mismatch { step; tid } ->
       Alcotest.failf "race schedule did not apply: step %d, thread %d" step tid)

let hb_finds_dcl_race () =
  let r = run [ A.Hb_race.analysis ] (W.Races.dcl ()) in
  match race_of r with
  | None -> Alcotest.fail "expected a race in broken double-checked locking"
  | Some race -> check_str "detector" "hb" race.AH.detector

let lockset_finds_race () =
  let r = run [ A.Lockset.analysis ] (W.Races.unsync_counter ()) in
  match race_of r with
  | None -> Alcotest.fail "expected a lockset race on the unsynchronized counter"
  | Some race ->
    check_str "detector" "lockset" race.AH.detector;
    check_str "object" "counter" race.AH.obj_name

(* ------------------------------------------------------------------ *)
(* No false positives on the synchronized twins.                       *)

let race_free_programs () =
  [ W.Races.locked_counter ();
    W.Races.dcl_locked ();
    W.Races.ab_ba ();
    W.Dining.program ~n:2 W.Dining.Ordered;
    W.Dining.program ~n:3 W.Dining.Ordered ]

let hb_no_false_positives jobs () =
  List.iter
    (fun prog ->
      let r = run ~jobs [ A.Hb_race.analysis ] prog in
      check_str
        (Printf.sprintf "%s stays race-free (j=%d)" prog.Program.name jobs)
        "verified"
        (Report.verdict_key r.verdict))
    (race_free_programs ())

(* ------------------------------------------------------------------ *)
(* Lock-order graph.                                                   *)

let lock_graph_cycle () =
  let r = run [ A.Lock_graph.analysis ] (W.Races.ab_ba ()) in
  check_str "ab-ba itself verifies" "verified" (Report.verdict_key r.verdict);
  match r.analysis with
  | None -> Alcotest.fail "analysis results missing from the report"
  | Some a ->
    check_int "both orders recorded" 2 (List.length a.lock_order_edges);
    (match a.potential_deadlock_cycles with
     | [ cycle ] ->
       Alcotest.(check (list string))
         "the A/B cycle" [ "A"; "B" ]
         (List.map snd cycle)
     | cs -> Alcotest.failf "expected exactly one cycle, got %d" (List.length cs))

let lock_graph_clean () =
  (* Ordered fork acquisition: edges exist but no cycle. *)
  let r = run [ A.Lock_graph.analysis ] (W.Dining.program ~n:3 W.Dining.Ordered) in
  match r.analysis with
  | None -> Alcotest.fail "analysis results missing from the report"
  | Some a ->
    check "ordered acquisition has edges" true (a.lock_order_edges <> []);
    check_int "and no cycles" 0 (List.length a.potential_deadlock_cycles)

(* ------------------------------------------------------------------ *)
(* Parallel determinism.                                               *)

let same_race (a : AH.race) (b : AH.race) =
  a.detector = b.detector && a.obj_name = b.obj_name && a.a_tid = b.a_tid
  && a.a_step = b.a_step && a.b_tid = b.b_tid && a.b_step = b.b_step
  && a.decisions = b.decisions

let par_same_first_race () =
  List.iter
    (fun prog ->
      let seq = run ~jobs:1 [ A.Hb_race.analysis ] prog in
      let par = run ~jobs:4 [ A.Hb_race.analysis ] prog in
      match (race_of seq, race_of par) with
      | Some a, Some b ->
        check (prog.Program.name ^ ": identical first race") true (same_race a b)
      | _ -> Alcotest.failf "%s: race missing in one arm" prog.Program.name)
    [ W.Races.unsync_counter (); W.Races.dcl () ]

let edge_set (r : Report.t) =
  match r.analysis with
  | None -> []
  | Some a ->
    List.map (fun (e : AH.lock_edge) -> (e.e_from, e.e_to)) a.lock_order_edges

let par_same_lock_graph () =
  List.iter
    (fun prog ->
      let seq = run ~jobs:1 [ A.Lock_graph.analysis ] prog in
      let par = run ~jobs:4 [ A.Lock_graph.analysis ] prog in
      check (prog.Program.name ^ ": identical edge set") true
        (edge_set seq = edge_set par && edge_set seq <> []))
    [ W.Races.ab_ba (); W.Dining.program ~n:3 W.Dining.Ordered ]

(* ------------------------------------------------------------------ *)
(* Report plumbing.                                                    *)

let verdict_key_round_trip () =
  List.iter
    (fun (e : W.Registry.entry) ->
      check
        (Printf.sprintf "%s: expected %S is a verdict key" e.name e.expected)
        true
        (List.mem e.expected Report.verdict_keys))
    (W.Registry.all ())

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let race_report_fields () =
  let r = run [ A.Hb_race.analysis; A.Lock_graph.analysis ] (W.Races.unsync_counter ()) in
  check "race is an error verdict" true (Report.found_error r);
  check "cex is exposed uniformly" true (Report.cex r <> None);
  check_str "verdict key" "race" (Report.verdict_key r.verdict);
  let json = Fairmc_util.Json.to_string (Report.to_json ~program:"x" ~config:"y" r) in
  List.iter
    (fun needle -> check (needle ^ " in json") true (contains json needle))
    [ "fairmc-report/2"; "\"race\""; "counterexample"; "analysis" ]

let suite =
  [ Alcotest.test_case "observer fires once per transition" `Quick observer_counts;
    Alcotest.test_case "observer is uninstalled after the search" `Quick observer_cleared;
    Alcotest.test_case "hb: unsynchronized counter races" `Quick hb_finds_race;
    Alcotest.test_case "hb: broken DCL races" `Quick hb_finds_dcl_race;
    Alcotest.test_case "lockset: unsynchronized counter races" `Quick lockset_finds_race;
    Alcotest.test_case "hb: no false positives (jobs=1)" `Quick (hb_no_false_positives 1);
    Alcotest.test_case "hb: no false positives (jobs=4)" `Quick (hb_no_false_positives 4);
    Alcotest.test_case "lock graph: AB/BA cycle predicted" `Quick lock_graph_cycle;
    Alcotest.test_case "lock graph: ordered acquisition is clean" `Quick lock_graph_clean;
    Alcotest.test_case "jobs=1 and jobs=4 agree on the first race" `Quick
      par_same_first_race;
    Alcotest.test_case "jobs=1 and jobs=4 agree on the lock graph" `Quick
      par_same_lock_graph;
    Alcotest.test_case "registry expected verdicts are verdict keys" `Quick
      verdict_key_round_trip;
    Alcotest.test_case "race verdict: report and json plumbing" `Quick race_report_fields ]
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) vc_props
