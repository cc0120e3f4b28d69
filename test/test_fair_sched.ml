(* Tests for Algorithm 1 (the fair scheduler): initialization conventions,
   the paper's Figure 4 emulation step by step, the acyclicity invariant of
   Theorem 3, qcheck properties over random update sequences, and a
   differential check against the literal implementation in
   [Fair_sched_ref]. *)

module B = Fairmc_util.Bitset
module FS = Fairmc_core.Fair_sched
module Ref = Fair_sched_ref

let set = Alcotest.testable B.pp B.equal

let full n = B.full n

(* Random walks over scheduler updates, used by several properties. A step
   picks a schedulable thread, a yield flag, and enabled sets consistent
   with the pick. *)
let random_walk seed steps nthreads =
  let rng = Fairmc_util.Rng.make (Int64.of_int seed) in
  let fs = ref (FS.create ~nthreads ()) in
  (* [step] mutates in place, so snapshot each state with an explicit copy. *)
  let states = ref [ FS.copy !fs ] in
  for _ = 1 to steps do
    (* Random nonempty enabled set. *)
    let es = ref B.empty in
    while B.is_empty !es do
      es := B.empty;
      for t = 0 to nthreads - 1 do
        if Fairmc_util.Rng.bool rng then es := B.add t !es
      done
    done;
    let tset = FS.schedulable !fs ~enabled:!es in
    (* Theorem 3: nonempty enabled set implies nonempty schedulable set. *)
    assert (not (B.is_empty tset));
    let chosen = B.nth tset (Fairmc_util.Rng.int rng (B.cardinal tset)) in
    let yielded = Fairmc_util.Rng.bool rng in
    let es_after = ref B.empty in
    for t = 0 to nthreads - 1 do
      if Fairmc_util.Rng.bool rng then es_after := B.add t !es_after
    done;
    fs := FS.step !fs ~chosen ~yielded ~es_before:!es ~es_after:!es_after;
    states := FS.copy !fs :: !states
  done;
  !states

let unit_tests =
  [ Alcotest.test_case "initial windows per the paper" `Quick (fun () ->
        (* init: P = {}, E(u) = {}, D(u) = S(u) = Tid — so the first yield
           of any thread computes H = (E ∪ D) \ S = Tid \ Tid = {}. *)
        let fs = FS.create ~nthreads:3 () in
        Alcotest.(check (list (pair int int))) "P empty" [] (FS.priority_pairs fs);
        for t = 0 to 2 do
          let e, d, s = FS.sets fs ~tid:t in
          Alcotest.check set "E empty" B.empty e;
          Alcotest.check set "D = Tid" (full 3) d;
          Alcotest.check set "S = Tid" (full 3) s
        done);
    Alcotest.test_case "first yield leaves P unchanged" `Quick (fun () ->
        let fs = FS.create ~nthreads:2 () in
        let es = full 2 in
        let fs = FS.step fs ~chosen:1 ~yielded:true ~es_before:es ~es_after:es in
        Alcotest.(check (list (pair int int))) "P still empty" [] (FS.priority_pairs fs));
    Alcotest.test_case "Figure 4 emulation" `Quick (fun () ->
        (* The paper's emulation on the Figure 3 spin loop: scheduling u
           (thread 1) continuously. u's transitions: loop test (not a
           yield), then yield, repeatedly. After u's *second* yield the edge
           (u, t) must appear, forcing t. *)
        let es = full 2 in
        let fs = FS.create ~nthreads:2 () in
        (* u: while (x != 1)  — not a yield *)
        let fs = FS.step fs ~chosen:1 ~yielded:false ~es_before:es ~es_after:es in
        (* u: yield()  — first yield: window opens, P unchanged *)
        let fs = FS.step fs ~chosen:1 ~yielded:true ~es_before:es ~es_after:es in
        Alcotest.(check (list (pair int int))) "P empty after first yield" []
          (FS.priority_pairs fs);
        let e, d, s = FS.sets fs ~tid:1 in
        Alcotest.check set "E(u) = ES" es e;
        Alcotest.check set "D(u) = {}" B.empty d;
        Alcotest.check set "S(u) = {}" B.empty s;
        (* u: while (x != 1) again *)
        let fs = FS.step fs ~chosen:1 ~yielded:false ~es_before:es ~es_after:es in
        let _, _, s = FS.sets fs ~tid:1 in
        Alcotest.check set "S(u) = {u}" (B.singleton 1) s;
        (* u: yield() again — H = (E ∪ D) \ S = {t,u} \ {u} = {t} *)
        let fs = FS.step fs ~chosen:1 ~yielded:true ~es_before:es ~es_after:es in
        Alcotest.(check (list (pair int int))) "edge (u,t) added" [ (1, 0) ]
          (FS.priority_pairs fs);
        (* With both enabled, u is now blocked: T = {t}. *)
        Alcotest.check set "only t schedulable" (B.singleton 0)
          (FS.schedulable fs ~enabled:es);
        (* Scheduling t removes edges with sink t?  No — removes edges with
           sink t: (u,t) has sink t, so it is removed (line 13). *)
        let fs = FS.step fs ~chosen:0 ~yielded:false ~es_before:es ~es_after:es in
        Alcotest.(check (list (pair int int))) "edge removed once t runs" []
          (FS.priority_pairs fs));
    Alcotest.test_case "blocked thread schedulable once blocker disabled" `Quick (fun () ->
        let es = full 2 in
        let fs = FS.create ~nthreads:2 () in
        let fs = FS.step fs ~chosen:1 ~yielded:true ~es_before:es ~es_after:es in
        let fs = FS.step fs ~chosen:1 ~yielded:true ~es_before:es ~es_after:es in
        Alcotest.(check (list (pair int int))) "edge (1,0)" [ (1, 0) ] (FS.priority_pairs fs);
        (* If t (thread 0) becomes disabled, u may run again: the edge only
           constrains u while its sink is enabled. *)
        Alcotest.check set "u schedulable when t disabled" (B.singleton 1)
          (FS.schedulable fs ~enabled:(B.singleton 1)));
    Alcotest.test_case "disabling attributed to the executing thread" `Quick (fun () ->
        let es = full 2 in
        let fs = FS.create ~nthreads:2 () in
        (* Open windows for thread 0. *)
        let fs = FS.step fs ~chosen:0 ~yielded:true ~es_before:es ~es_after:es in
        (* Thread 0 disables thread 1 (lock acquisition). *)
        let fs = FS.step fs ~chosen:0 ~yielded:false ~es_before:es ~es_after:(B.singleton 0) in
        let _, d, _ = FS.sets fs ~tid:0 in
        Alcotest.check set "D(0) contains 1" (B.singleton 1) (B.inter d (B.singleton 1));
        (* At 0's next yield, H includes the disabled thread 1 even though it
           is not continuously enabled. *)
        let fs =
          FS.step fs ~chosen:0 ~yielded:true ~es_before:(B.singleton 0)
            ~es_after:(B.singleton 0)
        in
        Alcotest.(check (list (pair int int))) "edge (0,1)" [ (0, 1) ] (FS.priority_pairs fs));
    Alcotest.test_case "k-parameterization delays penalties" `Quick (fun () ->
        (* With k = 2, only every second yield updates P: the Figure 4
           sequence needs four yields instead of two. *)
        let es = full 2 in
        let fs = ref (FS.create ~nthreads:2 ~k:2 ()) in
        for _ = 1 to 3 do
          fs := FS.step !fs ~chosen:1 ~yielded:true ~es_before:es ~es_after:es
        done;
        Alcotest.(check (list (pair int int))) "no edge after 3 yields (k=2)" []
          (FS.priority_pairs !fs);
        fs := FS.step !fs ~chosen:1 ~yielded:true ~es_before:es ~es_after:es;
        Alcotest.(check (list (pair int int))) "edge after 4th yield" [ (1, 0) ]
          (FS.priority_pairs !fs));
    Alcotest.test_case "add_thread initializes a fresh window" `Quick (fun () ->
        let fs = FS.create ~nthreads:2 () in
        let fs = FS.add_thread fs in
        Alcotest.(check int) "three threads" 3 (FS.nthreads fs);
        let e, d, s = FS.sets fs ~tid:2 in
        Alcotest.check set "E empty" B.empty e;
        Alcotest.check set "D full" (full 3) d;
        Alcotest.check set "S full" (full 3) s;
        (* Its first yield adds nothing, like at init. *)
        let es = full 3 in
        let fs = FS.step fs ~chosen:2 ~yielded:true ~es_before:es ~es_after:es in
        Alcotest.(check (list (pair int int))) "P empty" [] (FS.priority_pairs fs));
    Alcotest.test_case "copy isolates in-place steps" `Quick (fun () ->
        let es = full 2 in
        let fs = FS.create ~nthreads:2 () in
        let snap = FS.copy fs in
        let fs = FS.step fs ~chosen:1 ~yielded:true ~es_before:es ~es_after:es in
        let fs = FS.step fs ~chosen:1 ~yielded:true ~es_before:es ~es_after:es in
        Alcotest.(check (list (pair int int))) "stepped has edge" [ (1, 0) ]
          (FS.priority_pairs fs);
        Alcotest.(check (list (pair int int))) "copy unaffected" []
          (FS.priority_pairs snap);
        let _, _, s = FS.sets snap ~tid:1 in
        Alcotest.check set "copy windows unaffected" (full 2) s);
    Alcotest.test_case "invalid arguments rejected" `Quick (fun () ->
        (try
           ignore (FS.create ~nthreads:2 ~k:0 ());
           Alcotest.fail "k=0 accepted"
         with Invalid_argument _ -> ());
        let fs = FS.create ~nthreads:2 () in
        try
          ignore (FS.step fs ~chosen:5 ~yielded:false ~es_before:B.empty ~es_after:B.empty);
          Alcotest.fail "bad tid accepted"
        with Invalid_argument _ -> ()) ]

(* Drive Fair_sched and the literal reference through one random update
   sequence and compare every observable after every step: threads spawned
   at random points, [es_before] sometimes unrelated to the previous
   [es_after], chosen threads sometimes outside the schedulable set. *)
let differential ~seed ~steps =
  let rng = Fairmc_util.Rng.make (Int64.of_int seed) in
  let rint b = Fairmc_util.Rng.int rng b and rbool () = Fairmc_util.Rng.bool rng in
  let max_n = 8 in
  let n0 = 1 + rint max_n and k = 1 + rint 3 and with_obs = rbool () in
  let fs = ref (FS.create ~nthreads:n0 ~k ()) and rf = ref (Ref.create ~nthreads:n0 ~k ()) in
  let obs = FS.obs_create () and robs = Ref.obs_create () in
  let subset n = B.unsafe_of_int (rint (1 lsl n)) in
  let es_prev = ref (subset n0) in
  let fail fmt = Printf.ksprintf (fun m -> QCheck.Test.fail_reportf "seed %d: %s" seed m) fmt in
  let str = B.to_int in
  let show_pairs l = String.concat " " (List.map (fun (x, y) -> Printf.sprintf "(%d,%d)" x y) l) in
  for i = 1 to steps do
    if FS.nthreads !fs < max_n && rint 12 = 0 then begin
      fs := FS.add_thread !fs;
      rf := Ref.add_thread !rf
    end;
    let n = FS.nthreads !fs in
    let es_before = if rint 4 = 0 then subset n else !es_prev in
    let ts = Ref.schedulable !rf ~enabled:es_before in
    let chosen = if B.is_empty ts || rint 4 = 0 then rint n else B.nth ts (rint (B.cardinal ts)) in
    let yielded = rint 3 = 0 in
    let es_after = subset n in
    es_prev := es_after;
    if with_obs then begin
      fs := FS.step ~obs !fs ~chosen ~yielded ~es_before ~es_after;
      rf := Ref.step ~obs:robs !rf ~chosen ~yielded ~es_before ~es_after
    end
    else begin
      fs := FS.step !fs ~chosen ~yielded ~es_before ~es_after;
      rf := Ref.step !rf ~chosen ~yielded ~es_before ~es_after
    end;
    for _ = 1 to 3 do
      let enabled = subset n in
      let a = FS.schedulable !fs ~enabled and b = Ref.schedulable !rf ~enabled in
      if not (B.equal a b) then
        fail "step %d: schedulable %#x: %#x vs %#x" i (str enabled) (str a) (str b)
    done;
    for tid = 0 to n - 1 do
      let e, d, s = FS.sets !fs ~tid and e', d', s' = Ref.sets !rf ~tid in
      if not (B.equal e e' && B.equal d d' && B.equal s s') then
        fail "step %d: sets of %d: (%#x %#x %#x) vs (%#x %#x %#x)" i tid (str e) (str d)
          (str s) (str e') (str d') (str s')
    done;
    let p = FS.priority_pairs !fs and p' = Ref.priority_pairs !rf in
    if p <> p' then fail "step %d: P %s vs %s" i (show_pairs p) (show_pairs p');
    if FS.edge_count !fs <> Ref.edge_count !rf then
      fail "step %d: edge_count %d vs %d" i (FS.edge_count !fs) (Ref.edge_count !rf);
    if FS.is_acyclic !fs <> Ref.is_acyclic !rf then fail "step %d: is_acyclic differs" i
  done;
  if
    (obs.edges_added, obs.edges_removed, obs.penalties)
    <> (robs.edges_added, robs.edges_removed, robs.penalties)
  then
    fail "obs (%d, %d, %d) vs (%d, %d, %d)" obs.edges_added obs.edges_removed
      obs.penalties robs.edges_added robs.edges_removed robs.penalties;
  true

let qprops =
  [ QCheck.Test.make ~name:"P stays acyclic (Theorem 3 invariant)" ~count:200
      QCheck.(pair small_int (int_range 2 6))
      (fun (seed, n) ->
        List.for_all FS.is_acyclic (random_walk seed 60 n));
    QCheck.Test.make ~name:"schedulable nonempty iff enabled nonempty (Theorem 3)" ~count:200
      QCheck.(pair small_int (int_range 2 6))
      (fun (seed, n) ->
        List.for_all
          (fun fs ->
            (* For every state on the walk and every nonempty enabled set,
               the schedulable set is nonempty. *)
            let rng = Fairmc_util.Rng.make (Int64.of_int (seed + 17)) in
            let ok = ref true in
            for _ = 1 to 10 do
              let es = ref B.empty in
              while B.is_empty !es do
                for t = 0 to n - 1 do
                  if Fairmc_util.Rng.bool rng then es := B.add t !es
                done
              done;
              if B.is_empty (FS.schedulable fs ~enabled:!es) then ok := false
            done;
            !ok)
          (random_walk seed 40 n));
    QCheck.Test.make ~name:"schedulable is a subset of enabled" ~count:100
      QCheck.(pair small_int (int_range 2 6))
      (fun (seed, n) ->
        List.for_all
          (fun fs -> B.subset (FS.schedulable fs ~enabled:(full n)) (full n))
          (random_walk seed 40 n));
    QCheck.Test.make ~name:"scheduling a thread clears edges into it" ~count:100
      QCheck.(pair small_int (int_range 2 5))
      (fun (seed, n) ->
        let states = random_walk seed 50 n in
        (* Reconstruct: after any step with chosen = c, no (x, c) edge may
           remain unless re-added by a later yield of x; we check the
           weaker, always-true invariant on the immediate successor by
           re-running a single controlled step. *)
        List.for_all
          (fun fs ->
            let es = full n in
            let fs' = FS.step (FS.copy fs) ~chosen:0 ~yielded:false ~es_before:es ~es_after:es in
            List.for_all (fun (_, y) -> y <> 0) (FS.priority_pairs fs'))
          states) ]

let capacity_tests =
  [ Alcotest.test_case "thread limit is the bitset capacity" `Quick (fun () ->
        (* Thread ids are bitset elements 0 .. max_capacity, like Engine's. *)
        let cap = B.max_capacity + 1 in
        let fs = FS.create ~nthreads:cap () in
        Alcotest.(check int) "created at capacity" cap (FS.nthreads fs);
        let es = full cap in
        let fs = FS.step fs ~chosen:(cap - 1) ~yielded:true ~es_before:es ~es_after:es in
        let fs = FS.step fs ~chosen:(cap - 1) ~yielded:true ~es_before:es ~es_after:es in
        Alcotest.(check int) "last thread penalized against all others" (cap - 1)
          (FS.edge_count fs);
        let grown = ref (FS.create ~nthreads:1 ()) in
        for _ = 2 to cap do
          grown := FS.add_thread !grown
        done;
        Alcotest.(check int) "grown to capacity" cap (FS.nthreads !grown);
        (try
           ignore (FS.add_thread !grown);
           Alcotest.fail "thread beyond capacity accepted"
         with Invalid_argument _ -> ());
        try
          ignore (FS.create ~nthreads:(cap + 1) ());
          Alcotest.fail "nthreads beyond capacity accepted"
        with Invalid_argument _ -> ()) ]

let differential_props =
  [ QCheck.Test.make ~name:"matches the literal Algorithm 1 step by step" ~count:2000
      QCheck.int
      (fun seed -> differential ~seed ~steps:80) ]

let suite =
  unit_tests
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qprops
  @ capacity_tests
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) differential_props
