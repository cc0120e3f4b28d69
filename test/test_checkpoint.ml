(* Durable-session tests: JSON codec round-trips, resume validation,
   interrupted-then-resumed equality with uninterrupted runs (the
   determinism contract of DESIGN.md, "Durable sessions"), graceful
   mid-path interruption, and the satellite determinism fixes
   (good-samaritan culprit tie-break, explicit replay mismatches). *)

open Fairmc_core
module W = Fairmc_workloads
module CK = Checkpoint
module AH = Analysis_hook
module B = Fairmc_util.Bitset
module R = Fairmc_util.Rng
module Json = Fairmc_util.Json
module MS = Fairmc_obs.Metrics.Snapshot

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Generators: pseudo-random checkpoint values derived from a seed.    *)

let gen_opt rng f = if R.bool rng then Some (f rng) else None

let gen_stats rng =
  { Report.executions = R.int rng 100_000;
    transitions = R.int rng 1_000_000;
    states = R.int rng 10_000;
    nonterminating = R.int rng 100;
    depth_bound_hits = R.int rng 100;
    sleep_set_prunes = R.int rng 100;
    yields = R.int rng 10_000;
    max_depth = R.int rng 500;
    (* Eighths: finite and exactly representable, so JSON round-trips. *)
    elapsed = float_of_int (R.int rng 1024) /. 8.;
    first_error_execution = gen_opt rng (fun r -> R.int r 1000);
    first_error_time = gen_opt rng (fun r -> float_of_int (R.int r 256) /. 8.);
    sync_ops_per_exec = R.int rng 64;
    max_threads = R.int rng 16;
    search_elapsed = float_of_int (R.int rng 1024) /. 8.;
    probe_mass = R.int rng 1_000_000;
    path_digest = R.int rng (1 lsl 61) }

let gen_metrics rng =
  MS.of_entries
    (List.concat
       [ (if R.bool rng then [ ("search/steps/fresh", MS.Counter (R.int rng 100_000)) ]
          else []);
         (if R.bool rng then [ ("fair/p/peak", MS.Gauge (R.int rng 64)) ] else []);
         (if R.bool rng then
            [ ( "search/path_len",
                MS.Histogram
                  { MS.count = R.int rng 100;
                    sum = R.int rng 10_000;
                    max = R.int rng 512;
                    buckets = [ (0, R.int rng 5); (3, 1 + R.int rng 7) ] } ) ]
          else []) ])

let gen_states rng = List.init (R.int rng 5) (fun _ -> R.next_int64 rng)

let gen_edges rng =
  List.init (R.int rng 3) (fun i ->
      { AH.e_from = i;
        e_from_name = Printf.sprintf "lock%d" i;
        e_to = i + 1;
        e_to_name = Printf.sprintf "lock%d" (i + 1) })

let gen_decision rng = { CK.c_tid = R.int rng 8; c_alt = R.int rng 4; c_cost = R.int rng 3 }

let gen_frame rng =
  let c_rest = List.init (R.int rng 3) (fun _ -> gen_decision rng) in
  { CK.c_chosen = gen_decision rng;
    c_rest;
    c_sleep = B.unsafe_of_int (R.int rng 256);
    c_width = 1 + List.length c_rest + R.int rng 2 }

let gen_part rng =
  { CK.p_stats = gen_stats rng;
    p_metrics = gen_metrics rng;
    p_states = gen_states rng;
    p_edges = gen_edges rng }

let gen_item rng =
  if R.bool rng then CK.Cursor (Array.init (R.int rng 6) (fun _ -> gen_frame rng))
  else
    let lo = R.int rng 1000 in
    CK.Range (lo, lo + 1 + R.int rng 1000)

let gen_payload rng =
  { CK.regions =
      List.init (R.int rng 5) (fun _ ->
          if R.bool rng then CK.Done (gen_part rng) else CK.Open (gen_item rng));
    elapsed = float_of_int (R.int rng 1024) /. 8.;
    complete = R.bool rng }

let gen_t seed =
  let rng = R.make (Int64.of_int seed) in
  { CK.fingerprint = "fp-" ^ string_of_int seed; payload = gen_payload rng }

(* Structural equality; metrics snapshots are compared by entry list. *)
let eq_metrics a b = MS.entries a = MS.entries b

let eq_region a b =
  match (a, b) with
  | CK.Done x, CK.Done y ->
    x.CK.p_stats = y.CK.p_stats
    && eq_metrics x.CK.p_metrics y.CK.p_metrics
    && x.CK.p_states = y.CK.p_states
    && x.CK.p_edges = y.CK.p_edges
  | CK.Open x, CK.Open y -> x = y
  | _ -> false

let eq_t a b =
  a.CK.fingerprint = b.CK.fingerprint
  && List.equal eq_region a.CK.payload.CK.regions b.CK.payload.CK.regions
  && a.CK.payload.CK.elapsed = b.CK.payload.CK.elapsed
  && a.CK.payload.CK.complete = b.CK.payload.CK.complete

(* The executions of a payload's done regions. *)
let done_executions (p : CK.payload) =
  List.fold_left
    (fun n -> function CK.Done d -> n + d.CK.p_stats.Report.executions | CK.Open _ -> n)
    0 p.CK.regions

(* ------------------------------------------------------------------ *)
(* Interrupted-then-resumed equality harness.                          *)

let strip_time (s : Report.stats) =
  { s with Report.elapsed = 0.; search_elapsed = 0.; first_error_time = None }

let base =
  { Search_config.default with
    livelock_bound = Some 2_000;
    coverage = true;
    metrics = true }

let counters = Alcotest.(list (pair string int))

(* A resumed session re-executes its checkpointed stack once from the
   initial state where the uninterrupted run restored states on it: only
   the sum of replayed and restored prefix steps is session-invariant. *)
let prefix_steps_folded snap =
  let prefix = ref 0 in
  let rest =
    List.filter
      (fun (name, v) ->
        if name = "search/steps/replay" || name = "search/steps/restored" then begin
          prefix := !prefix + v;
          false
        end
        else true)
      (MS.counters snap)
  in
  ("search/steps/prefix", !prefix) :: rest

(* Run [cfg] uninterrupted; run it again with [max_executions = cut] and a
   checkpoint; resume; assert verdict, stats and metric counters all match
   the uninterrupted run. Returns both reports for extra assertions. *)
let resume_equal ?(runner = fun ?resume config p -> Checker.check ~config ?resume p) cfg
    prog ~cut =
  let full = runner cfg prog in
  (* Clamp below the uninterrupted total so the cut genuinely interrupts. *)
  let cut = max 1 (min cut (full.Report.stats.Report.executions - 1)) in
  let file = Filename.temp_file "fairmc" ".ckpt" in
  let cfg_cut =
    { cfg with
      Search_config.max_executions = Some cut;
      checkpoint = Some file;
      checkpoint_interval = 0. }
  in
  let partial = runner cfg_cut prog in
  check "interrupted run stopped at the limit" true
    (partial.Report.verdict = Report.Limits_reached);
  let resumed =
    match CK.load file with
    | Error e -> Alcotest.fail e
    | Ok ck ->
      (match CK.plan_resume ck cfg ~program:prog.Program.name with
       | Error e -> Alcotest.fail e
       | Ok payload -> runner ~resume:payload cfg prog)
  in
  Sys.remove file;
  check "same verdict" true (resumed.Report.verdict = full.Report.verdict);
  check "same stats" true
    (strip_time resumed.Report.stats = strip_time full.Report.stats);
  Alcotest.check counters "same metric counters"
    (prefix_steps_folded full.Report.metrics)
    (prefix_steps_folded resumed.Report.metrics);
  (full, resumed)

(* ------------------------------------------------------------------ *)

let qprops =
  [ QCheck.Test.make ~name:"JSON codec round-trips every payload kind" ~count:300
      QCheck.small_int (fun seed ->
        let t = gen_t seed in
        let j = CK.to_json t in
        match CK.of_json j with
        | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e
        | Ok t' -> eq_t t t' && Json.equal (CK.to_json t') j) ]

let unit_tests =
  [ Alcotest.test_case "save is atomic and load round-trips" `Quick (fun () ->
        let t = gen_t 42 in
        let file = Filename.temp_file "fairmc" ".ckpt" in
        CK.save file t;
        check "no temp file left behind" false (Sys.file_exists (file ^ ".tmp"));
        (match CK.load file with
         | Ok t' -> check "loaded value equals saved" true (eq_t t t')
         | Error e -> Alcotest.fail e);
        Sys.remove file);
    Alcotest.test_case "load rejects missing and corrupt files" `Quick (fun () ->
        check "missing file" true
          (match CK.load "/nonexistent/fairmc.ckpt" with Error _ -> true | Ok _ -> false);
        let file = Filename.temp_file "fairmc" ".ckpt" in
        Out_channel.with_open_bin file (fun oc -> output_string oc "{not json");
        check "corrupt file" true
          (match CK.load file with Error _ -> true | Ok _ -> false);
        Sys.remove file);
    Alcotest.test_case "plan_resume validates fingerprint and completion" `Quick
      (fun () ->
        let cfg = base in
        let open_ = { CK.regions = [ CK.Open (CK.Cursor [||]) ]; elapsed = 0.; complete = false } in
        let ok_t = { CK.fingerprint = CK.fingerprint cfg ~program:"p"; payload = open_ } in
        check "matching fingerprint resumes" true
          (match CK.plan_resume ok_t cfg ~program:"p" with Ok _ -> true | Error _ -> false);
        (* Budgets are deliberately outside the fingerprint: a resume may
           extend them. *)
        check "budget changes still resume" true
          (match
             CK.plan_resume ok_t
               { cfg with Search_config.max_executions = Some 5; time_limit = Some 1. }
               ~program:"p"
           with
           | Ok _ -> true
           | Error _ -> false);
        check "different program refuses" true
          (match CK.plan_resume ok_t cfg ~program:"q" with Error _ -> true | Ok _ -> false);
        check "different seed refuses" true
          (match
             CK.plan_resume ok_t { cfg with Search_config.seed = 999L } ~program:"p"
           with
           | Error _ -> true
           | Ok _ -> false);
        let done_t = { ok_t with CK.payload = { open_ with CK.complete = true } } in
        check "completed checkpoint refuses" true
          (match CK.plan_resume done_t cfg ~program:"p" with Error _ -> true | Ok _ -> false);
        let ranges_t =
          { ok_t with CK.payload = { open_ with CK.regions = [ CK.Open (CK.Range (0, 5)) ] } }
        in
        check "work items of another mode refuse" true
          (match CK.plan_resume ranges_t cfg ~program:"p" with Error _ -> true | Ok _ -> false));
    Alcotest.test_case "a checkpoint resumes at another fan-out" `Quick (fun () ->
        (* One payload for every fan-out: a sequential cut resumes on two
           workers, a cut on two workers resumes sequentially. *)
        let prog = W.Dining.program ~n:3 W.Dining.Ordered in
        let at jobs ?resume (cfg : Search_config.t) p =
          Checker.check ~config:{ cfg with Search_config.jobs } ?resume p
        in
        let run_at ~cut_jobs ~resume_jobs ?resume config p =
          match resume with
          | None -> at cut_jobs config p
          | Some _ -> at resume_jobs ?resume config p
        in
        ignore (resume_equal ~runner:(run_at ~cut_jobs:1 ~resume_jobs:2) base prog ~cut:150);
        ignore (resume_equal ~runner:(run_at ~cut_jobs:2 ~resume_jobs:1) base prog ~cut:150));
    Alcotest.test_case "interrupted-then-resumed DFS equals uninterrupted (jobs=1)"
      `Quick (fun () ->
        let prog = W.Litmus.two_step_threads ~nthreads:2 ~steps:4 in
        ignore (resume_equal base prog ~cut:20);
        let dining = W.Dining.coverage_program ~n:2 in
        ignore (resume_equal base dining ~cut:50));
    Alcotest.test_case "interrupted-then-resumed DFS equals uninterrupted (jobs=4)"
      `Quick (fun () ->
        let prog = W.Dining.program ~n:3 W.Dining.Ordered in
        ignore (resume_equal { base with Search_config.jobs = 4 } prog ~cut:400));
    Alcotest.test_case "a chain of interruptions still converges" `Quick (fun () ->
        (* Cut twice at different points; each resume extends the budget. *)
        let prog = W.Litmus.two_step_threads ~nthreads:2 ~steps:4 in
        let full = Search.run base prog in
        let file = Filename.temp_file "fairmc" ".ckpt" in
        let with_ck cfg =
          { cfg with
            Search_config.checkpoint = Some file;
            checkpoint_interval = 0. }
        in
        let run_cut cut resume =
          Checker.check ?resume
            ~config:(with_ck { base with Search_config.max_executions = Some cut })
            prog
        in
        let payload cfg =
          match CK.load file with
          | Error e -> Alcotest.fail e
          | Ok ck ->
            (match CK.plan_resume ck cfg ~program:prog.Program.name with
             | Ok p -> p
             | Error e -> Alcotest.fail e)
        in
        let r1 = run_cut 11 None in
        check "first leg limited" true (r1.Report.verdict = Report.Limits_reached);
        let r2 = run_cut 33 (Some (payload { base with Search_config.max_executions = Some 33 })) in
        check "second leg limited" true (r2.Report.verdict = Report.Limits_reached);
        check_int "second leg reports cumulative executions" 33
          r2.Report.stats.Report.executions;
        let final = Checker.check ~config:base ~resume:(payload base) prog in
        Sys.remove file;
        check "same verdict as uninterrupted" true
          (final.Report.verdict = full.Report.verdict);
        check "same stats as uninterrupted" true
          (strip_time final.Report.stats = strip_time full.Report.stats));
    Alcotest.test_case "mid-path interrupt resumes exactly" `Quick (fun () ->
        (* Interrupt from inside a path, not at a boundary: the checkpoint
           must exclude the partial path and the resume must re-run it
           fully. The supervisor ticks once before its first item, then the
           search polls at every path start and every 256 steps, and every
           path of this program runs 301 steps, so a reporter that emits at
           every tick ticks alternately at a path start and at step 255 of
           that path: tick 15 lands inside the 7th path. *)
        let prog =
          Program.of_threads ~name:"long-paths" @@ fun () ->
          let a = Sync.int_var ~name:"a" 0 and b = Sync.int_var ~name:"b" 0 in
          [ (fun () ->
              for i = 1 to 300 do
                Sync.Svar.set a i
              done);
            (fun () -> Sync.Svar.set b 1) ]
        in
        let full = Search.run base prog in
        let file = Filename.temp_file "fairmc" ".ckpt" in
        let ticks = ref 0 in
        let cut =
          { base with
            Search_config.progress =
              Some
                (Fairmc_obs.Progress.create ~interval:0.
                   ~sinks:
                     [ (fun _ ->
                         incr ticks;
                         if !ticks = 15 then CK.request_interrupt ()) ]
                   ());
            checkpoint = Some file;
            checkpoint_interval = 0. }
        in
        let partial =
          Fun.protect ~finally:CK.clear_interrupt (fun () -> Checker.check ~config:cut prog)
        in
        check "interrupt stopped the search" true
          (partial.Report.verdict = Report.Limits_reached);
        check "something was left to do" true
          (partial.Report.stats.Report.executions < full.Report.stats.Report.executions);
        let sq =
          match CK.load file with
          | Error e -> Alcotest.fail e
          | Ok ck ->
            (match CK.plan_resume ck base ~program:prog.Program.name with
             | Ok p -> p
             | Error e -> Alcotest.fail e)
        in
        (* The partial report counts the cut path; the checkpoint, taken at
           that path's start, does not. *)
        check_int "the interrupt landed inside the 7th path" 7
          partial.Report.stats.Report.executions;
        check_int "the checkpoint excludes the cut path" 6 (done_executions sq);
        let resumed = Checker.check ~config:base ~resume:sq prog in
        Sys.remove file;
        check "same verdict" true (resumed.Report.verdict = full.Report.verdict);
        check "same stats" true
          (strip_time resumed.Report.stats = strip_time full.Report.stats);
        Alcotest.check counters "same metric counters"
          (MS.counters full.Report.metrics)
          (MS.counters resumed.Report.metrics));
    Alcotest.test_case "resume finds the same counterexample" `Quick (fun () ->
        let prog = W.Litmus.race_assert () in
        let full = Search.run base prog in
        let e =
          match full.Report.stats.Report.first_error_execution with
          | Some e -> e
          | None -> Alcotest.fail "expected an error in race_assert"
        in
        check "error is not on the first execution" true (e >= 2);
        let file = Filename.temp_file "fairmc" ".ckpt" in
        let cut =
          { base with
            Search_config.max_executions = Some (e - 1);
            checkpoint = Some file;
            checkpoint_interval = 0. }
        in
        let partial = Checker.check ~config:cut prog in
        check "stopped one execution short of the error" true
          (partial.Report.verdict = Report.Limits_reached);
        let resumed =
          match CK.load file with
          | Error err -> Alcotest.fail err
          | Ok ck ->
            (match CK.plan_resume ck base ~program:prog.Program.name with
             | Ok p -> Checker.check ~config:base ~resume:p prog
             | Error err -> Alcotest.fail err)
        in
        Sys.remove file;
        (match (full.Report.verdict, resumed.Report.verdict) with
         | ( Report.Safety_violation { cex = a; tid = ta; _ },
             Report.Safety_violation { cex = b; tid = tb; _ } ) ->
           check_int "same thread" ta tb;
           check "same schedule" true (a.Report.decisions = b.Report.decisions)
         | _ -> Alcotest.fail "expected the same safety violation");
        check_int "first error lands on the same global execution" e
          (Option.get resumed.Report.stats.Report.first_error_execution));
    Alcotest.test_case "sampling resumes by remaining budget" `Quick (fun () ->
        let prog = W.Litmus.two_step_threads ~nthreads:2 ~steps:3 in
        let cfg = { base with Search_config.mode = Search_config.Random_walk 40 } in
        let full = Search.run cfg prog in
        let file = Filename.temp_file "fairmc" ".ckpt" in
        let cut =
          { cfg with
            Search_config.max_executions = Some 15;
            checkpoint = Some file;
            checkpoint_interval = 0. }
        in
        let partial = Checker.check ~config:cut prog in
        check "cut run limited" true (partial.Report.verdict = Report.Limits_reached);
        let resumed =
          match CK.load file with
          | Error e -> Alcotest.fail e
          | Ok ck ->
            (match CK.plan_resume ck cfg ~program:prog.Program.name with
             | Ok p -> Checker.check ~config:cfg ~resume:p prog
             | Error e -> Alcotest.fail e)
        in
        Sys.remove file;
        (* Execution i draws from (seed, i), so the resume continues
           exactly: even the sampled statistics match the uninterrupted
           run. *)
        check "same verdict" true (resumed.Report.verdict = full.Report.verdict);
        check "same stats" true
          (strip_time resumed.Report.stats = strip_time full.Report.stats));
    Alcotest.test_case "parallel sampling resumes by remaining budget" `Quick (fun () ->
        (* Execution i draws from (seed, i) whichever item runs it: the
           checkpoint records the executions explored and the ranges left,
           the resume runs the rest at another fan-out with the count raised
           from 30 to 40 (prior paths reweighed to 1/40), and the merged
           report is the uninterrupted one, which is the sequential one. *)
        let prog = W.Litmus.two_step_threads ~nthreads:2 ~steps:3 in
        let cfg = { base with Search_config.mode = Search_config.Random_walk 40 } in
        let full = Search.run cfg prog in
        let file = Filename.temp_file "fairmc" ".ckpt" in
        let cut =
          { cfg with
            Search_config.mode = Search_config.Random_walk 30;
            jobs = 4;
            max_executions = Some 15;
            checkpoint = Some file;
            checkpoint_interval = 0. }
        in
        let partial = Checker.check ~config:cut prog in
        check "cut run limited" true (partial.Report.verdict = Report.Limits_reached);
        let resumed =
          match CK.load file with
          | Error e -> Alcotest.fail e
          | Ok ck ->
            (match CK.plan_resume ck cfg ~program:prog.Program.name with
             | Ok payload ->
               let recorded = done_executions payload in
               (* Each worker may finish the path it is on when the
                  budget runs out, so more than 15 may be recorded. *)
               check "some executions, not all, were recorded" true
                 (recorded > 0 && recorded < 30);
               Checker.check ~config:{ cfg with Search_config.jobs = 2 } ~resume:payload prog
             | Error e -> Alcotest.fail e)
        in
        Sys.remove file;
        check "same verdict" true (resumed.Report.verdict = full.Report.verdict);
        check "same stats" true
          (strip_time resumed.Report.stats = strip_time full.Report.stats);
        Alcotest.check counters "same metric counters"
          (prefix_steps_folded full.Report.metrics)
          (prefix_steps_folded resumed.Report.metrics));
    Alcotest.test_case "parallel sampling cut by the time limit resumes exactly" `Quick
      (fun () ->
        (* Paths of 3,000 steps, polled every 256: the deadline stops each
           worker inside a path, and at jobs=2 a random:16 range is one
           execution, so the stopped path is its range's last. That range
           counts the partial path, but it did not finish: the checkpoint
           must leave it to the resume. (No livelock bound: each thread
           runs 1,500 steps without a yield.) *)
        let prog = W.Litmus.two_step_threads ~nthreads:2 ~steps:1_500 in
        let cfg =
          { base with
            Search_config.mode = Search_config.Random_walk 16;
            livelock_bound = None }
        in
        let full = Search.run cfg prog in
        let file = Filename.temp_file "fairmc" ".ckpt" in
        let cut =
          { cfg with
            Search_config.jobs = 2;
            time_limit = Some 0.02;
            checkpoint = Some file;
            checkpoint_interval = 0. }
        in
        let partial = Checker.check ~config:cut prog in
        check "cut run limited" true (partial.Report.verdict = Report.Limits_reached);
        let resumed =
          match CK.load file with
          | Error e -> Alcotest.fail e
          | Ok ck ->
            (match CK.plan_resume ck cfg ~program:prog.Program.name with
             | Ok payload ->
               Checker.check ~config:{ cfg with Search_config.jobs = 2 } ~resume:payload prog
             | Error e -> Alcotest.fail e)
        in
        Sys.remove file;
        check "same verdict" true (resumed.Report.verdict = full.Report.verdict);
        check "same stats" true
          (strip_time resumed.Report.stats = strip_time full.Report.stats);
        Alcotest.check counters "same metric counters"
          (prefix_steps_folded full.Report.metrics)
          (prefix_steps_folded resumed.Report.metrics));
    Alcotest.test_case "good-samaritan culprit tie-break is deterministic" `Quick
      (fun () ->
        (* Non-yielders dominate yielders; then occurrence counts; then the
           lowest tid — never hash-table iteration order. *)
        check_int "lowest tid wins an exact tie" 1
          (Search.good_samaritan_culprit [ (2, 5, false); (1, 5, false) ]);
        check_int "order of entries is irrelevant" 1
          (Search.good_samaritan_culprit [ (1, 5, false); (2, 5, false) ]);
        check_int "a non-yielder beats a busier yielder" 3
          (Search.good_samaritan_culprit [ (0, 9, true); (3, 2, false) ]);
        check_int "more occurrences win within a class" 4
          (Search.good_samaritan_culprit [ (4, 7, true); (5, 3, true) ]);
        check_int "yielder tie-break also picks the lowest tid" 0
          (Search.good_samaritan_culprit [ (1, 4, true); (0, 4, true) ]));
    Alcotest.test_case "replay reports mismatches explicitly" `Quick (fun () ->
        let prog = W.Litmus.two_step_threads ~nthreads:2 ~steps:2 in
        (* Thread 0 has only two steps; the third (0,0) decision cannot
           apply and must be reported with its position, not swallowed. *)
        match Search.replay prog [ (0, 0); (0, 0); (0, 0) ] (fun _ -> ()) with
        | Search.Replay_mismatch { step; tid } ->
          check_int "mismatching thread" 0 tid;
          check_int "mismatching step" 2 step
        | Search.Replayed_failure _ -> Alcotest.fail "unexpected failure"
        | Search.Replayed_no_failure -> Alcotest.fail "mismatch was swallowed");
    Alcotest.test_case "replay reports decisions outside the program as mismatches" `Quick
      (fun () ->
        (* A hand-edited or corrupt repro must not crash the replay: no such
           thread, or an alternative the operation does not offer. *)
        let chooser =
          Program.of_threads ~name:"chooser" (fun () ->
              [ (fun () -> ignore (Sync.choose 2)); (fun () -> Sync.yield ()) ])
        in
        List.iter
          (fun (what, prog, decisions, want_step, want_tid) ->
            match Search.replay prog decisions (fun _ -> ()) with
            | Search.Replay_mismatch { step; tid } ->
              check_int (what ^ ": step") want_step step;
              check_int (what ^ ": thread") want_tid tid
            | Search.Replayed_failure _ | Search.Replayed_no_failure ->
              Alcotest.failf "%s: not reported as a mismatch" what)
          [ ("thread 7", W.Litmus.race_assert (), [ (0, 0); (0, 0); (7, 0); (0, 0) ], 2, 7);
            ("thread -1", W.Litmus.race_assert (), [ (-1, 0) ], 0, -1);
            ("choose(2) alternative 5", chooser, [ (0, 5) ], 0, 0);
            ("negative alternative", chooser, [ (0, -1) ], 0, 0);
            ("alternative on a yield", chooser, [ (0, 1); (1, 1) ], 1, 1) ]) ]

(* ------------------------------------------------------------------ *)
(* Fingerprints from before the config codec, and byte fuzz.           *)

let codec_tests =
  [ Alcotest.test_case "a checkpoint from before the config codec is refused cleanly"
      `Quick (fun () ->
        (* The hand-kept fingerprint format, with its interp entry. *)
        let legacy =
          "prog=p;mode=dfs;fair=y;k=1;db=-;tail=y;max_steps=20000;livelock=2000;\
           window=500;seed=24301;sleep=n;cov=y;metrics=y;analyses=;interp=vm;spor=y"
        in
        let t =
          { CK.fingerprint = legacy;
            payload = { CK.regions = [ CK.Open (CK.Cursor [||]) ]; elapsed = 0.; complete = false } }
        in
        match CK.plan_resume t base ~program:"p" with
        | Error e ->
          check "a fingerprint mismatch" true
            (String.starts_with ~prefix:"config fingerprint mismatch" e)
        | Ok _ -> Alcotest.fail "a legacy checkpoint resumed") ]

let fuzz_props =
  (* One document with every region kind, then generated ones. *)
  let every_kind =
    let rng = R.make 11L in
    { (gen_t 0) with
      CK.payload =
        { (gen_payload rng) with
          CK.regions =
            [ CK.Done (gen_part rng); CK.Open (CK.Cursor [| gen_frame rng; gen_frame rng |]);
              CK.Open (CK.Range (3, 9)) ] } }
  in
  let docs = CK.to_json every_kind :: List.init 9 (fun seed -> CK.to_json (gen_t seed)) in
  let decode_text s = match Json.of_string s with Ok j -> ignore (CK.of_json j) | Error _ -> () in
  [ QCheck.Test.make ~count:500 ~name:"decoder: random and mutated text fails cleanly"
      (QCheck.make ~print:String.escaped (Test_obs.text_gen docs))
      (Test_obs.decodes_cleanly decode_text);
    QCheck.Test.make ~count:500 ~name:"decoder: mutated documents fail cleanly"
      (QCheck.make ~print:Json.to_string (Test_obs.mutated_gen docs))
      (Test_obs.decodes_cleanly CK.of_json) ]

(* ------------------------------------------------------------------ *)
(* A budget-cut parallel run and the error it did not reach            *)

let budget_tests =
  [ Alcotest.test_case "a budget cut before the first error reports limits at -j 2" `Quick
      (fun () ->
        (* wsq-1s-bug1 at cb:2 first fails on execution 301. Cut at 250, a
           worker may still meet the error in a region after one that is
           not explored: the run reports limits reached, keeps that region
           open, and its checkpoint, resumed without a budget, reaches the
           sequential error. *)
        let prog = (Option.get (W.Registry.find "wsq-1s-bug1")).W.Registry.program in
        let cfg = { Search_config.default with mode = Search_config.Context_bounded 2 } in
        let full = Search.run cfg prog in
        Alcotest.(check (option int))
          "the sequential first error" (Some 301) full.Report.stats.Report.first_error_execution;
        for _ = 1 to 5 do
          let file = Filename.temp_file "fairmc" ".ckpt" in
          let cut =
            Checker.check
              ~config:
                { cfg with
                  Search_config.jobs = 2;
                  max_executions = Some 250;
                  checkpoint = Some file;
                  checkpoint_interval = 0. }
              prog
          in
          check "the cut run reports limits reached" true
            (cut.Report.verdict = Report.Limits_reached);
          (match CK.load file with
           | Ok c ->
             let rec coalesced = function
               | CK.Done _ :: (CK.Done _ :: _) -> false
               | _ :: rest -> coalesced rest
               | [] -> true
             in
             check "no two done regions side by side" true (coalesced c.CK.payload.CK.regions);
             check "open regions left" true
               (List.exists (function CK.Open _ -> true | CK.Done _ -> false)
                  c.CK.payload.CK.regions)
           | Error e -> Alcotest.fail e);
          let resumed =
            match Result.bind (CK.load file) (fun c -> CK.plan_resume c cfg ~program:prog.Program.name) with
            | Ok resume -> Checker.check ~config:{ cfg with Search_config.jobs = 2 } ~resume prog
            | Error e -> Alcotest.fail e
          in
          Sys.remove file;
          check "the resume finds the sequential error" true
            (resumed.Report.verdict = full.Report.verdict);
          check "with the sequential stats" true
            (strip_time resumed.Report.stats = strip_time full.Report.stats)
        done);
    Alcotest.test_case "a budget equal to the tree size verifies at every fan-out" `Quick
      (fun () ->
        (* dining-2-ordered has four executions. A budget that runs out on
           the last path leaves nothing to stop, at -j 1 as at -j 2. *)
        let prog = (Option.get (W.Registry.find "dining-2-ordered")).W.Registry.program in
        let full = Search.run Search_config.default prog in
        check_int "the tree" 4 full.Report.stats.Report.executions;
        let run jobs budget =
          Checker.check ~config:{ Search_config.default with jobs; max_executions = Some budget }
            prog
        in
        let expect jobs cases =
          List.iter
            (fun (budget, want) ->
              Alcotest.(check string)
                (Printf.sprintf "budget %d at -j %d" budget jobs)
                (Report.verdict_key want)
                (Report.verdict_key (run jobs budget).Report.verdict))
            cases
        in
        expect 1 [ (3, Report.Limits_reached); (4, Report.Verified); (5, Report.Verified) ];
        (* Each of two workers may start a path while the shared tally reads
           one below the budget: budget 2 runs at most 3 paths, and budget
           3 may run the whole tree. *)
        expect 2 [ (2, Report.Limits_reached); (4, Report.Verified); (5, Report.Verified) ];
        (let r = run 2 3 in
         match (r.Report.verdict, r.Report.stats.Report.executions) with
         | Report.Limits_reached, 3 | Report.Verified, 4 -> ()
         | v, n ->
           Alcotest.failf "budget 3 at -j 2: %s with %d executions" (Report.verdict_key v) n);
        (* The -j 1 checkpoint at budget 3 is not complete: it resumes to
           verified. *)
        let file = Filename.temp_file "fairmc" ".ckpt" in
        Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
        ignore
          (Checker.check
             ~config:{ Search_config.default with max_executions = Some 3; checkpoint = Some file }
             prog);
        match
          Result.bind (CK.load file) (fun c ->
              CK.plan_resume c Search_config.default ~program:prog.Program.name)
        with
        | Ok resume ->
          let r = Checker.check ~resume prog in
          check "resumed to verified" true (r.Report.verdict = Report.Verified);
          check "with the uninterrupted stats" true
            (strip_time r.Report.stats = strip_time full.Report.stats)
        | Error e -> Alcotest.failf "the budget-3 checkpoint does not resume: %s" e);
    Alcotest.test_case "a fairmc-ckpt/1 checkpoint is refused with its schema named" `Quick
      (fun () ->
        (* The one-payload-per-run-shape schema: a Seq payload as it was
           written. *)
        let old =
          Json.Obj
            [ ("schema", Json.Str "fairmc-ckpt/1");
              ("fingerprint", Json.Str (CK.fingerprint base ~program:"p"));
              ( "payload",
                Json.Obj [ ("kind", Json.Str "seq"); ("frames", Json.Arr []); ("complete", Json.Bool false) ] ) ]
        in
        match CK.of_json old with
        | Ok _ -> Alcotest.fail "a fairmc-ckpt/1 checkpoint loaded"
        | Error e ->
          check "the message names the old schema" true
            (Test_checker.contains e "fairmc-ckpt/1")) ]

(* ------------------------------------------------------------------ *)
(* One progress sampler                                               *)

let progress_tests =
  [ Alcotest.test_case "a resumed -j 1 run's progress counts the checkpoint's time" `Quick
      (fun () ->
        (* The cut runs all but the last two paths, so it takes longer than
           the resume: a sample over the resumed session's time alone reads
           less than the checkpoint's elapsed. *)
        let prog = W.Dining.program ~n:3 W.Dining.Ordered in
        let full = Search.run base prog in
        let file = Filename.temp_file "fairmc" ".ckpt" in
        Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
        ignore
          (Checker.check
             ~config:
               { base with
                 Search_config.max_executions = Some (full.Report.stats.Report.executions - 2);
                 checkpoint = Some file }
             prog);
        let payload =
          match Result.bind (CK.load file) (fun c -> CK.plan_resume c base ~program:prog.Program.name) with
          | Ok p -> p
          | Error e -> Alcotest.fail e
        in
        let samples = ref [] in
        let progress =
          Some
            (Fairmc_obs.Progress.create ~interval:0.
               ~sinks:[ (fun s -> samples := s :: !samples) ]
               ())
        in
        let r = Checker.check ~config:{ base with Search_config.progress } ~resume:payload prog in
        check "the resume reaches the uninterrupted stats" true
          (strip_time r.Report.stats = strip_time full.Report.stats);
        check "progress was sampled" true (!samples <> []);
        List.iter
          (fun (s : Fairmc_obs.Progress.sample) ->
            if s.Fairmc_obs.Progress.elapsed < payload.CK.elapsed then
              Alcotest.failf "a sample reads %.4f s, the checkpoint %.4f s"
                s.Fairmc_obs.Progress.elapsed payload.CK.elapsed)
          !samples);
    Alcotest.test_case "a -j 1 run in slices times its first error from the search's start"
      `Quick (fun () ->
        (* race-assert fails on its 6th path; here every path boots through
           a 10 ms sleep. Checkpointing at every path boundary makes each
           path a slice of its own, and the error's time must still count
           the five paths before it. *)
        let race = W.Litmus.race_assert () in
        let prog =
          { race with
            Program.boot =
              (fun () ->
                Unix.sleepf 0.01;
                race.Program.boot ()) }
        in
        let file = Filename.temp_file "fairmc" ".ckpt" in
        Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
        let r =
          Checker.check
            ~config:{ base with Search_config.checkpoint = Some file; checkpoint_interval = 0. }
            prog
        in
        Alcotest.(check (option int))
          "the 6th path fails" (Some 6) r.Report.stats.Report.first_error_execution;
        match r.Report.stats.Report.first_error_time with
        | Some t when t >= 0.06 && t <= r.Report.stats.Report.elapsed -> ()
        | t ->
          Alcotest.failf "first error at %s s of %.4f s"
            (Option.fold ~none:"no time" ~some:string_of_float t)
            r.Report.stats.Report.elapsed) ]

let digest_tests =
  [ Alcotest.test_case "a fairmc-ckpt/2 checkpoint is refused with its schema named" `Quick
      (fun () ->
        (* The schema before done regions carried their paths' digest. *)
        let old =
          match CK.to_json (gen_t 7) with
          | Json.Obj kv ->
            Json.Obj
              (List.map
                 (fun (k, v) -> if k = "schema" then (k, Json.Str "fairmc-ckpt/2") else (k, v))
                 kv)
          | _ -> Alcotest.fail "a checkpoint is not an object"
        in
        match CK.of_json old with
        | Ok _ -> Alcotest.fail "a fairmc-ckpt/2 checkpoint loaded"
        | Error e ->
          check "the message names the old schema" true (Test_checker.contains e "fairmc-ckpt/2");
          check "and says what to do" true (Test_checker.contains e "start the search over")) ]

let suite =
  unit_tests
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qprops
  @ codec_tests
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) fuzz_props
  @ budget_tests @ progress_tests @ digest_tests
