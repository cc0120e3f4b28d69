(* Engine tests: execution control, pending operations, spawn/join, data
   choices, failure capture, determinism of replay, signatures, op
   accounting. *)

open Fairmc_core
module B = Fairmc_util.Bitset

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let prog name threads = Program.of_threads ~name (fun () -> threads ())

(* Drive a run with an explicit schedule; return the run. *)
let drive p schedule =
  let run = Engine.start p in
  List.iter (fun tid -> Engine.step run ~tid ~alt:0) schedule;
  run

(* The engine keeps the enabled set and a finished-thread count up to date
   instead of scanning on every query; both must agree with a scan of the
   pending operations, a [Join] counting as enabled once its target has
   finished. *)
let cached_state_exact run =
  let n = Engine.nthreads run in
  let finished tid = tid >= 0 && tid < n && Engine.pending run tid = None in
  let scan = ref B.empty and all_done = ref true in
  for tid = 0 to n - 1 do
    match Engine.pending run tid with
    | None -> ()
    | Some op ->
      all_done := false;
      if Objects.enabled (Engine.store run) ~finished op then scan := B.add tid !scan
  done;
  B.equal (Engine.enabled_set run) !scan && Engine.all_finished run = !all_done

(* One random walk of at most [max] steps. Returns the run, its decisions,
   and whether [cached_state_exact] held after [start] and after every
   step. With [stay], a step takes the previous step's thread while it is
   enabled: on the benchmark's native inputs and ticket-lock, 79-95% of an
   80-step such walk's steps continue the thread before, against 44-72% of
   a random walk's. *)
let random_walk ?(max = 200) ?(stay = false) prog seed =
  let rng = Fairmc_util.Rng.make (Int64.of_int seed) in
  let run = Engine.start prog in
  let exact = ref (cached_state_exact run) in
  let decisions = ref [] in
  let steps = ref 0 in
  while
    (not (Engine.all_finished run))
    && Engine.failure run = None
    && (not (B.is_empty (Engine.enabled_set run)))
    && !steps < max
  do
    let es = Engine.enabled_set run in
    let tid =
      match !decisions with
      | (last, _) :: _ when stay && B.mem last es -> last
      | _ -> B.nth es (Fairmc_util.Rng.int rng (B.cardinal es))
    in
    let alt =
      let n = Engine.alternatives run tid in
      if n = 1 then 0 else Fairmc_util.Rng.int rng n
    in
    Engine.step run ~tid ~alt;
    exact := !exact && cached_state_exact run;
    decisions := (tid, alt) :: !decisions;
    incr steps
  done;
  (run, List.rev !decisions, !exact)

let registry name = (Option.get (Fairmc_workloads.Registry.find name)).program

(* Threads that fail during a step: an assertion raised inside the last live
   thread (it finishes, and with it the program), and a mutex misuse trapped
   by the engine (the thread stays parked) next to a joiner. *)
let failing_progs =
  [ prog "assert-in-step" (fun () ->
        [ (fun () ->
            Sync.join 1;
            Sync.fail "boom");
          (fun () -> Sync.yield ()) ]);
    prog "misuse-in-step" (fun () ->
        let m = Sync.Mutex.create () in
        [ (fun () ->
            Sync.yield ();
            Sync.Mutex.unlock m);
          (fun () -> Sync.join 0) ]) ]

(* Random schedules replay to identical states: the stateless-checking
   determinism contract, as a property over arbitrary walks. Each walk also
   holds the engine's cached enabled set and finished count to a scan, on
   programs that join (wsq), spawn during a step (singularity) and fail
   during a step. *)
let qprops =
  [ QCheck.Test.make ~name:"random walks replay deterministically" ~count:40
      QCheck.(int_bound 10_000)
      (fun seed ->
        List.for_all
          (fun prog ->
            (* One random walk records decisions... *)
            let run, decisions, exact = random_walk prog seed in
            let sig1 = Engine.state_signature run in
            let trace1 = Trace.decisions (Engine.trace run) in
            Engine.stop run;
            (* ... which replays to the same signature and trace. *)
            let run2 = Engine.start prog in
            List.iter (fun (tid, alt) -> Engine.step run2 ~tid ~alt) decisions;
            let sig2 = Engine.state_signature run2 in
            let trace2 = Trace.decisions (Engine.trace run2) in
            Engine.stop run2;
            exact && sig1 = sig2 && trace1 = trace2)
          (registry "wsq-1s-correct" :: registry "singularity-lite-2s-1a" :: failing_progs)) ]

(* Everything a run exposes that a fast-forward must reproduce. Read
   while the run is the active one. *)
let observe run =
  ( Engine.state_signature run,
    (Engine.enabled_set run :> int),
    List.init (Engine.nthreads run) (Engine.pending run),
    (Engine.steps run, Engine.sync_ops run, Engine.var_ops run),
    Array.to_list (Engine.op_counts run),
    Engine.context_switches run,
    Trace.decisions (Engine.trace run) )

(* A random walk's decisions, cut before a step that fails: a fast-forward
   stops short of failures, as every search path does. *)
let schedule ?stay prog seed ~max =
  let run, decisions, _ = random_walk ~max ?stay prog seed in
  let failed = Engine.failure run <> None in
  Engine.stop run;
  if failed then List.filteri (fun i _ -> i < List.length decisions - 1) decisions
  else decisions

let stepped prog decisions =
  let run = Engine.start prog in
  List.iter (fun (tid, alt) -> Engine.step run ~tid ~alt) decisions;
  run

let native_programs () =
  List.map (fun (e : Fairmc_workloads.Registry.entry) -> e.program)
    (Fairmc_workloads.Registry.all ())

(* Minor words per transition of stepping [decisions] after the boot, and of
   fast-forwarding along the trace that stepping recorded. *)
let words_per_transition prog decisions =
  let n = float_of_int (List.length decisions) in
  let run = Engine.start prog in
  let w0 = Gc.minor_words () in
  List.iter (fun (tid, alt) -> Engine.step run ~tid ~alt) decisions;
  let step_words = (Gc.minor_words () -. w0) /. n in
  let trace = Engine.trace run in
  Engine.stop run;
  let run = Engine.start prog in
  let w0 = Gc.minor_words () in
  Engine.fast_forward run trace (List.length decisions);
  let ff_words = (Gc.minor_words () -. w0) /. n in
  Engine.stop run;
  (step_words, ff_words)

let fast_forward_tests =
  [ Alcotest.test_case "a fast-forward equals stepping, at every prefix" `Quick (fun () ->
        (* Each native registry program, seeded random schedules and
           schedules that stay on a thread while it is enabled (whose steps
           a fast-forward mostly takes in place). The trace is
           fast-forwarded along from its longest prefix down, each run
           adopting and truncating the one before's. *)
        List.iter
          (fun prog ->
            List.iter
              (fun (stay, seed) ->
                let decisions = schedule ~stay prog seed ~max:80 in
                let len = List.length decisions in
                let trace = ref (Engine.trace (stepped prog decisions)) in
                for i = len downto 0 do
                  let prefix = List.filteri (fun j _ -> j < i) decisions in
                  let reference = stepped prog prefix in
                  let want = observe reference in
                  Engine.stop reference;
                  let run = Engine.start prog in
                  Engine.fast_forward run !trace i;
                  if observe run <> want then
                    Alcotest.failf "%s, seed %d%s: the fast-forward to step %d differs"
                      prog.Program.name seed
                      (if stay then " (stay on thread)" else "")
                      i;
                  trace := Engine.trace run;
                  Engine.stop run
                done)
              [ (false, 1); (false, 2); (false, 3); (true, 1); (true, 2); (true, 3) ])
          (native_programs ()));
    Alcotest.test_case "a boot that is not deterministic makes the fast-forward raise" `Quick
      (fun () ->
        (* Every other boot parks thread 0 on a lock instead of a write. *)
        let flip = ref false in
        let p =
          prog "flip-flop" (fun () ->
              flip := not !flip;
              let m = Sync.Mutex.create () in
              let x = Sync.int_var 0 in
              let first = !flip in
              [ (fun () ->
                  if first then Sync.Mutex.lock m else Sync.Svar.set x 1;
                  Sync.yield ());
                (fun () -> Sync.yield ()) ])
        in
        let run = drive p [ 0; 1 ] in
        let trace = Engine.trace run in
        Engine.stop run;
        let run = Engine.start p in
        (try
           Engine.fast_forward run trace 2;
           Alcotest.fail "fast-forwarded along another boot's trace"
         with Invalid_argument _ -> ());
        Engine.stop run;
        (* The search meets it on its second path, which fast-forwards. *)
        match Search.run { Search_config.default with fair = false } p with
        | _ -> Alcotest.fail "searched a program whose boot is not deterministic"
        | exception Invalid_argument _ -> ());
    Alcotest.test_case "a fast-forward refuses a stepped or observed run" `Quick (fun () ->
        let p = registry "fig3" in
        let run = drive p [ 0 ] in
        let trace = Engine.trace run in
        Engine.stop run;
        let run = drive p [ 0 ] in
        (try
           Engine.fast_forward run trace 1;
           Alcotest.fail "fast-forwarded a run that had stepped"
         with Invalid_argument _ -> ());
        Engine.stop run;
        Engine.set_observer (Some (fun ~tid:_ ~op:_ ~result:_ -> ()));
        let run = Fun.protect ~finally:(fun () -> Engine.set_observer None) (fun () -> Engine.start p) in
        (try
           Engine.fast_forward run trace 1;
           Alcotest.fail "fast-forwarded an observed run"
         with Invalid_argument _ -> ());
        Engine.stop run);
    Alcotest.test_case "a fast-forwarded transition allocates less than a step" `Quick
      (fun () ->
        (* It builds no trace event (8 words): on schedules of the
           benchmark's native inputs it must save nearly all of them
           (29.8-34.1 words per step against 4.3-15.0, 18.5-24.9 when
           every fast-forwarded step parked). *)
        List.iter
          (fun name ->
            let p = registry name in
            let decisions = schedule p 7 ~max:2_000 in
            let step_words, ff_words = words_per_transition p decisions in
            if ff_words > step_words -. 7. then
              Alcotest.failf "%s: %.1f minor words per fast-forwarded transition, %.1f per step"
                name ff_words step_words)
          [ "wsq-2s-correct"; "dryad-fifo-5"; "dining-2-tryacquire+yield"; "channel-bug4";
            "ticket-lock" ]) ]

let suite =
  List.map (QCheck_alcotest.to_alcotest ~long:false) qprops
  @ fast_forward_tests
  @ [ Alcotest.test_case "threads park at their first operation" `Quick (fun () ->
        let p =
          prog "park" (fun () ->
              let x = Sync.int_var 0 in
              [ (fun () -> Sync.Svar.set x 1); (fun () -> Sync.yield ()) ])
        in
        let run = Engine.start p in
        check_int "two threads" 2 (Engine.nthreads run);
        check "t0 pending write" true
          (match Engine.pending run 0 with Some (Op.Var_write _) -> true | _ -> false);
        check "t1 pending yield" true (Engine.pending run 1 = Some Op.Yield);
        check "both enabled" true (B.equal (Engine.enabled_set run) (B.full 2));
        check "t1 would yield" true (Engine.would_yield run 1);
        check "t0 would not" false (Engine.would_yield run 0);
        Engine.stop run);
    Alcotest.test_case "stepping runs to the next operation" `Quick (fun () ->
        let p =
          prog "steps" (fun () ->
              let x = Sync.int_var 0 in
              [ (fun () ->
                  Sync.Svar.set x 1;
                  Sync.Svar.set x 2) ])
        in
        let run = drive p [ 0 ] in
        check "still parked after one step" true (Engine.pending run 0 <> None);
        Engine.step run ~tid:0 ~alt:0;
        check "finished after both writes" true (Engine.all_finished run);
        check_int "steps counted" 2 (Engine.steps run);
        Engine.stop run);
    Alcotest.test_case "blocking lock disables the waiter" `Quick (fun () ->
        let p =
          prog "block" (fun () ->
              let m = Sync.Mutex.create () in
              [ (fun () ->
                  Sync.Mutex.lock m;
                  Sync.Mutex.unlock m);
                (fun () ->
                  Sync.Mutex.lock m;
                  Sync.Mutex.unlock m) ])
        in
        let run = drive p [ 0 ] in
        (* t0 holds the mutex, parked at unlock; t1 pending lock: disabled. *)
        check "t1 disabled" true (B.equal (Engine.enabled_set run) (B.singleton 0));
        Engine.step run ~tid:0 ~alt:0;
        check "t1 re-enabled after unlock" true (B.mem 1 (Engine.enabled_set run));
        Engine.stop run);
    Alcotest.test_case "self-deadlock on recursive lock" `Quick (fun () ->
        let p =
          prog "recursive" (fun () ->
              let m = Sync.Mutex.create () in
              [ (fun () ->
                  Sync.Mutex.lock m;
                  Sync.Mutex.lock m) ])
        in
        let run = drive p [ 0 ] in
        check "deadlocked" true (Engine.deadlocked run);
        Engine.stop run);
    Alcotest.test_case "spawn creates a live thread; join blocks" `Quick (fun () ->
        let p =
          prog "spawn" (fun () ->
              let x = Sync.int_var 0 in
              [ (fun () ->
                  let child = Sync.spawn (fun () -> Sync.Svar.set x 41) in
                  Sync.join child;
                  Sync.check (Sync.Svar.get x = 41) "child write not visible") ])
        in
        let run = drive p [ 0 ] in
        check_int "child allocated" 2 (Engine.nthreads run);
        (* Parent parked at join, child parked at its write; join disabled. *)
        check "join disabled while child lives" false (B.mem 0 (Engine.enabled_set run));
        Engine.step run ~tid:1 ~alt:0;
        check "join enabled after child finishes" true (B.mem 0 (Engine.enabled_set run));
        Engine.step run ~tid:0 ~alt:0;
        Engine.step run ~tid:0 ~alt:0;
        check "no failure" true (Engine.failure run = None);
        check "all done" true (Engine.all_finished run);
        Engine.stop run);
    Alcotest.test_case "spawned spawn bodies are not clobbered" `Quick (fun () ->
        (* Two threads both spawn: each parent's captured body must be its
           own even when the spawns interleave. *)
        let p =
          prog "two-spawns" (fun () ->
              let a = Sync.int_var 0 and b = Sync.int_var 0 in
              [ (fun () -> ignore (Sync.spawn (fun () -> Sync.Svar.set a 1)));
                (fun () -> ignore (Sync.spawn (fun () -> Sync.Svar.set b 2))) ])
        in
        (* Park both at Spawn, then run them alternately. *)
        let run = Engine.start p in
        Engine.step run ~tid:1 ~alt:0;
        Engine.step run ~tid:0 ~alt:0;
        (* children: tid 2 (b-writer), tid 3 (a-writer) *)
        Engine.step run ~tid:2 ~alt:0;
        Engine.step run ~tid:3 ~alt:0;
        check "all finished" true (Engine.all_finished run);
        check "no failure" true (Engine.failure run = None);
        Engine.stop run);
    Alcotest.test_case "choose exposes alternatives" `Quick (fun () ->
        let p =
          prog "choose" (fun () ->
              let x = Sync.int_var 0 in
              [ (fun () -> Sync.Svar.set x (Sync.choose 3)) ])
        in
        let run = Engine.start p in
        check_int "three alternatives" 3 (Engine.alternatives run 0);
        Engine.step run ~tid:0 ~alt:2;
        (* The chosen value flows into the program. *)
        Engine.step run ~tid:0 ~alt:0;
        check "finished" true (Engine.all_finished run);
        Engine.stop run);
    Alcotest.test_case "assertion failures are captured with the thread" `Quick (fun () ->
        let p =
          prog "fail" (fun () ->
              [ (fun () -> Sync.yield ());
                (fun () ->
                  Sync.yield ();
                  Sync.fail "boom") ])
        in
        let run = drive p [ 1 ] in
        (match Engine.failure run with
         | Some (1, Engine.Assertion "boom") -> ()
         | _ -> Alcotest.fail "expected assertion failure on thread 1");
        Engine.stop run);
    Alcotest.test_case "uncaught exceptions are captured" `Quick (fun () ->
        let p = prog "exn" (fun () -> [ (fun () -> ignore (List.hd [])) ]) in
        let run = Engine.start p in
        (match Engine.failure run with
         | Some (0, Engine.Uncaught _) -> ()
         | _ -> Alcotest.fail "expected uncaught exception");
        Engine.stop run);
    Alcotest.test_case "sync misuse is captured" `Quick (fun () ->
        let p =
          prog "misuse" (fun () ->
              let m = Sync.Mutex.create () in
              [ (fun () -> Sync.Mutex.unlock m) ])
        in
        let run = Engine.start p in
        Engine.step run ~tid:0 ~alt:0;
        (match Engine.failure run with
         | Some (0, Engine.Sync_misuse _) -> ()
         | _ -> Alcotest.fail "expected sync misuse");
        Engine.stop run);
    Alcotest.test_case "deterministic replay: same schedule, same signature" `Quick (fun () ->
        let p = Fairmc_workloads.Wsq.program ~stealers:1 Fairmc_workloads.Wsq.Correct in
        let schedule = [ 0; 0; 0; 1; 0; 1; 1; 0; 0 ] in
        let sig_of () =
          let run = drive p schedule in
          let s = Engine.state_signature run in
          Engine.stop run;
          s
        in
        check "signatures equal across re-executions" true (sig_of () = sig_of ()));
    Alcotest.test_case "trace records decisions and enabled sets" `Quick (fun () ->
        let p =
          prog "trace" (fun () ->
              let x = Sync.int_var 0 in
              [ (fun () -> Sync.Svar.set x 1); (fun () -> Sync.yield ()) ])
        in
        let run = drive p [ 1; 0 ] in
        let evs = Trace.events (Engine.trace run) in
        check_int "two events" 2 (List.length evs);
        let e0 = List.nth evs 0 in
        check_int "first event tid" 1 e0.Trace.tid;
        check "first event yielded" true e0.Trace.yielded;
        check "enabled set recorded" true (B.equal e0.Trace.enabled (B.full 2));
        check "decisions round-trip" true
          (Trace.decisions (Engine.trace run) = [ (1, 0); (0, 0) ]);
        Engine.stop run);
    Alcotest.test_case "sync and var op accounting" `Quick (fun () ->
        let p =
          prog "count" (fun () ->
              let m = Sync.Mutex.create () in
              let x = Sync.int_var 0 in
              [ (fun () ->
                  Sync.Mutex.lock m;
                  Sync.Svar.set x 1;
                  Sync.Mutex.unlock m;
                  Sync.yield ()) ])
        in
        let run = drive p [ 0; 0; 0; 0 ] in
        check_int "3 sync ops (lock, unlock, yield)" 3 (Engine.sync_ops run);
        check_int "1 var op" 1 (Engine.var_ops run);
        Engine.stop run);
    Alcotest.test_case "stepping a disabled or finished thread is rejected" `Quick (fun () ->
        let p =
          prog "invalid" (fun () ->
              let m = Sync.Mutex.create () in
              [ (fun () -> Sync.Mutex.lock m); (fun () -> Sync.Mutex.lock m) ])
        in
        let run = drive p [ 0 ] in
        check "t0 finished" true (Engine.pending run 0 = None);
        (try
           Engine.step run ~tid:0 ~alt:0;
           Alcotest.fail "stepped a finished thread"
         with Invalid_argument _ -> ());
        (try
           Engine.step run ~tid:1 ~alt:0;
           Alcotest.fail "stepped a disabled thread"
         with Invalid_argument _ -> ());
        Engine.stop run);
    Alcotest.test_case "empty program terminates immediately" `Quick (fun () ->
        let p = prog "empty" (fun () -> []) in
        let run = Engine.start p in
        check "finished" true (Engine.all_finished run);
        check "not deadlocked" false (Engine.deadlocked run);
        Engine.stop run);
    Alcotest.test_case "ended runs unwind every parked thread" `Quick (fun () ->
        (* Sleep-set prunes end paths with threads still parked. Each
           thread body's finalizer must run exactly once per start: a
           continuation dropped without being resumed keeps its stack. *)
        let started = ref 0 and finalized = ref 0 in
        let inner = Fairmc_workloads.Litmus.two_step_threads ~nthreads:3 ~steps:2 in
        let p =
          Program.make ~name:"counted" (fun () ->
              let b = inner.Program.boot () in
              { b with
                Program.threads =
                  List.map
                    (fun body () ->
                      incr started;
                      Fun.protect ~finally:(fun () -> incr finalized) body)
                    b.Program.threads })
        in
        let r =
          Search.run { Search_config.default with fair = false; sleep_sets = true } p
        in
        check "verified" true (r.Report.verdict = Report.Verified);
        check "paths were pruned" true (r.Report.stats.Report.sleep_set_prunes > 0);
        check "threads started" true (!started > 0);
        check_int "one finalizer per started thread" !started !finalized);
    Alcotest.test_case "unwinding does not park a finalizer's sync op" `Quick (fun () ->
        let finalized = ref 0 in
        let p =
          prog "finalizer-yields" (fun () ->
              List.init 2 (fun _ () ->
                  Fun.protect
                    ~finally:(fun () ->
                      incr finalized;
                      Sync.yield ())
                    (fun () ->
                      Sync.yield ();
                      Sync.yield ())))
        in
        let run = drive p [ 0 ] in
        Engine.stop run;
        check_int "both finalizers ran" 2 !finalized;
        check "nothing pending" true
          (Engine.pending run 0 = None && Engine.pending run 1 = None);
        check "no failure recorded" true (Engine.failure run = None);
        (* Taking over an unstopped run unwinds it the same way. *)
        let run = drive p [ 1 ] in
        let next = Engine.start p in
        check_int "taken-over run unwound" 4 !finalized;
        check "taken-over run has nothing pending" true (Engine.pending run 0 = None);
        Engine.stop next;
        check_int "stop unwinds" 6 !finalized);
    Alcotest.test_case "an in-place misfit parks its thread and raises from the engine" `Quick
      (fun () ->
        let hook_unset () = Option.is_none Runtime.ctx.Runtime.take in
        (* A fitting fast-forward, taken mostly in place, leaves no hook. *)
        let p = registry "wsq-2s-correct" in
        let decisions = schedule ~stay:true p 3 ~max:200 in
        let run = stepped p decisions in
        let trace = Engine.trace run in
        Engine.stop run;
        let run = Engine.start p in
        Engine.fast_forward run trace (List.length decisions);
        check "the in-place hook is gone after a fit" true (hook_unset ());
        Engine.stop run;
        (* A thread that runs two operations back to back takes the second
           in place. Every other boot changes that operation, or the result
           of the same one: the misfit must park the thread and raise from
           the engine, never inside the thread's [try]. (Stopping the run
           then unwinds the parked thread through that [try].) *)
        List.iter
          (fun second ->
            let flip = ref false and caught = ref false in
            let p =
              prog "flip-flop-in-place" (fun () ->
                  flip := not !flip;
                  let m = Sync.Mutex.create () in
                  let s = Sync.Semaphore.create (if !flip then 1 else 0) in
                  let x = Sync.int_var 0 in
                  let first = !flip in
                  [ (fun () ->
                      try
                        Sync.Svar.set x 1;
                        second first m s x
                      with _ -> caught := true) ])
            in
            let run = drive p [ 0; 0 ] in
            let trace = Engine.trace run in
            Engine.stop run;
            let run = Engine.start p in
            (try
               Engine.fast_forward run trace 2;
               Alcotest.fail "fast-forwarded in place along another boot's trace"
             with Invalid_argument _ -> ());
            check "the thread did not see the misfit" false !caught;
            check "the in-place hook is gone after a misfit" true (hook_unset ());
            Engine.stop run;
            (* The next run steps as usual. *)
            let run = drive (registry "fig3") [ 0; 1 ] in
            check_int "a following run steps" 2 (Engine.steps run);
            check_int "and records its steps" 2 (Trace.length (Engine.trace run));
            Engine.stop run)
          [ (fun first m _ x -> if first then Sync.Mutex.lock m else Sync.Svar.set x 2);
            (fun _ _ s _ -> ignore (Sync.Semaphore.try_wait s)) ]);
    Alcotest.test_case
      "a fast-forwarded transition that stays on its thread allocates at most 10 minor words"
      `Quick (fun () ->
        (* A step that continues the thread before is taken in place: the
           thread performs no effect and does not park. 4.0-8.1 words per
           transition on these schedules, 17.6-24.7 when every step
           parked. *)
        List.iter
          (fun name ->
            let p = registry name in
            let decisions = schedule ~stay:true p 7 ~max:2_000 in
            let _, ff_words = words_per_transition p decisions in
            if ff_words > 10. then
              Alcotest.failf "%s: %.1f minor words per fast-forwarded transition" name ff_words)
          [ "wsq-2s-correct"; "dryad-fifo-5"; "dining-2-tryacquire+yield"; "channel-bug4";
            "ticket-lock" ]) ]
