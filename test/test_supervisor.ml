(* Supervised worker-pool tests.

   OCaml 5 forbids [Unix.fork] for the rest of the process lifetime once a
   second domain has ever been created — and this test binary runs
   multi-domain suites before this one. So the fork paths (zero-fault
   equivalence, the fault-injection matrix, crash quarantine, SIGINT
   teardown) are exercised through the real CLI binary in a subprocess,
   which is also what CI and users run; the in-process tests cover the
   pieces that do not fork — the workers=1 passthrough, the
   domains-already-created degradation path, checkpoint save hardening, the
   EINTR retry wrappers, resource-exhaustion trapping, and the wire
   protocol. *)

open Fairmc_core
module W = Fairmc_workloads
module J = Fairmc_util.Json
module Retry = Fairmc_util.Retry

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let base = { Search_config.default with livelock_bound = Some 2_000 }

let verdict_kind (r : Report.t) = Report.verdict_name r.verdict

(* ------------------------------------------------------------------ *)
(* CLI subprocess harness                                              *)
(* ------------------------------------------------------------------ *)

(* The CLI is a declared dependency of the test stanza, built next to this
   executable; resolve it relative to the binary so the suite works under
   both [dune runtest] and [dune exec]. *)
let cli =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "chess_cli.exe")

let run_cli ~expect args =
  if not (Sys.file_exists cli) then Alcotest.skip ();
  let cmd = Filename.quote_command cli ("check" :: args) ^ " >/dev/null 2>/dev/null" in
  let rc = Sys.command cmd in
  check_int (Printf.sprintf "exit status of %s" (String.concat " " args)) expect rc

let report_of_cli ~expect args =
  let file = Filename.temp_file "fairmc_suptest" ".json" in
  run_cli ~expect (args @ [ "--json"; file ]);
  let s = In_channel.with_open_bin file In_channel.input_all in
  Sys.remove file;
  match J.of_string s with
  | Ok j -> j
  | Error e -> Alcotest.failf "unparseable report from %s: %s" (String.concat " " args) e

let field name = function
  | J.Obj kvs ->
    (match List.assoc_opt name kvs with
     | Some v -> v
     | None -> Alcotest.failf "report field %S missing" name)
  | _ -> Alcotest.failf "expected an object looking up %S" name

(* Everything wall-clock-derived measures real time and legitimately
   differs between runs; the rest of the stats must be bit-identical. *)
let deterministic_stats j =
  match field "stats" j with
  | J.Obj kvs ->
    J.Obj
      (List.filter
         (fun (k, _) ->
           not
             (List.mem k
                [ "elapsed_seconds"; "search_elapsed_seconds";
                  "executions_per_second"; "first_error_seconds"; "eta_seconds" ]))
         kvs)
  | _ -> Alcotest.fail "stats is not an object"

let assert_reports_equal name a b =
  check (name ^ ": verdict") true (J.equal (field "verdict" a) (field "verdict" b));
  let sa = deterministic_stats a and sb = deterministic_stats b in
  if not (J.equal sa sb) then
    Alcotest.failf "%s: deterministic stats differ:\n%s\n%s" name (J.to_string sa)
      (J.to_string sb)

(* ------------------------------------------------------------------ *)
(* Zero-fault equivalence: supervised == in-domain, via the CLI        *)
(* ------------------------------------------------------------------ *)

let equivalence_tests =
  [ Alcotest.test_case "zero faults: verified workload is bit-equal" `Quick (fun () ->
        let common = [ "dining-3-ordered"; "--coverage"; "-q" ] in
        let indom = report_of_cli ~expect:0 (common @ [ "-j"; "2" ]) in
        let sup = report_of_cli ~expect:0 (common @ [ "--workers"; "2" ]) in
        assert_reports_equal "dining-3" indom sup);
    Alcotest.test_case "zero faults: erroring workload is bit-equal" `Quick (fun () ->
        let common = [ "race-assert"; "-s"; "cb:2"; "--coverage"; "-q" ] in
        let indom = report_of_cli ~expect:1 (common @ [ "-j"; "2" ]) in
        let sup = report_of_cli ~expect:1 (common @ [ "--workers"; "2" ]) in
        assert_reports_equal "race-assert" indom sup;
        (* Same counterexample schedule, found at the same DFS position. *)
        check "counterexample decisions equal" true
          (J.equal
             (field "counterexample" (field "verdict" indom))
             (field "counterexample" (field "verdict" sup)))) ]

(* ------------------------------------------------------------------ *)
(* Fault-injection matrix, via the CLI                                 *)
(* ------------------------------------------------------------------ *)

let fault_matrix_tests =
  let clean () =
    report_of_cli ~expect:0 [ "dining-3-ordered"; "--coverage"; "--workers"; "2"; "-q" ]
  in
  List.map
    (fun kind ->
      let name = Search_config.fault_kind_name kind in
      Alcotest.test_case
        (Printf.sprintf "fault %s recovers to the clean report" name) `Quick
        (fun () ->
          let clean = clean () in
          let extra =
            match kind with
            | Search_config.Hang -> [ "--item-timeout"; "0.4" ]
            | Search_config.Save_fail ->
              [ "--checkpoint"; Filename.temp_file "fairmc_savefail" ".ckpt";
                "--checkpoint-interval"; "0" ]
            | _ -> []
          in
          let faulted =
            report_of_cli ~expect:0
              ([ "dining-3-ordered"; "--coverage"; "--workers"; "2"; "-q";
                 "--inject-fault"; name ^ "@1" ]
               @ extra)
          in
          assert_reports_equal name clean faulted))
    Search_config.fault_kinds

(* ------------------------------------------------------------------ *)
(* Crash quarantine, via the CLI                                       *)
(* ------------------------------------------------------------------ *)

let quarantine_tests =
  [ Alcotest.test_case "retry budget 0 quarantines the item as a crash" `Quick
      (fun () ->
        let r =
          report_of_cli ~expect:1
            [ "dining-3-ordered"; "--workers"; "2"; "--max-retries"; "0";
              "--inject-fault"; "crash@0"; "-q" ]
        in
        check_str "verdict key" "crash"
          (match field "verdict_key" r with J.Str s -> s | _ -> "?");
        let v = field "verdict" r in
        (* The counterexample is the quarantined item's schedule prefix —
           the same decisions the expansion locked for item 0. *)
        let decisions = field "decisions" (field "counterexample" v) in
        let items, _ =
          Search.expand base
            (W.Dining.program ~n:3 W.Dining.Ordered)
            ~split_depth:Search_config.default.split_depth
        in
        let expected =
          match items with
          | first :: _ ->
            J.Arr
              (Array.to_list first
               |> List.map (fun (d : Search.pdecision) ->
                      J.Arr [ J.Int d.Search.p_tid; J.Int d.Search.p_alt ]))
          | [] -> Alcotest.fail "expansion produced no items"
        in
        check "cex is the item's schedule prefix" true (J.equal decisions expected));
    Alcotest.test_case "a retry absorbs the crash instead" `Quick (fun () ->
        (* Same fault, default retry budget: re-run fault-free, verdict
           clean. *)
        let r =
          report_of_cli ~expect:0
            [ "dining-3-ordered"; "--workers"; "2"; "--inject-fault"; "crash@0"; "-q" ]
        in
        check_str "verdict key" "verified"
          (match field "verdict_key" r with J.Str s -> s | _ -> "?")) ]

(* ------------------------------------------------------------------ *)
(* SIGINT teardown + cross-backend resume, via the CLI                 *)
(* ------------------------------------------------------------------ *)

let interrupt_tests =
  [ Alcotest.test_case "SIGINT: exit 130, loadable checkpoint, exact resume" `Slow
      (fun () ->
        if not (Sys.file_exists cli) then Alcotest.skip ();
        let ckpt = Filename.temp_file "fairmc_sigint" ".ckpt" in
        Sys.remove ckpt;
        let baseline =
          report_of_cli ~expect:0
            [ "ticket-lock"; "--coverage"; "--workers"; "2"; "-q" ]
        in
        (* Interrupt a supervised checkpointed run mid-search: ticket-lock
           runs for around a second under two workers, the signal lands at
           0.3s — mid worker traffic, with checkpoint writes on every item
           (interval 0). *)
        let dev_null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
        let pid =
          Unix.create_process cli
            [| cli; "check"; "ticket-lock"; "--coverage"; "--workers"; "2";
               "--checkpoint"; ckpt; "--checkpoint-interval"; "0"; "-q" |]
            Unix.stdin dev_null dev_null
        in
        Unix.sleepf 0.3;
        Unix.kill pid Sys.sigint;
        let _, status = Retry.eintr (fun () -> Unix.waitpid [] pid) in
        Unix.close dev_null;
        (match status with
         | Unix.WEXITED 130 -> ()
         | Unix.WEXITED c -> Alcotest.failf "expected exit 130, got %d" c
         | Unix.WSIGNALED s -> Alcotest.failf "killed by signal %d" s
         | Unix.WSTOPPED _ -> Alcotest.fail "stopped");
        (* The final checkpoint flush happened during teardown and must be
           loadable. *)
        (match Checkpoint.load ckpt with
         | Ok _ -> ()
         | Error e -> Alcotest.failf "checkpoint not loadable after SIGINT: %s" e);
        (* Cross-backend durability: the supervisor wrote it, the in-domain
           backend resumes it, and the merged totals equal an uninterrupted
           run's. *)
        let resumed =
          report_of_cli ~expect:0
            [ "ticket-lock"; "--coverage"; "-j"; "2"; "--resume"; ckpt; "-q" ]
        in
        assert_reports_equal "resume after SIGINT" baseline resumed;
        Sys.remove ckpt) ]

(* ------------------------------------------------------------------ *)
(* In-process: passthrough and degradation                             *)
(* ------------------------------------------------------------------ *)

let dispatch_tests =
  [ Alcotest.test_case "workers=1 takes the in-process path" `Quick (fun () ->
        let cfg = { base with Search_config.workers = 1; coverage = true } in
        let prog = W.Litmus.two_step_threads ~nthreads:2 ~steps:2 in
        let a = Supervisor.run cfg prog in
        let b = Search.run cfg prog in
        check_str "verdict" (verdict_kind b) (verdict_kind a);
        check_int "executions" b.stats.executions a.stats.executions);
    Alcotest.test_case "degrades to domains when forking is unavailable" `Quick
      (fun () ->
        (* This test binary has created domains, so OCaml 5 forbids fork
           here for good: Supervisor.run must fall back to the in-domain
           backend and still produce the exact report. *)
        let d = Domain.spawn (fun () -> ()) in
        Domain.join d;
        check "can_fork reports the poisoned process" false (Supervisor.can_fork ());
        let cfg = { base with coverage = true } in
        let prog = W.Litmus.two_step_threads ~nthreads:2 ~steps:3 in
        let seq = Search.run cfg prog in
        let sup = Supervisor.run { cfg with Search_config.workers = 2 } prog in
        check_str "verdict" (verdict_kind seq) (verdict_kind sup);
        check_int "executions" seq.stats.executions sup.stats.executions;
        check_int "transitions" seq.stats.transitions sup.stats.transitions;
        check_int "states" seq.stats.states sup.stats.states) ]

(* ------------------------------------------------------------------ *)
(* Checkpoint save hardening                                           *)
(* ------------------------------------------------------------------ *)

let save_hardening_tests =
  (* A real checkpoint value to save: produce one, load it back. *)
  let sample_ckpt () =
    let path = Filename.temp_file "fairmc_sample" ".ckpt" in
    let cfg =
      { base with
        fair = false;
        checkpoint = Some path;
        checkpoint_interval = 0.;
        max_executions = Some 2 }
    in
    let prog = W.Litmus.two_step_threads ~nthreads:2 ~steps:2 in
    ignore (Search.run cfg prog);
    match Checkpoint.load path with
    | Ok t ->
      Sys.remove path;
      t
    | Error e -> Alcotest.failf "could not produce a sample checkpoint: %s" e
  in
  [ Alcotest.test_case "transient save failures are retried" `Quick (fun () ->
        let t = sample_ckpt () in
        let path = Filename.temp_file "fairmc_retry" ".ckpt" in
        Sys.remove path;
        Checkpoint.inject_save_failures := 2;
        (match Checkpoint.save_result path t with
         | Ok () -> ()
         | Error e -> Alcotest.failf "save did not survive transient failures: %s" e);
        check_int "both injected failures consumed" 0 !Checkpoint.inject_save_failures;
        check "file written" true (Sys.file_exists path);
        (match Checkpoint.load path with
         | Ok _ -> ()
         | Error e -> Alcotest.failf "retried save produced a bad file: %s" e);
        Sys.remove path);
    Alcotest.test_case "a failing save never clobbers the last good checkpoint" `Quick
      (fun () ->
        let t = sample_ckpt () in
        let path = Filename.temp_file "fairmc_noclobber" ".ckpt" in
        Sys.remove path;
        (match Checkpoint.save_result path t with
         | Ok () -> ()
         | Error e -> Alcotest.failf "initial save failed: %s" e);
        let good = In_channel.with_open_bin path In_channel.input_all in
        (* More injected failures than retry attempts: the save gives up. *)
        Checkpoint.inject_save_failures := 99;
        (match Checkpoint.save_result path t with
         | Error _ -> ()
         | Ok () -> Alcotest.fail "save should have exhausted its retries");
        Checkpoint.inject_save_failures := 0;
        let now = In_channel.with_open_bin path In_channel.input_all in
        check "previous checkpoint intact" true (good = now);
        (match Checkpoint.load path with
         | Ok _ -> ()
         | Error e -> Alcotest.failf "surviving checkpoint unreadable: %s" e);
        Sys.remove path);
    Alcotest.test_case "an unwritable path reports an error, not an exception" `Quick
      (fun () ->
        let t = sample_ckpt () in
        match Checkpoint.save_result "/nonexistent-dir/x/y.ckpt" t with
        | Error _ -> ()
        | Ok () -> Alcotest.fail "save into a missing directory cannot succeed") ]

(* ------------------------------------------------------------------ *)
(* Retry wrappers                                                      *)
(* ------------------------------------------------------------------ *)

let retry_tests =
  [ Alcotest.test_case "eintr restarts interrupted calls" `Quick (fun () ->
        let calls = ref 0 in
        let v =
          Retry.eintr (fun () ->
              incr calls;
              if !calls < 3 then raise (Unix.Unix_error (Unix.EINTR, "write", ""));
              7)
        in
        check_int "result" 7 v;
        check_int "restarted twice" 3 !calls);
    Alcotest.test_case "eintr is transparent to other errors" `Quick (fun () ->
        match Retry.eintr (fun () -> raise (Unix.Unix_error (Unix.EBADF, "write", ""))) with
        | exception Unix.Unix_error (Unix.EBADF, _, _) -> ()
        | _ -> Alcotest.fail "EBADF must not be swallowed");
    Alcotest.test_case "transient retries then succeeds" `Quick (fun () ->
        let calls = ref 0 in
        let r =
          Retry.transient ~attempts:4 ~base_delay:0.001
            ~retryable:(function Sys_error _ -> true | _ -> false)
            (fun () ->
              incr calls;
              if !calls < 3 then raise (Sys_error "flaky");
              "ok")
        in
        check "succeeded" true (r = Ok "ok");
        check_int "two retries" 3 !calls);
    Alcotest.test_case "transient gives up after its budget" `Quick (fun () ->
        let calls = ref 0 in
        let r =
          Retry.transient ~attempts:3 ~base_delay:0.001
            ~retryable:(function Sys_error _ -> true | _ -> false)
            (fun () ->
              incr calls;
              raise (Sys_error "always"))
        in
        check "failed" true (match r with Error (Sys_error _) -> true | _ -> false);
        check_int "attempt budget honored" 3 !calls);
    Alcotest.test_case "transient does not retry non-retryable exceptions" `Quick
      (fun () ->
        let calls = ref 0 in
        (match
           Retry.transient ~attempts:5 ~base_delay:0.001
             ~retryable:(function Sys_error _ -> true | _ -> false)
             (fun () ->
               incr calls;
               raise Exit)
         with
         | exception Exit -> ()
         | Ok _ | Error _ -> Alcotest.fail "non-retryable exceptions must propagate");
        check_int "single attempt" 1 !calls) ]

(* ------------------------------------------------------------------ *)
(* Resource exhaustion trapping                                        *)
(* ------------------------------------------------------------------ *)

(* Stack_overflow / Out_of_memory inside a thread must classify as a safety
   violation carrying the offending schedule, not tear down the checker. *)
let resource_tests =
  let resource_prog exn =
    Program.of_threads ~name:"resource-exhaustion" (fun () ->
        [ (fun () -> Sync.yield ()); (fun () -> Sync.yield (); raise exn) ])
  in
  let assert_resource name exn expected_msg =
    let r = Search.run base (resource_prog exn) in
    match r.verdict with
    | Report.Safety_violation { failure = Engine.Resource m; cex; _ } ->
      check (name ^ ": message") true (m = expected_msg);
      check (name ^ ": schedule consistent") true
        (List.length cex.decisions = cex.length)
    | v ->
      Alcotest.failf "%s: expected a resource safety violation, got %s" name
        (Report.verdict_key v)
  in
  [ Alcotest.test_case "stack overflow becomes a safety verdict" `Quick (fun () ->
        assert_resource "stack-overflow" Stack_overflow "stack overflow");
    Alcotest.test_case "out of memory becomes a safety verdict" `Quick (fun () ->
        assert_resource "oom" Out_of_memory "out of memory");
    Alcotest.test_case "resource verdicts survive the DSL backends" `Quick (fun () ->
        (* Both interpreter backends route uncaught engine-level exceptions
           through the same classification; a deeply recursive ChessLang
           program must come back as a verdict either way. Here the native
           engine path stands in for both: the VM and AST interpreters trap
           only their own error type and let resource exceptions reach the
           engine (see Vm.exec / Interp). *)
        assert_resource "engine-path" Stack_overflow "stack overflow") ]

(* ------------------------------------------------------------------ *)
(* Wire protocol units                                                 *)
(* ------------------------------------------------------------------ *)

let protocol_tests =
  [ Alcotest.test_case "request/response roundtrip" `Quick (fun () ->
        let req = Worker.Run { q_index = 3; q_attempt = 1; q_time_left = Some 1.5 } in
        check "request" true (Worker.request_of_json (Worker.request_to_json req) = req);
        check "quit" true
          (Worker.request_of_json (Worker.request_to_json Worker.Quit) = Worker.Quit);
        let cex =
          { Report.rendered = "trace"; decisions = [ (0, 1); (1, 0) ]; length = 2 }
        in
        let report =
          { Report.verdict = Report.Crash { reason = "boom"; cex };
            stats = Par_search.zero_stats;
            metrics = Fairmc_obs.Metrics.Snapshot.empty;
            analysis = None }
        in
        let resp =
          { Worker.r_index = 4;
            r_attempt = 0;
            r_report = report;
            r_states = [ 3L; 9L ];
            r_events = [ (true, "path", J.Obj [ ("steps", J.Int 2) ]) ] }
        in
        let back = Worker.response_of_json (Worker.response_to_json resp) in
        check "response index" true (back.Worker.r_index = 4);
        check "response states" true (back.Worker.r_states = [ 3L; 9L ]);
        check "response events" true (back.Worker.r_events = resp.Worker.r_events);
        match back.Worker.r_report.Report.verdict with
        | Report.Crash { reason = "boom"; cex = c } ->
          check "cex decisions" true (c.decisions = cex.decisions)
        | _ -> Alcotest.fail "crash verdict did not roundtrip");
    Alcotest.test_case "frames reassemble across a pipe" `Quick (fun () ->
        let r, w = Unix.pipe () in
        let doc = J.Obj [ ("k", J.Str "v") ] in
        Worker.send w doc;
        let buf = Worker.inbuf () in
        (match Worker.feed buf r with
         | `Data _ -> ()
         | `Eof -> Alcotest.fail "unexpected EOF");
        (match Worker.extract buf with
         | Ok (Some got) -> check "frame payload" true (J.equal got doc)
         | Ok None -> Alcotest.fail "frame incomplete"
         | Error e -> Alcotest.failf "frame rejected: %s" e);
        Unix.close r;
        Unix.close w);
    Alcotest.test_case "garbled bytes are a protocol error" `Quick (fun () ->
        let r, w = Unix.pipe () in
        let junk = Bytes.of_string "!!not-a-frame!!" in
        ignore (Unix.write w junk 0 (Bytes.length junk));
        let buf = Worker.inbuf () in
        (match Worker.feed buf r with
         | `Data _ -> ()
         | `Eof -> Alcotest.fail "unexpected EOF");
        (match Worker.extract buf with
         | Error _ -> ()
         | Ok _ -> Alcotest.fail "garbage must not parse as a frame");
        Unix.close r;
        Unix.close w) ]

(* ------------------------------------------------------------------ *)
(* Out-of-range inputs are usage or static errors, never crashes       *)
(* ------------------------------------------------------------------ *)

let with_threads_file n f =
  let file = Filename.temp_file "fairmc_threads" ".chess" in
  Out_channel.with_open_bin file (fun oc ->
      output_string oc "var x = 0;\n";
      for i = 0 to n - 1 do
        Printf.fprintf oc "thread t%d { x = x + 1; }\n" i
      done);
  Fun.protect ~finally:(fun () -> Sys.remove file) (fun () -> f file)

let limit_tests =
  [ Alcotest.test_case "-k 0 is a usage error, fair or not" `Quick (fun () ->
        (* Cmdliner exits 124 on a command-line error. *)
        run_cli ~expect:124 [ "fig3"; "-k"; "0" ];
        run_cli ~expect:124 [ "fig3"; "-k"; "0"; "--no-fair" ];
        run_cli ~expect:0 [ "fig3"; "-k"; "2"; "-q" ]);
    Alcotest.test_case "62 threads are checked, 63 are a static error" `Quick (fun () ->
        with_threads_file 62 (fun f -> run_cli ~expect:0 [ f; "--max-execs"; "3"; "-q" ]);
        with_threads_file 63 (fun f -> run_cli ~expect:2 [ f; "--max-execs"; "3"; "-q" ])) ]

let suite =
  equivalence_tests @ fault_matrix_tests @ quarantine_tests @ interrupt_tests
  @ dispatch_tests @ save_hardening_tests @ retry_tests @ resource_tests
  @ protocol_tests @ limit_tests
