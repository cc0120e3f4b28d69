(* Supervised worker-pool tests.

   The fork paths run in-process: zero-fault equivalence with the
   sequential search, an injected crash (absorbed by a retry, or
   quarantined under a zero retry budget), and the search-wide execution
   budget. The fault-injection matrix, SIGINT teardown and usage errors go
   through the real CLI binary in a subprocess, which is also what CI and
   users run. The rest covers the workers=1 passthrough, checkpoint save
   hardening, the EINTR retry wrappers, resource-exhaustion trapping, and
   the wire protocol, including a byte-level fuzz of its decoder. *)

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

let run_cli ?(command = "check") ~expect args =
  if not (Sys.file_exists cli) then Alcotest.skip ();
  let cmd = Filename.quote_command cli (command :: args) ^ " >/dev/null 2>/dev/null" in
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
(* Fork paths, in-process                                              *)
(* ------------------------------------------------------------------ *)

let strip_time (s : Report.stats) =
  { s with Report.elapsed = 0.; search_elapsed = 0.; first_error_time = None }

(* Same verdict (counterexample included) and the same statistics, modulo
   wall clock. *)
let assert_same_report name (a : Report.t) (b : Report.t) =
  check (name ^ ": verdict") true (a.verdict = b.verdict);
  check (name ^ ": stats") true (strip_time a.stats = strip_time b.stats)

let gauge (r : Report.t) name =
  match Fairmc_obs.Metrics.Snapshot.find r.metrics name with
  | Some (Fairmc_obs.Metrics.Snapshot.Gauge n) -> n
  | _ -> 0

(* Supervised with two workers and metrics on (for the spawn gauge), then
   compared with the sequential search. *)
let assert_equiv name cfg prog =
  let seq = Search.run cfg prog in
  let sup = Supervisor.run { cfg with Search_config.workers = 2; metrics = true } prog in
  check (name ^ ": forked workers") true (gauge sup "sup/spawns" >= 2);
  assert_same_report name seq sup

let equivalence_tests =
  [ Alcotest.test_case "zero faults: verified workload is bit-equal" `Quick (fun () ->
        assert_equiv "dining-3" { base with coverage = true }
          (W.Dining.program ~n:3 W.Dining.Ordered));
    Alcotest.test_case "zero faults: erroring workload is bit-equal" `Quick (fun () ->
        (* The verdict carries the counterexample: same schedule, found at
           the same DFS position. *)
        assert_equiv "race-assert"
          { base with mode = Search_config.Context_bounded 2; coverage = true }
          (W.Litmus.race_assert ())) ]

let budget_tests =
  [ Alcotest.test_case "one execution budget spans the worker processes" `Quick (fun () ->
        (* Each worker may finish the path it is on when the budget runs
           out: at most one path over per worker. *)
        let prog = W.Wsq.program ~stealers:2 W.Wsq.Correct in
        let within what ~budget ~workers (r : Report.t) =
          check (what ^ ": limited") true (r.verdict = Report.Limits_reached);
          let e = r.stats.executions in
          if e < budget || e > budget + workers then
            Alcotest.failf "%s: %d executions for a budget of %d on %d workers" what e budget
              workers
        in
        let cb2 = { base with mode = Search_config.Context_bounded 2; max_executions = Some 1000 } in
        within "--workers 2" ~budget:1000 ~workers:2
          (Supervisor.run { cb2 with Search_config.workers = 2 } prog);
        within "-j 2" ~budget:1000 ~workers:2 (Supervisor.run { cb2 with jobs = 2 } prog);
        within "random, -j 4" ~budget:300 ~workers:4
          (Supervisor.run
             { base with
               mode = Search_config.Random_walk 5_000;
               max_executions = Some 300;
               jobs = 4 }
             prog)) ]

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
(* Crash quarantine, in-process                                        *)
(* ------------------------------------------------------------------ *)

let quarantine_tests =
  let prog () = W.Dining.program ~n:3 W.Dining.Ordered in
  let crashing =
    { base with
      Search_config.workers = 2;
      inject_fault = Some { Search_config.fault_kind = Search_config.Crash; fault_seed = 0 } }
  in
  [ Alcotest.test_case "retry budget 0 quarantines the item as a crash" `Quick
      (fun () ->
        (* Item 0 is the whole tree; the idle second worker has it split at
           its first path boundary, so item 1 is the stack left after the
           first path, without the siblings of its shallowest frame. *)
        let crash1 = Some { Search_config.fault_kind = Search_config.Crash; fault_seed = 1 } in
        let r = Supervisor.run { crashing with max_retries = 0; inject_fault = crash1 } (prog ()) in
        match r.verdict with
        | Report.Crash { cex; _ } ->
          let tally = Tally.create ~slots:1 in
          Tally.ask_split tally true;
          let expected =
            match Search.run_item ~tally base (prog ()) (Checkpoint.Cursor [||]) with
            | _, _, Checkpoint.Cursor frames :: _ ->
              Array.to_list frames
              |> List.map (fun (f : Checkpoint.frame) ->
                     (f.Checkpoint.c_chosen.Checkpoint.c_tid, f.c_chosen.c_alt))
            | _ -> Alcotest.fail "the whole tree did not split"
          in
          check "a non-empty prefix" true (expected <> []);
          Alcotest.(check (list (pair int int)))
            "cex is the item's schedule prefix" expected cex.decisions;
          (match Search.replay (prog ()) cex.decisions (fun _ -> ()) with
           | Search.Replayed_no_failure -> ()
           | _ -> Alcotest.fail "the prefix does not replay")
        | v -> Alcotest.failf "expected a crash verdict, got %s" (Report.verdict_key v));
    Alcotest.test_case "a retry absorbs the crash instead" `Quick (fun () ->
        (* Same fault, default retry budget: re-run fault-free, and the
           report is the clean one. *)
        let r = Supervisor.run { crashing with metrics = true } (prog ()) in
        check "the crash was retried" true (gauge r "sup/retries" = 1);
        assert_same_report "crash@0" (Search.run base (prog ())) r) ]

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
        (* Durability: the checkpoint resumes under -j, and sequentially, and
           the merged totals equal an uninterrupted run's. The resume keeps
           checkpointing to its file, so the sequential one reads a copy. *)
        let copy = ckpt ^ ".j1" in
        Out_channel.with_open_bin copy (fun oc ->
            output_string oc (In_channel.with_open_bin ckpt In_channel.input_all));
        let resumed =
          report_of_cli ~expect:0
            [ "ticket-lock"; "--coverage"; "-j"; "2"; "--resume"; ckpt; "-q" ]
        in
        assert_reports_equal "resume after SIGINT" baseline resumed;
        let sequential =
          report_of_cli ~expect:0 [ "ticket-lock"; "--coverage"; "--resume"; copy; "-q" ]
        in
        assert_reports_equal "sequential resume after SIGINT" baseline sequential;
        Sys.remove ckpt;
        Sys.remove copy) ]

(* ------------------------------------------------------------------ *)
(* In-process passthrough                                              *)
(* ------------------------------------------------------------------ *)

let dispatch_tests =
  [ Alcotest.test_case "workers=1 takes the in-process path" `Quick (fun () ->
        let cfg = { base with Search_config.workers = 1; coverage = true } in
        let prog = W.Litmus.two_step_threads ~nthreads:2 ~steps:2 in
        let a = Supervisor.run cfg prog in
        let b = Search.run cfg prog in
        check_str "verdict" (verdict_kind b) (verdict_kind a);
        check_int "executions" b.stats.executions a.stats.executions) ]

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

(* A fairmc-events/1 line as a worker's stream renders it. *)
let event_line ~seq steps =
  Fairmc_obs.Events.line
    { Fairmc_obs.Events.seq; ts_us = 10 * seq; shard = 1; det = true; kind = "path";
      data = J.Obj [ ("steps", J.Int steps) ] }

let protocol_tests =
  [ Alcotest.test_case "request/response roundtrip" `Quick (fun () ->
        let frame =
          { Checkpoint.c_chosen = { Checkpoint.c_tid = 1; c_alt = 0; c_cost = 1 };
            c_rest = [ { Checkpoint.c_tid = 0; c_alt = 0; c_cost = 0 } ];
            c_sleep = Fairmc_util.Bitset.of_list [ 2 ];
            c_width = 2 }
        in
        List.iter
          (fun q_item ->
            let req = Worker.Run { q_index = 3; q_attempt = 1; q_time_left = Some 1.5; q_item } in
            check "request" true (Worker.request_of_json (Worker.request_to_json req) = req))
          [ Checkpoint.Cursor [| frame |]; Checkpoint.Range (4, 9) ];
        let rest = [ Checkpoint.Cursor [| frame |]; Checkpoint.Cursor [||] ] in
        check "rest" true
          (Worker.reply_of_json (Worker.rest_to_json rest) = Worker.Rest rest);
        check "quit" true
          (Worker.request_of_json (Worker.request_to_json Worker.Quit) = Worker.Quit);
        let cex =
          { Report.rendered = "trace"; decisions = [ (0, 1); (1, 0) ]; length = 2 }
        in
        let report =
          { Report.verdict = Report.Crash { reason = "boom"; cex };
            stats = Checkpoint.zero_stats;
            metrics = Fairmc_obs.Metrics.Snapshot.empty;
            analysis = None }
        in
        let resp =
          { Worker.r_index = 4;
            r_attempt = 0;
            r_report = report;
            r_states = [ 3L; 9L ];
            r_events = [ event_line ~seq:0 2; event_line ~seq:1 5 ] }
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

(* Byte-level fuzz of the fairmc-ipc/1 decoder: whatever a worker writes
   to its pipe, the parent sees a frame, a need for more bytes, or an
   [Error]; a frame that is not a request, a rest frame or a response
   raises only the codec's [Parse]. Nothing else may escape. *)

(* Well-formed documents to mutate, so the fuzz reaches the nested report,
   stats, metrics, race and work-item decoders rather than failing on the
   first field. *)
let valid_docs =
  lazy
    (let r =
       Search.run
         { base with mode = Search_config.Context_bounded 2; coverage = true; metrics = true }
         (W.Litmus.race_assert ())
     in
     let race =
       { Analysis_hook.detector = "hb"; obj = 3; obj_name = "x"; a_tid = 0; a_step = 1;
         a_op = Op.Var_write 3; b_tid = 1; b_step = 2; b_op = Op.Var_read 3;
         rendered = "race"; decisions = [ (0, 0); (1, 0) ]; length = 2 }
     in
     let response report =
       Worker.response_to_json
         { Worker.r_index = 1; r_attempt = 0; r_report = report; r_states = [ 1L; 5L ];
           r_events = [ event_line ~seq:0 3 ] }
     in
     let frame =
       { Checkpoint.c_chosen = { Checkpoint.c_tid = 0; c_alt = 1; c_cost = 0 };
         c_rest = [ { Checkpoint.c_tid = 1; c_alt = 0; c_cost = 1 } ];
         c_sleep = Fairmc_util.Bitset.of_list [ 1 ];
         c_width = 3 }
     in
     let run q_item = Worker.Run { q_index = 2; q_attempt = 1; q_time_left = Some 0.5; q_item } in
     [ Worker.request_to_json (run (Checkpoint.Cursor [| frame; frame |]));
       Worker.request_to_json (run (Checkpoint.Range (3, 8)));
       Worker.request_to_json Worker.Quit;
       Worker.rest_to_json [ Checkpoint.Cursor [| frame |]; Checkpoint.Range (0, 2) ];
       response r;
       response
         { r with
           verdict = Report.Race { race; cex = Option.get (Report.cex r) };
           analysis =
             Some
               { Report.lock_order_edges = [];
                 potential_deadlock_cycles = [] } } ])

let decode_json j =
  (match Worker.request_of_json j with _ -> () | exception Checkpoint.Codec.Parse _ -> ());
  match Worker.reply_of_json j with _ -> () | exception Checkpoint.Codec.Parse _ -> ()

(* Push [bytes] through a pipe into the parent-side reassembly, decoding
   every frame that completes, until EOF or the first protocol error. *)
let decode_bytes bytes =
  let r, w = Unix.pipe () in
  Fun.protect
    ~finally:(fun () -> Unix.close r)
    (fun () ->
      let b = Bytes.of_string bytes in
      ignore (Unix.write w b 0 (Bytes.length b));
      Unix.close w;
      let buf = Worker.inbuf () in
      let rec pump () =
        match Worker.feed buf r with
        | `Eof -> ()
        | `Data _ ->
          let rec drain () =
            match Worker.extract buf with
            | Ok None -> pump ()
            | Error _ -> ()
            | Ok (Some j) ->
              decode_json j;
              drain ()
          in
          drain ()
      in
      pump ())

let frame_of payload = Printf.sprintf "%08x%s" (String.length payload) payload

let fuzz_props =
  let open QCheck in
  let json = Test_obs.json_gen in
  let mutated = Test_obs.mutated_gen (Lazy.force valid_docs) in
  let bytes =
    Gen.(
      oneof
        [ string_size (int_bound 256);
          (* a plausible header, then noise: reaches the JSON parser *)
          map frame_of (string_size (int_bound 256));
          map (fun j -> frame_of (J.to_string j)) json;
          map (fun j -> frame_of (J.to_string j)) mutated;
          (* a valid frame cut short or followed by garbage *)
          map2
            (fun j cut ->
              let f = frame_of (J.to_string j) in
              String.sub f 0 (min cut (String.length f)))
            mutated (int_bound 2048);
          map2 (fun j junk -> frame_of (J.to_string j) ^ junk) mutated string ])
  in
  let escapes f x =
    match f x with
    | () -> true
    | exception e -> Test.fail_reportf "escaped: %s" (Printexc.to_string e)
  in
  [ Test.make ~name:"ipc: random bytes through a pipe decode cleanly" ~count:400
      (make ~print:String.escaped bytes) (escapes decode_bytes);
    Test.make ~name:"ipc: random and mutated JSON decode cleanly" ~count:400
      (make ~print:J.to_string (Gen.oneof [ json; mutated ]))
      (escapes decode_json) ]

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

(* ------------------------------------------------------------------ *)
(* Frame reassembly at volume                                          *)
(* ------------------------------------------------------------------ *)

(* Every frame [buf] yields until it needs more bytes. *)
let drain_frames buf =
  let rec go acc =
    match Worker.extract buf with
    | Ok None -> List.rev acc
    | Ok (Some f) -> go (f :: acc)
    | Error e -> Alcotest.failf "frame rejected: %s" e
  in
  go []

let reassembly_tests =
  [ Alcotest.test_case "thousands of frames from one read, one frame over three" `Quick
      (fun () ->
        (* One read fills the 64 KiB buffer with ~3,600 frames. *)
        let n = 4_000 in
        let file = Filename.temp_file "fairmc_frames" ".bin" in
        Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
        let b = Buffer.create (n * 20) in
        for i = 0 to n - 1 do
          Worker.add_frame b (J.Obj [ ("i", J.Int i) ])
        done;
        Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc (Buffer.contents b));
        let fd = Unix.openfile file [ Unix.O_RDONLY ] 0 in
        Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
        let buf = Worker.inbuf () in
        let rec pump acc =
          match Worker.feed buf fd with
          | `Eof -> acc
          | `Data _ -> pump (acc @ [ drain_frames buf ])
        in
        let batches = pump [] in
        check "the first read completes thousands of frames" true
          (List.length (List.hd batches) > 3_000);
        List.iteri
          (fun i f ->
            match f with
            | J.Obj [ ("i", J.Int j) ] -> check_int "frame order" i j
            | _ -> Alcotest.fail "unexpected frame")
          (List.concat batches);
        check_int "frame count" n (List.length (List.concat batches));
        (* A frame cut in three, then a short one: nothing until the last
           third, then both, in order. *)
        let b = Buffer.create 64 in
        Worker.add_frame b (J.Obj [ ("k", J.Str "three feeds") ]);
        let json_len = Buffer.length b in
        Worker.add_frame b (J.Int 7);
        let bytes = Buffer.contents b in
        let r, w = Unix.pipe () in
        Fun.protect ~finally:(fun () -> Unix.close r; Unix.close w) @@ fun () ->
        let buf = Worker.inbuf () in
        let cuts = [ (0, 5); (5, json_len / 2); (json_len / 2, String.length bytes) ] in
        let got =
          List.map
            (fun (a, z) ->
              ignore (Unix.write_substring w bytes a (z - a));
              (match Worker.feed buf r with
               | `Data _ -> ()
               | `Eof -> Alcotest.fail "unexpected EOF");
              drain_frames buf)
            cuts
        in
        match got with
        | [ []; []; [ j; short ] ] ->
          check "the frame cut in three" true (J.equal j (J.Obj [ ("k", J.Str "three feeds") ]));
          check "the short frame" true (J.equal short (J.Int 7))
        | _ -> Alcotest.fail "frames did not reassemble in order") ]

(* ------------------------------------------------------------------ *)
(* The span gate, in the worker                                        *)
(* ------------------------------------------------------------------ *)

(* Every line a search at [workers] writes to a plain (non-collecting)
   streaming sink. *)
let stream_lines cfg prog =
  let lines = ref [] in
  let stream = Fairmc_obs.Events.create ~write:(fun l -> lines := l :: !lines) () in
  ignore (Checker.check ~config:{ cfg with Search_config.events = Some stream } prog);
  List.rev_map
    (fun l ->
      match Fairmc_obs.Events.of_line l with
      | Ok e -> e
      | Error e -> Alcotest.failf "unparseable event line %S: %s" l e)
    !lines

let span_phase (e : Fairmc_obs.Events.event) =
  match e.data with
  | J.Obj kv -> (match List.assoc_opt "phase" kv with Some (J.Str p) -> p | _ -> "?")
  | _ -> "?"

let span_gate_tests =
  let prog () = W.Dining.coverage_program ~n:2 in
  [ Alcotest.test_case "--workers 2, plain stream: no worker spans, the sequential det slice"
      `Quick (fun () ->
        let seq = stream_lines base (prog ()) in
        let sup = stream_lines { base with Search_config.workers = 2 } (prog ()) in
        check "the search ran on workers" true
          (List.exists (fun (e : Fairmc_obs.Events.event) -> e.kind = "worker_spawn") sup);
        List.iter
          (fun (e : Fairmc_obs.Events.event) ->
            if e.kind = "span" && e.shard >= 0 then
              Alcotest.failf "a worker shipped a %s span" (span_phase e))
          sup;
        check "sequence numbers are gap-free" true
          (List.mapi (fun i (e : Fairmc_obs.Events.event) -> e.seq = i) sup
          |> List.for_all Fun.id);
        Alcotest.(check (list string)) "det slice" (Test_telemetry.det_slice seq)
          (Test_telemetry.det_slice sup));
    Alcotest.test_case "--workers 2 --trace-spans: worker replay and fresh slices render"
      `Quick (fun () ->
        let stream = Fairmc_obs.Events.create ~collect:true () in
        ignore
          (Checker.check
             ~config:{ base with Search_config.workers = 2; events = Some stream }
             (prog ()));
        let evs = Fairmc_obs.Events.collected stream in
        let worker_phases =
          List.sort_uniq compare
            (List.filter_map
               (fun (e : Fairmc_obs.Events.event) ->
                 if e.kind = "span" && e.shard >= 0 then Some (span_phase e) else None)
               evs)
        in
        check "replay slices from the workers" true (List.mem "replay" worker_phases);
        check "fresh slices from the workers" true (List.mem "fresh" worker_phases);
        let slices =
          match Fairmc_obs.Span.to_trace evs with
          | J.Obj kv ->
            (match List.assoc_opt "traceEvents" kv with
             | Some (J.Arr items) ->
               List.filter_map
                 (function
                   | J.Obj f when List.assoc_opt "ph" f = Some (J.Str "X") ->
                     (match List.assoc_opt "name" f with Some (J.Str n) -> Some n | _ -> None)
                   | _ -> None)
                 items
             | _ -> [])
          | _ -> []
        in
        check "replay slices render" true (List.mem "replay" slices);
        check "fresh slices render" true (List.mem "fresh" slices)) ]

(* Once an error is found, the workers on items above it are killed; a
   replacement that no live item is waiting for would be forked only to
   be torn down. *)
let cancel_tests =
  [ Alcotest.test_case "a cancelled worker is not replaced when no live item is left" `Quick
      (fun () ->
        let supervised what prog =
          let seq = Search.run Search_config.default prog in
          let sup =
            Supervisor.run { Search_config.default with workers = 2; metrics = true } prog
          in
          check (what ^ ": same verdict and counterexample") true (seq.verdict = sup.verdict);
          let spawns = gauge sup "sup/spawns" in
          if spawns > 2 then Alcotest.failf "%s: %d workers forked for two slots" what spawns;
          check_int (what ^ ": no restarts") 0 (gauge sup "sup/restarts");
          sup
        in
        (* The first path fails at once (thread a runs before y is set);
           every other item is a long search, so the second worker is
           always cancelled mid-item. *)
        let early =
          "var x = 0; var y = 0;\n\
           thread a { x = 1; x = 2; x = 3; x = 4; assert(y == 1, \"a ran first\"); }\n\
           thread b { y = 1; local i = 0; while (i < 40) { x = x + 1; i = i + 1; } }\n\
           thread c { local j = 0; while (j < 40) { y = y + 0; j = j + 1; } }"
        in
        ignore (supervised "early error" (Fairmc_static.load_string early));
        match
          List.find_opt Sys.file_exists [ "../../../examples/programs"; "examples/programs" ]
        with
        | None -> ()
        | Some dir ->
          let sup =
            supervised "stale_flag_livelock"
              (Fairmc_static.load_file (Filename.concat dir "stale_flag_livelock.chess"))
          in
          check_str "livelock" "livelock" (Report.verdict_key sup.verdict)) ]

(* ------------------------------------------------------------------ *)
(* Numbers that fabricate a verdict are usage errors                    *)
(* ------------------------------------------------------------------ *)

let validation_tests =
  [ Alcotest.test_case "numbers that fabricate a verdict are usage errors" `Quick (fun () ->
        (* Each of these once printed a verdict for a search that explored
           nothing, or crashed at -j 2. Negatives go in --opt=-1 form:
           cmdliner reads a bare -1 as a flag. *)
        List.iter
          (fun args -> run_cli ~expect:124 ("fig3" :: "-q" :: args))
          [ [ "-s"; "cb:-1" ];
            [ "--max-steps"; "0" ];
            [ "--livelock-bound"; "0" ];
            [ "-s"; "random:0"; "-j"; "2" ];
            [ "-s"; "prio:0"; "-j"; "2" ];
            [ "--max-execs"; "0" ];
            [ "--max-execs"; "0"; "-j"; "2" ];
            [ "--no-fair"; "--depth-bound=-1" ];
            [ "--max-retries=-1" ];
            [ "--time-limit=-1" ];
            [ "--time-limit"; "nan" ];
            [ "--item-timeout"; "0" ] ];
        List.iter
          (fun args -> run_cli ~expect:0 ("fig3" :: "-q" :: args))
          [ [ "-s"; "cb:0" ];
            [ "--no-fair"; "--depth-bound"; "0" ];
            [ "--max-retries"; "0" ];
            [ "--time-limit"; "0" ];
            [ "-s"; "random:1"; "-j"; "2" ] ]);
    Alcotest.test_case "submit takes only the flags a job carries" `Quick (fun () ->
        (* The job document has no place for these: accepted, they were
           dropped on the way to the daemon. *)
        List.iter
          (fun args -> run_cli ~command:"submit" ~expect:124 ("fig3" :: args))
          [ [ "--checkpoint"; "x" ];
            [ "--checkpoint-interval"; "1" ];
            [ "--progress" ];
            [ "--progress-interval"; "2" ];
            [ "--inject-fault"; "crash" ] ];
        (* Without them the command line parses and fails to reach a
           daemon instead. *)
        run_cli ~command:"submit" ~expect:1
          [ "fig3"; "--workers"; "2"; "--socket"; "/nonexistent/chessd.sock" ]) ]

(* Alcotest numbers the tests by position and the number is part of how a
   run names them: keep existing positions stable and append new tests. *)
let suite =
  equivalence_tests @ fault_matrix_tests @ quarantine_tests @ interrupt_tests
  @ dispatch_tests @ budget_tests @ save_hardening_tests @ retry_tests
  @ resource_tests @ protocol_tests @ limit_tests
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) fuzz_props
  @ reassembly_tests @ span_gate_tests @ cancel_tests @ validation_tests
