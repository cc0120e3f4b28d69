(* Checking-as-a-service tests: fairmc-jobs/1 codec round-trips
   (property-based), job identity (budgets excluded, strategy included),
   daemon survival of garbled and truncated frames, and fingerprint dedup
   — two identical submissions share one search and every subscriber gets
   the same final report.

   The daemon runs as the real chessd binary in a subprocess — the same
   thing CI and users run. *)

module Serve = Fairmc_serve
module P = Serve.Protocol
module JS = Serve.Jobspec
module J = Fairmc_util.Json
module R = Fairmc_util.Rng
module Retry = Fairmc_util.Retry
module C = Fairmc_core.Search_config
module Worker = Fairmc_core.Worker
module AH = Fairmc_core.Analysis_hook

let check = Alcotest.(check bool)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Generators: pseudo-random specs and frames derived from a seed.     *)

let gen_opt rng f = if R.bool rng then Some (f rng) else None

let gen_mode rng =
  match R.int rng 5 with
  | 0 -> C.Dfs
  | 1 -> C.Round_robin
  | 2 -> C.Context_bounded (R.int rng 10)
  | 3 -> C.Random_walk (1 + R.int rng 1_000)
  | _ -> C.Priority_random (1 + R.int rng 1_000)

let analysis_names =
  List.map
    (fun (a : AH.t) -> a.AH.name)
    [ Fairmc_analysis.Hb_race.analysis; Fairmc_analysis.Lockset.analysis;
      Fairmc_analysis.Lock_graph.analysis ]

(* Eighths: finite and exactly representable, so JSON round-trips. *)
let gen_float8 rng = float_of_int (R.int rng 1024) /. 8.

let gen_spec rng =
  { JS.js_program =
      (match R.int rng 3 with
       | 0 -> "fig3"
       | 1 -> "examples/programs/peterson.chess"
       | _ -> "wsq-1s-correct");
    js_mode = gen_mode rng;
    js_fair = R.bool rng;
    js_fair_k = 1 + R.int rng 4;
    js_depth_bound = gen_opt rng (fun r -> R.int r 100);
    js_random_tail = R.bool rng;
    js_max_steps = 1 + R.int rng 100_000;
    js_livelock_bound = gen_opt rng (fun r -> R.int r 10_000);
    js_tail_window = R.int rng 100;
    js_max_executions = gen_opt rng (fun r -> R.int r 100_000);
    js_time_limit = gen_opt rng gen_float8;
    js_seed = R.next_int64 rng;
    js_sleep_sets = R.bool rng;
    js_coverage = R.bool rng;
    js_metrics = R.bool rng;
    js_jobs = 1 + R.int rng 4;
    js_split_depth = R.int rng 10;
    js_workers = 1 + R.int rng 4;
    js_item_timeout = gen_opt rng gen_float8;
    js_max_retries = R.int rng 5;
    js_analyses = List.filter (fun _ -> R.bool rng) analysis_names;
    js_interp = (if R.bool rng then C.Vm else C.Ast);
    js_static_por = R.bool rng }

let gen_job_state rng =
  match R.int rng 4 with
  | 0 -> P.Queued
  | 1 -> P.Running
  | 2 -> P.Done
  | _ -> P.Failed

let gen_id rng = Printf.sprintf "j%016Lx" (R.next_int64 rng)

let gen_job_info rng =
  { P.ji_id = gen_id rng;
    ji_program = "fig3";
    ji_state = gen_job_state rng;
    ji_priority = R.int rng 100 - 50;
    ji_attempts = R.int rng 4;
    ji_subscribers = R.int rng 8;
    ji_verdict = gen_opt rng (fun _ -> "verified") }

let gen_request rng =
  match R.int rng 7 with
  | 0 -> P.Hello
  | 1 -> P.Submit { spec = gen_spec rng; priority = R.int rng 100 - 50 }
  | 2 -> P.Jobs
  | 3 -> P.Status (gen_id rng)
  | 4 -> P.Watch { job = gen_id rng; events = R.bool rng }
  | 5 -> P.Cancel (gen_id rng)
  | _ -> P.Shutdown

(* A small arbitrary report document: the codec treats it as opaque. *)
let gen_doc rng =
  J.Obj [ ("schema", J.Str "fairmc-report/2"); ("n", J.Int (R.int rng 1000)) ]

let gen_message rng =
  match R.int rng 10 with
  | 0 -> P.Hello_ok { pid = R.int rng 65536; version = "1.0.0" }
  | 1 -> P.Submitted { job = gen_id rng; state = gen_job_state rng; deduped = R.bool rng }
  | 2 ->
    P.Job_list (List.init (R.int rng 4) (fun _ -> gen_job_info rng))
  | 3 -> P.Job_status (gen_job_info rng)
  | 4 -> P.Watching { job = gen_id rng; state = gen_job_state rng }
  | 5 -> P.Event "{\"kind\":\"run_start\"}"
  | 6 ->
    P.Job_done
      { job = gen_id rng; verdict = "verified"; found_error = R.bool rng;
        interrupted = R.bool rng; rendered = "result: verified";
        report = gen_doc rng }
  | 7 -> P.Cancelled { job = gen_id rng }
  | 8 -> P.Error_msg "unknown job"
  | _ -> P.Bye

let gen_runner rng =
  match R.int rng 2 with
  | 0 ->
    P.R_done
      { verdict = "safety"; found_error = R.bool rng; interrupted = R.bool rng;
        rendered = "result: assertion failed"; report = gen_doc rng }
  | _ -> P.R_failed "runner exploded"

let roundtrip ~name ~gen ~to_json ~of_json =
  QCheck.Test.make ~name ~count:300 QCheck.small_int (fun seed ->
      let rng = R.make (Int64.of_int (seed + 1)) in
      let v = gen rng in
      let j = to_json v in
      let v' = of_json j in
      v = v' && J.equal (to_json v') j)

let qprops =
  [ roundtrip ~name:"job spec JSON round-trips" ~gen:gen_spec
      ~to_json:JS.to_json ~of_json:JS.of_json;
    roundtrip ~name:"requests round-trip" ~gen:gen_request
      ~to_json:P.request_to_json ~of_json:P.request_of_json;
    roundtrip ~name:"server messages round-trip" ~gen:gen_message
      ~to_json:P.message_to_json ~of_json:P.message_of_json;
    roundtrip ~name:"runner messages round-trip" ~gen:gen_runner
      ~to_json:P.runner_to_json ~of_json:P.runner_of_json ]

(* ------------------------------------------------------------------ *)
(* Job identity: the dedup contract.                                   *)

let identity_tests =
  let spec = JS.of_config ~program:"fig3" C.default in
  [ Alcotest.test_case "budgets and vehicle do not change the job id" `Quick
      (fun () ->
        let base = JS.id spec ~program_name:"fig3" in
        let budgeted =
          { spec with
            JS.js_max_executions = Some 5; js_time_limit = Some 1.;
            js_jobs = 4; js_workers = 3 }
        in
        check_str "id" base (JS.id budgeted ~program_name:"fig3"));
    Alcotest.test_case "the strategy does change the job id" `Quick (fun () ->
        let base = JS.id spec ~program_name:"fig3" in
        let cb = { spec with JS.js_mode = C.Context_bounded 2 } in
        check "cb:2 gets its own id" true (base <> JS.id cb ~program_name:"fig3");
        check "another program gets its own id" true
          (base <> JS.id spec ~program_name:"fig4"));
    Alcotest.test_case "validate rejects unknown analyses" `Quick (fun () ->
        (match JS.validate { spec with JS.js_analyses = [ "made-up" ] } with
         | Error _ -> ()
         | Ok () -> Alcotest.fail "expected an error");
        check "known analyses pass" true
          (JS.validate { spec with JS.js_analyses = analysis_names } = Ok ())) ]

(* ------------------------------------------------------------------ *)
(* Daemon subprocess harness                                           *)
(* ------------------------------------------------------------------ *)

let chessd =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "chessd.exe")

let fresh_dir () =
  let dir = Filename.temp_file "fairmc_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

(* A daemon over [dir]'s socket and spool; a fresh directory unless one is
   given, so a second daemon can take over the first one's spool. *)
let with_daemon ?(dir = fresh_dir ()) f =
  if not (Sys.file_exists chessd) then Alcotest.skip ();
  let socket = Filename.concat dir "d.sock" in
  let spool = Filename.concat dir "spool" in
  let dev_null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process chessd
      [| chessd; "--socket"; socket; "--spool"; spool; "--quiet" |]
      Unix.stdin dev_null dev_null
  in
  Unix.close dev_null;
  let rec wait_sock n =
    if not (Sys.file_exists socket) then
      if n = 0 then Alcotest.fail "chessd did not create its socket"
      else begin
        Unix.sleepf 0.05;
        wait_sock (n - 1)
      end
  in
  wait_sock 100;
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      try ignore (Retry.eintr (fun () -> Unix.waitpid [] pid))
      with Unix.Unix_error _ -> ())
    (fun () -> f ~socket ~pid)

(* (verdict, rendered, report) of the terminal frame. *)
let rec await_done fd =
  match Serve.Client.next fd with
  | P.Job_done { verdict; rendered; report; _ } -> (verdict, rendered, report)
  | P.Watching _ | P.Event _ -> await_done fd
  | m ->
    Alcotest.failf "unexpected message while watching: %s"
      (J.to_string (P.message_to_json m))

(* ------------------------------------------------------------------ *)
(* Robustness: a bad client costs itself its connection, not the server *)
(* ------------------------------------------------------------------ *)

let write_all fd s =
  ignore (Retry.eintr (fun () -> Unix.write_substring fd s 0 (String.length s)))

let raw_connect socket =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX socket);
  fd

let robustness_tests =
  [ Alcotest.test_case "garbled frame: error reply, connection dropped, server alive"
      `Quick (fun () ->
        with_daemon @@ fun ~socket ~pid:_ ->
        let fd = raw_connect socket in
        (* Not a fairmc-ipc/1 header: the first 8 bytes are not hex. *)
        write_all fd "zzzzzzzz{\"op\":\"hello\"}";
        (match Worker.recv fd with
         | Ok (Some j) ->
           (match P.message_of_json j with
            | P.Error_msg _ -> ()
            | m ->
              Alcotest.failf "expected an error reply, got %s"
                (J.to_string (P.message_to_json m)))
         | Ok None -> Alcotest.fail "dropped without an error reply"
         | Error e -> Alcotest.failf "garbled reply: %s" e);
        (* ... and the connection is closed behind it. *)
        check "connection closed" true
          (match Worker.recv fd with Ok None -> true | _ -> false);
        Unix.close fd;
        (* A well-formed frame that is not a valid request also answers
           with an error, not a crash. *)
        let fd = raw_connect socket in
        Worker.send fd (J.Obj [ ("op", J.Str "no-such-op") ]);
        (match Worker.recv fd with
         | Ok (Some j) ->
           (match P.message_of_json j with
            | P.Error_msg _ -> ()
            | _ -> Alcotest.fail "expected an error reply")
         | _ -> Alcotest.fail "expected an error reply before the drop");
        Unix.close fd;
        (* The server must still complete a fresh handshake. *)
        let ok = Serve.Client.connect socket in
        Serve.Client.close ok);
    Alcotest.test_case "truncated frame: silent drop, server alive" `Quick
      (fun () ->
        with_daemon @@ fun ~socket ~pid:_ ->
        let fd = raw_connect socket in
        (* A header promising 4096 bytes, then EOF after 10. *)
        write_all fd "00001000{\"op\":\"he";
        Unix.shutdown fd Unix.SHUTDOWN_SEND;
        check "dropped on EOF mid-frame" true
          (match Worker.recv fd with Ok None -> true | Error _ -> true | _ -> false);
        Unix.close fd;
        let ok = Serve.Client.connect socket in
        Serve.Client.close ok) ]

(* ------------------------------------------------------------------ *)
(* Dedup: one search, many subscribers, identical reports              *)
(* ------------------------------------------------------------------ *)

let dedup_tests =
  [ Alcotest.test_case
      "identical submissions share one search; both subscribers get one report"
      `Quick (fun () ->
        with_daemon @@ fun ~socket ~pid:_ ->
        let a = Serve.Client.connect socket in
        let b = Serve.Client.connect socket in
        Fun.protect
          ~finally:(fun () ->
            Serve.Client.close a;
            Serve.Client.close b)
          (fun () ->
            let spec = JS.of_config ~program:"fig3" C.default in
            Serve.Client.request a (P.Submit { spec; priority = 0 });
            let job_a =
              match Serve.Client.next a with
              | P.Submitted { job; deduped; _ } ->
                check "first submission is fresh" false deduped;
                job
              | m ->
                Alcotest.failf "unexpected reply: %s"
                  (J.to_string (P.message_to_json m))
            in
            (* Same search, different budgets and worker count: must attach
               to the same job, whatever state it has reached. *)
            let spec_b =
              { spec with JS.js_max_executions = Some 999_999; js_workers = 2 }
            in
            Serve.Client.request b (P.Submit { spec = spec_b; priority = 7 });
            (match Serve.Client.next b with
             | P.Submitted { job; deduped; _ } ->
               check "second submission dedupes" true deduped;
               check_str "same job id" job_a job
             | m ->
               Alcotest.failf "unexpected reply: %s"
                 (J.to_string (P.message_to_json m)));
            Serve.Client.request a (P.Watch { job = job_a; events = false });
            Serve.Client.request b (P.Watch { job = job_a; events = true });
            let verdict_a, rendered_a, report_a = await_done a in
            let _, rendered_b, report_b = await_done b in
            check_str "verdict" "verified" verdict_a;
            check_str "same rendered report" rendered_a rendered_b;
            check "same report document" true (J.equal report_a report_b);
            (* The jobs table agrees: one job, done. *)
            Serve.Client.request a P.Jobs;
            match Serve.Client.next a with
            | P.Job_list [ i ] ->
              check_str "job id" job_a i.P.ji_id;
              check "done" true (i.P.ji_state = P.Done);
              check_str "verdict" "verified" (Option.value i.P.ji_verdict ~default:"?")
            | m ->
              Alcotest.failf "unexpected jobs reply: %s"
                (J.to_string (P.message_to_json m))));
    Alcotest.test_case "a late events subscriber replays the full backlog" `Quick
      (fun () ->
        with_daemon @@ fun ~socket ~pid:_ ->
        Serve.Client.with_daemon socket @@ fun fd ->
        let spec = JS.of_config ~program:"fig3" C.default in
        Serve.Client.request fd (P.Submit { spec; priority = 0 });
        let job =
          match Serve.Client.next fd with
          | P.Submitted { job; _ } -> job
          | _ -> Alcotest.fail "expected a submitted reply"
        in
        (* First watch: just wait until the job is finished. *)
        Serve.Client.request fd (P.Watch { job; events = false });
        ignore (await_done fd);
        (* Second watch, events on, after completion: the backlog must
           replay the whole fairmc-events/1 stream before the report. *)
        Serve.Client.request fd (P.Watch { job; events = true });
        let events = ref [] in
        let rec drain () =
          match Serve.Client.next fd with
          | P.Event line -> events := line :: !events; drain ()
          | P.Watching _ -> drain ()
          | P.Job_done _ -> ()
          | m ->
            Alcotest.failf "unexpected message: %s"
              (J.to_string (P.message_to_json m))
        in
        drain ();
        check "backlog is non-empty" true (!events <> []);
        let kinds =
          List.filter_map
            (fun line ->
              match J.of_string line with
              | Ok (J.Obj kvs) ->
                (match List.assoc_opt "kind" kvs with
                 | Some (J.Str k) -> Some k
                 | _ -> None)
              | _ -> None)
            !events
        in
        check "stream starts with run_start" true (List.mem "run_start" kinds);
        check "stream carries the run_end" true (List.mem "run_end" kinds)) ]

(* ------------------------------------------------------------------ *)
(* A spec no search accepts is refused, not queued                      *)
(* ------------------------------------------------------------------ *)

let fair_k_tests =
  let spec = JS.of_config ~program:"fig3" C.default in
  [ Alcotest.test_case "validate rejects fair_k < 1" `Quick (fun () ->
        List.iter
          (fun k ->
            match JS.validate { spec with JS.js_fair_k = k } with
            | Error _ -> ()
            | Ok () -> Alcotest.failf "fair_k = %d accepted" k)
          [ 0; -1 ];
        check "fair_k = 2 passes" true (JS.validate { spec with JS.js_fair_k = 2 } = Ok ()));
    Alcotest.test_case "invalid spec (k = 0): error reply, nothing queued" `Quick
      (fun () ->
        with_daemon @@ fun ~socket ~pid:_ ->
        Serve.Client.with_daemon socket @@ fun fd ->
        Serve.Client.request fd (P.Submit { spec = { spec with JS.js_fair_k = 0 }; priority = 0 });
        (match Serve.Client.next fd with
         | P.Error_msg _ -> ()
         | m ->
           Alcotest.failf "expected an error reply, got %s"
             (J.to_string (P.message_to_json m)));
        Serve.Client.request fd P.Jobs;
        match Serve.Client.next fd with
        | P.Job_list [] -> ()
        | m -> Alcotest.failf "expected no jobs, got %s" (J.to_string (P.message_to_json m)));
    Alcotest.test_case "oversized ChessLang storage: error reply, daemon serves on" `Quick
      (fun () ->
        (* The daemon resolves programs in its own process: a static error
           must come back as a reply, not take the daemon down. *)
        let file = Filename.temp_file "fairmc_serve" ".chess" in
        Out_channel.with_open_bin file (fun oc ->
            output_string oc "array q[99999999999] = 1;\nthread t { skip; }\n");
        Fun.protect ~finally:(fun () -> Sys.remove file) @@ fun () ->
        with_daemon @@ fun ~socket ~pid ->
        Serve.Client.with_daemon socket @@ fun fd ->
        Serve.Client.request fd
          (P.Submit { spec = JS.of_config ~program:file C.default; priority = 0 });
        (match Serve.Client.next fd with
         | P.Error_msg _ -> ()
         | m ->
           Alcotest.failf "expected an error reply, got %s"
             (J.to_string (P.message_to_json m)));
        check "daemon alive" true
          (match Unix.waitpid [ Unix.WNOHANG ] pid with
           | 0, _ -> true
           | _ -> false);
        Serve.Client.request fd (P.Submit { spec; priority = 0 });
        match Serve.Client.next fd with
        | P.Submitted _ -> ()
        | m ->
          Alcotest.failf "expected the next job accepted, got %s"
            (J.to_string (P.message_to_json m))) ]

(* ------------------------------------------------------------------ *)
(* The spooled event backlog                                           *)
(* ------------------------------------------------------------------ *)

let submit fd spec =
  Serve.Client.request fd (P.Submit { spec; priority = 0 });
  match Serve.Client.next fd with
  | P.Submitted { job; _ } -> job
  | m -> Alcotest.failf "unexpected reply: %s" (J.to_string (P.message_to_json m))

(* Watch [job] with events to its end: the Event lines in order, the
   terminal message, and the event count at which [at] (if given) ran. *)
let watch_events ?at fd job =
  Serve.Client.request fd (P.Watch { job; events = true });
  let rec go acc n =
    (match at with Some (k, f) when n = k -> f () | _ -> ());
    match Serve.Client.next fd with
    | P.Watching _ -> go acc n
    | P.Event line -> go (line :: acc) (n + 1)
    | m -> (List.rev acc, m)
  in
  go [] 0

let kind_of line =
  match Fairmc_obs.Events.of_line line with
  | Ok e -> e.Fairmc_obs.Events.kind
  | Error e -> Alcotest.failf "not an event line (%s): %S" e line

let backlog_file dir job = Filename.concat (Filename.concat dir "spool") (job ^ ".events")

(* Processes whose parent is [pid], from /proc. *)
let children_of pid =
  let parent_of child =
    match
      In_channel.with_open_bin (Printf.sprintf "/proc/%d/stat" child) In_channel.input_all
    with
    | exception Sys_error _ -> None
    | stat ->
      (* "pid (comm) state ppid ...", and comm may hold spaces. *)
      let i = String.rindex stat ')' + 2 in
      (match String.split_on_char ' ' (String.sub stat i (String.length stat - i)) with
       | _state :: ppid :: _ -> int_of_string_opt ppid
       | _ -> None)
  in
  List.filter
    (fun child -> parent_of child = Some pid)
    (List.filter_map int_of_string_opt (Array.to_list (Sys.readdir "/proc")))

let backlog_tests =
  [ Alcotest.test_case "after a restart, a late subscriber replays the live stream byte for byte"
      `Quick (fun () ->
        let dir = fresh_dir () in
        let spec =
          JS.of_config ~program:"dining-3-ordered" { C.default with C.workers = 2 }
        in
        let live, job =
          with_daemon ~dir @@ fun ~socket ~pid:_ ->
          Serve.Client.with_daemon socket @@ fun fd ->
          let job = submit fd spec in
          let lines, last = watch_events fd job in
          (match last with P.Job_done _ -> () | _ -> Alcotest.fail "job did not finish");
          (lines, job)
        in
        check "the stream spans several chunks" true
          (List.fold_left (fun a l -> a + String.length l + 1) 0 live
           > 2 * Fairmc_obs.Events.chunk_cap);
        with_daemon ~dir @@ fun ~socket ~pid:_ ->
        Serve.Client.with_daemon socket @@ fun fd ->
        let replayed, last = watch_events fd job in
        (match last with P.Job_done _ -> () | _ -> Alcotest.fail "restored job not done");
        check "same line count" true (List.length replayed = List.length live);
        check "byte for byte, in order" true (List.equal String.equal replayed live);
        check_str "starts with run_start" "run_start" (kind_of (List.hd replayed));
        check_str "ends with run_end" "run_end" (kind_of (List.nth replayed (List.length replayed - 1))));
    Alcotest.test_case "a runner killed mid-job leaves every line it sent, no partial line"
      `Quick (fun () ->
        let dir = fresh_dir () in
        with_daemon ~dir @@ fun ~socket ~pid ->
        Serve.Client.with_daemon socket @@ fun fd ->
        let spec =
          JS.of_config ~program:"wsq-1s-correct"
            { C.default with C.max_executions = Some 20_000 }
        in
        let job = submit fd spec in
        let killed = ref [] in
        let kill () =
          killed := children_of pid;
          List.iter (fun p -> try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ()) !killed
        in
        let lines, last = watch_events ~at:(2_000, kill) fd job in
        check "the runner was killed" true (!killed <> []);
        (match last with
         | P.Job_done _ -> ()
         | m -> Alcotest.failf "retry did not finish: %s" (J.to_string (P.message_to_json m)));
        let file = In_channel.with_open_bin (backlog_file dir job) In_channel.input_all in
        check "the backlog ends a line" true (file.[String.length file - 1] = '\n');
        let spooled = String.split_on_char '\n' file |> List.filter (( <> ) "") in
        (* Every spooled line is whole, and it is what the subscriber got. *)
        List.iter (fun l -> ignore (kind_of l)) spooled;
        check "the subscriber got the backlog, in order" true (List.equal String.equal spooled lines);
        check "two attempts, one backlog" true
          (List.length (List.filter (fun l -> kind_of l = "run_start") spooled) = 2));
    Alcotest.test_case "the done frame never overtakes a buffered event" `Quick (fun () ->
        with_daemon @@ fun ~socket ~pid:_ ->
        Serve.Client.with_daemon socket @@ fun fd ->
        List.iter
          (fun (program, cfg) ->
            let job = submit fd (JS.of_config ~program cfg) in
            let lines, last = watch_events fd job in
            match last with
            | P.Job_done { report; _ } ->
              check_str (program ^ ": run_end comes last") "run_end"
                (kind_of (List.nth lines (List.length lines - 1)));
              let paths = List.length (List.filter (fun l -> kind_of l = "path") lines) in
              (match report with
               | J.Obj kv ->
                 (match List.assoc_opt "stats" kv with
                  | Some (J.Obj st) ->
                    check (program ^ ": a path event per execution") true
                      (List.assoc_opt "executions" st = Some (J.Int paths))
                  | _ -> Alcotest.fail "report without stats")
               | _ -> Alcotest.fail "report is not an object")
            | m -> Alcotest.failf "%s: %s" program (J.to_string (P.message_to_json m)))
          [ ("fig3", C.default);
            ("dining-3-ordered", C.default);
            ("dining-3-ordered", { C.default with C.workers = 2; mode = C.Context_bounded 2 });
            ("wsq-1s-correct", { C.default with C.workers = 2; max_executions = Some 3_000 }) ]) ]

let suite =
  identity_tests @ robustness_tests @ dedup_tests
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qprops
  @ fair_k_tests @ backlog_tests
