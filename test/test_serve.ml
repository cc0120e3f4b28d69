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
module CK = Fairmc_core.Checkpoint
module Report = Fairmc_core.Report

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

let analyses =
  [ Fairmc_analysis.Hb_race.analysis; Fairmc_analysis.Lockset.analysis;
    Fairmc_analysis.Lock_graph.analysis ]

let analysis_names = List.map (fun (a : AH.t) -> a.AH.name) analyses

(* Eighths: finite and exactly representable, so JSON round-trips. *)
let gen_float8 rng = float_of_int (R.int rng 1024) /. 8.

let gen_spec rng =
  { JS.program =
      (match R.int rng 3 with
       | 0 -> "fig3"
       | 1 -> "examples/programs/peterson.chess"
       | _ -> "wsq-1s-correct");
    config =
      { C.default with
        C.mode = gen_mode rng;
        fair = R.bool rng;
        fair_k = 1 + R.int rng 4;
        depth_bound = gen_opt rng (fun r -> R.int r 100);
        max_steps = 1 + R.int rng 100_000;
        livelock_bound = gen_opt rng (fun r -> R.int r 10_000);
        max_executions = gen_opt rng (fun r -> R.int r 100_000);
        time_limit = gen_opt rng gen_float8;
        seed = R.next_int64 rng;
        sleep_sets = R.bool rng;
        coverage = R.bool rng;
        metrics = R.bool rng;
        jobs = 1 + R.int rng 4;
        workers = 1 + R.int rng 4;
        item_timeout = gen_opt rng gen_float8;
        max_retries = R.int rng 5;
        analyses = List.filter (fun _ -> R.bool rng) analyses;
        static_por = R.bool rng } }

(* Specs compare by value, their analyses (records of closures) by name. *)
let spec_equal (a : JS.t) (b : JS.t) =
  let names (s : JS.t) = List.map (fun (x : AH.t) -> x.AH.name) s.JS.config.C.analyses in
  let plain (s : JS.t) = (s.JS.program, { s.JS.config with C.analyses = [] }) in
  plain a = plain b && names a = names b

let request_equal a b =
  match (a, b) with
  | P.Submit x, P.Submit y -> x.priority = y.priority && spec_equal x.spec y.spec
  | a, b -> a = b

let with_config (s : JS.t) f = { s with JS.config = f s.JS.config }

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

let roundtrip ?(equal = ( = )) ~name ~gen ~to_json ~of_json () =
  QCheck.Test.make ~name ~count:300 QCheck.small_int (fun seed ->
      let rng = R.make (Int64.of_int (seed + 1)) in
      let v = gen rng in
      let j = to_json v in
      let v' = of_json j in
      equal v v' && J.equal (to_json v') j)

let qprops =
  [ roundtrip ~equal:spec_equal ~name:"job spec JSON round-trips" ~gen:gen_spec
      ~to_json:JS.to_json ~of_json:JS.of_json ();
    roundtrip ~equal:request_equal ~name:"requests round-trip" ~gen:gen_request
      ~to_json:P.request_to_json ~of_json:P.request_of_json ();
    roundtrip ~name:"server messages round-trip" ~gen:gen_message
      ~to_json:P.message_to_json ~of_json:P.message_of_json () ]

(* ------------------------------------------------------------------ *)
(* Job identity: the dedup contract.                                   *)

let identity_tests =
  let spec = JS.of_config ~program:"fig3" C.default in
  [ Alcotest.test_case "budgets and vehicle do not change the job id" `Quick
      (fun () ->
        let base = JS.id spec ~program_name:"fig3" in
        let budgeted =
          with_config spec (fun c ->
              { c with C.max_executions = Some 5; time_limit = Some 1.; jobs = 4; workers = 3 })
        in
        check_str "id" base (JS.id budgeted ~program_name:"fig3"));
    Alcotest.test_case "the strategy does change the job id" `Quick (fun () ->
        let base = JS.id spec ~program_name:"fig3" in
        let cb = with_config spec (fun c -> { c with C.mode = C.Context_bounded 2 }) in
        check "cb:2 gets its own id" true (base <> JS.id cb ~program_name:"fig3");
        check "another program gets its own id" true
          (base <> JS.id spec ~program_name:"fig4"));
    Alcotest.test_case "validate rejects unknown analyses" `Quick (fun () ->
        (* Unknown names are rejected while decoding, before validate. *)
        let with_analyses names =
          match JS.to_json spec with
          | J.Obj kv ->
            J.Obj
              (List.map
                 (fun (k, v) ->
                   if k = "analyses" then (k, J.Arr (List.map (fun n -> J.Str n) names))
                   else (k, v))
                 kv)
          | _ -> Alcotest.fail "a spec encodes as an object"
        in
        (match JS.of_json (with_analyses [ "made-up" ]) with
         | exception Fairmc_core.Checkpoint.Codec.Parse _ -> ()
         | _ -> Alcotest.fail "expected an error");
        check "known analyses pass" true
          (let decoded = JS.of_json (with_analyses analysis_names) in
           JS.validate decoded = Ok ()
           && List.map (fun (a : AH.t) -> a.AH.name) decoded.JS.config.C.analyses
              = analysis_names)) ]

(* ------------------------------------------------------------------ *)
(* Daemon subprocess harness                                           *)
(* ------------------------------------------------------------------ *)

let chessd =
  Filename.concat
    (Filename.dirname (Filename.dirname Sys.executable_name))
    (Filename.concat "bin" "chessd.exe")

(* Remove [path] and everything under it, as far as it can. *)
let rec rm_rf path =
  try
    if (Unix.lstat path).Unix.st_kind = Unix.S_DIR then begin
      Array.iter (fun name -> rm_rf (Filename.concat path name)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Unix.unlink path
  with Unix.Unix_error _ | Sys_error _ -> ()

(* [f] over a fresh directory, removed with its socket, spool, reports and
   backlogs when [f] ends, passed or failed. *)
let with_dir f =
  let dir = Filename.temp_file "fairmc_serve" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* A daemon over [dir]'s socket and spool, stopped when [f] ends. *)
let daemon_in dir args f =
  if not (Sys.file_exists chessd) then Alcotest.skip ();
  let socket = Filename.concat dir "d.sock" in
  let spool = Filename.concat dir "spool" in
  let dev_null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process chessd
      (Array.of_list ([ chessd; "--socket"; socket; "--spool"; spool; "--quiet" ] @ args))
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

(* A daemon over a fresh directory, or over [dir] so that a second daemon
   can take over the first one's spool (the caller's [with_dir] removes
   it). *)
let with_daemon ?dir ?(args = []) f =
  match dir with
  | Some dir -> daemon_in dir args f
  | None -> with_dir (fun dir -> daemon_in dir args f)

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
              with_config spec (fun c ->
                  { c with C.max_executions = Some 999_999; workers = 2 })
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
            match JS.validate (with_config spec (fun c -> { c with C.fair_k = k })) with
            | Error _ -> ()
            | Ok () -> Alcotest.failf "fair_k = %d accepted" k)
          [ 0; -1 ];
        check "fair_k = 2 passes" true
          (JS.validate (with_config spec (fun c -> { c with C.fair_k = 2 })) = Ok ()));
    Alcotest.test_case "invalid spec (k = 0): error reply, nothing queued" `Quick
      (fun () ->
        with_daemon @@ fun ~socket ~pid:_ ->
        Serve.Client.with_daemon socket @@ fun fd ->
        Serve.Client.request fd
          (P.Submit { spec = with_config spec (fun c -> { c with C.fair_k = 0 }); priority = 0 });
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

(* Watch [job] with events to its end: the Event lines in order and the
   terminal message. [at] (if given) is a line predicate and an action,
   run once after the first line that satisfies it. *)
let watch_events ?at fd job =
  Serve.Client.request fd (P.Watch { job; events = true });
  let rec go acc at =
    match Serve.Client.next fd with
    | P.Watching _ -> go acc at
    | P.Event line ->
      let at =
        match at with
        | Some (p, f) when p line ->
          f ();
          None
        | at -> at
      in
      go (line :: acc) at
    | m -> (List.rev acc, m)
  in
  go [] at

let kind_of line =
  match Fairmc_obs.Events.of_line line with
  | Ok e -> e.Fairmc_obs.Events.kind
  | Error e -> Alcotest.failf "not an event line (%s): %S" e line

let backlog_file dir job = Filename.concat (Filename.concat dir "spool") (job ^ ".events")

(* The [data] member [name] of an event line. *)
let data_of line name =
  match Fairmc_obs.Events.of_line line with
  | Ok { Fairmc_obs.Events.data = J.Obj kv; _ } -> List.assoc_opt name kv
  | Ok _ | Error _ -> None

(* The [stats] member [name] of a report. *)
let stat_of report name =
  match report with
  | J.Obj kv ->
    (match List.assoc_opt "stats" kv with
     | Some (J.Obj st) -> List.assoc_opt name st
     | _ -> None)
  | _ -> None

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
        with_dir @@ fun dir ->
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
        check "the run came from its workers" true
          (List.exists (fun l -> kind_of l = "worker_spawn") live);
        let file = backlog_file dir job in
        let read () = In_channel.with_open_bin file In_channel.input_all in
        check "the backlog is the live stream" true
          (read () = String.concat "" (List.map (fun l -> l ^ "\n") live));
        (* A run's stream is a few lines: pad the spooled backlog with
           advisory lines before its run_end, so that the replay crosses
           several 64 KiB blocks. *)
        let n = List.length live in
        let pad i =
          Fairmc_obs.Events.line
            { Fairmc_obs.Events.seq = n - 1 + i; ts_us = 0; shard = 0; det = false; kind = "pad";
              data = J.Obj [ ("i", J.Int i); ("text", J.Str (String.make 64 'x')) ] }
        in
        let spooled =
          List.filteri (fun i _ -> i < n - 1) live @ List.init 1_500 pad @ [ List.nth live (n - 1) ]
        in
        Out_channel.with_open_bin file (fun oc ->
            List.iter (fun l -> output_string oc l; output_char oc '\n') spooled);
        check "the backlog spans several chunks" true
          (String.length (read ()) > 2 * Fairmc_obs.Events.chunk_cap);
        with_daemon ~dir @@ fun ~socket ~pid:_ ->
        Serve.Client.with_daemon socket @@ fun fd ->
        let replayed, last = watch_events fd job in
        (match last with P.Job_done _ -> () | _ -> Alcotest.fail "restored job not done");
        check "same line count" true (List.length replayed = List.length spooled);
        check "byte for byte, in order" true (List.equal String.equal replayed spooled);
        check_str "starts with run_start" "run_start" (kind_of (List.hd replayed));
        let last = List.nth replayed (List.length replayed - 1) in
        check_str "ends with run_end" "run_end" (kind_of last);
        check "whose digest stands for the paths" true
          (match data_of last "path_digest" with
           | Some (J.Str d) -> Report.digest_of_hex d <> None
           | _ -> false));
    Alcotest.test_case "a worker killed mid-job leaves every line sent, no partial line"
      `Quick (fun () ->
        with_dir @@ fun dir ->
        with_daemon ~dir @@ fun ~socket ~pid ->
        Serve.Client.with_daemon socket @@ fun fd ->
        (* Long enough (about 4 s) that its one worker hands back a slice
           and is killed running the next, on a host twice as fast too. *)
        let spec =
          JS.of_config ~program:"wsq-1s-correct"
            { C.default with C.max_executions = Some 300_000 }
        in
        let job = submit fd spec in
        let killed = ref [] in
        let kill () =
          killed := children_of pid;
          List.iter (fun p -> try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ()) !killed
        in
        (* Once the worker has handed back its first slice (about a
           second in). *)
        let lines, last =
          watch_events
            ~at:((fun l -> kind_of l = "worker_spawn"), fun () -> Unix.sleepf 1.2; kill ())
            fd job
        in
        check "a worker was killed" true (!killed <> []);
        (match last with
         | P.Job_done { verdict; _ } -> check_str "the retry finished the job" "limits" verdict
         | m -> Alcotest.failf "retry did not finish: %s" (J.to_string (P.message_to_json m)));
        let file = In_channel.with_open_bin (backlog_file dir job) In_channel.input_all in
        check "the backlog ends a line" true (file.[String.length file - 1] = '\n');
        let spooled = String.split_on_char '\n' file |> List.filter (( <> ) "") in
        (* Every spooled line is whole, and it is what the subscriber got. *)
        let kinds = List.map kind_of spooled in
        check "the subscriber got the backlog, in order" true (List.equal String.equal spooled lines);
        let count kind = List.length (List.filter (( = ) kind) kinds) in
        check "one run" true (count "run_start" = 1 && count "run_end" = 1);
        check "the supervisor retried the item" true (count "item_retry" >= 1));
    Alcotest.test_case "the done frame never overtakes a buffered event" `Quick (fun () ->
        with_daemon @@ fun ~socket ~pid:_ ->
        Serve.Client.with_daemon socket @@ fun fd ->
        List.iter
          (fun (program, cfg) ->
            let job = submit fd (JS.of_config ~program cfg) in
            let lines, last = watch_events fd job in
            match last with
            | P.Job_done { report; _ } ->
              let run_end = List.nth lines (List.length lines - 1) in
              check_str (program ^ ": run_end comes last") "run_end" (kind_of run_end);
              (* The paths travel as run_end's digest, not as lines. *)
              check (program ^ ": no path line") false
                (List.exists (fun l -> kind_of l = "path") lines);
              List.iter
                (fun name ->
                  check
                    (Printf.sprintf "%s: run_end's %s is the report's" program name)
                    true
                    (match (data_of run_end name, stat_of report name) with
                     | Some a, Some b -> J.equal a b
                     | _ -> false))
                [ "executions"; "path_digest" ]
            | m -> Alcotest.failf "%s: %s" program (J.to_string (P.message_to_json m)))
          [ ("fig3", C.default);
            ("dining-3-ordered", C.default);
            ("dining-3-ordered", { C.default with C.workers = 2; mode = C.Context_bounded 2 });
            ("wsq-1s-correct", { C.default with C.workers = 2; max_executions = Some 3_000 }) ]);
    Alcotest.test_case "finished reports stay out of the heap; a restart serves them as sent"
      `Quick (fun () ->
        (* A livelock's report carries its 10,000-step counterexample,
           about 2 MB of heap once decoded: a daemon that kept finished
           reports would pass the 8 MB bounds within twelve such jobs, and
           again when it restores them. *)
        let rss pid =
          In_channel.with_open_bin (Printf.sprintf "/proc/%d/status" pid) In_channel.input_all
          |> String.split_on_char '\n'
          |> List.find_map (fun l ->
                 match String.split_on_char ':' l with
                 | [ "VmRSS"; v ] -> Scanf.sscanf v " %d kB" Option.some
                 | _ -> None)
          |> Option.get
        in
        let frame msg = J.to_string (P.message_to_json msg) in
        (* A request answered after the daemon restored its spool. *)
        let settle fd =
          Serve.Client.request fd P.Jobs;
          match Serve.Client.next fd with
          | P.Job_list l -> List.length l
          | m -> Alcotest.failf "jobs: %s" (frame m)
        in
        let run fd seed =
          let job =
            submit fd
              (JS.of_config ~program:"promise-stale-cache"
                 { C.default with C.seed = Int64.of_int seed; workers = 2 })
          in
          Serve.Client.request fd (P.Watch { job; events = false });
          let rec last () =
            match Serve.Client.next fd with
            | P.Watching _ -> last ()
            | P.Job_done { verdict; _ } as m ->
              check_str "a livelock" "livelock" verdict;
              frame m
            | m -> Alcotest.failf "job: %s" (frame m)
          in
          (job, last ())
        in
        with_dir @@ fun dir ->
        let empty, reports =
          with_daemon ~dir @@ fun ~socket ~pid ->
          Serve.Client.with_daemon socket @@ fun fd ->
          ignore (settle fd);
          let empty = rss pid in
          let first = run fd 1 in
          let after_one = rss pid in
          let rest = List.map (run fd) (List.init 11 (fun i -> i + 2)) in
          let after_twelve = rss pid in
          if after_twelve - after_one > 8_192 then
            Alcotest.failf "VmRSS %d kB after one job, %d kB after twelve" after_one after_twelve;
          (empty, first :: rest)
        in
        with_daemon ~dir @@ fun ~socket ~pid ->
        Serve.Client.with_daemon socket @@ fun fd ->
        Alcotest.(check int) "every job restored" 12 (settle fd);
        let restored = rss pid in
        if restored - empty > 8_192 then
          Alcotest.failf "VmRSS %d kB empty, %d kB restored over twelve reports" empty restored;
        List.iter
          (fun (job, sent) ->
            Serve.Client.request fd (P.Watch { job; events = false });
            let rec last () =
              match Serve.Client.next fd with
              | P.Watching _ -> last ()
              | m -> frame m
            in
            check_str "the report as sent" sent (last ()))
          reports) ]

(* ------------------------------------------------------------------ *)
(* Identity is complete: one mutation per config field, by role        *)

let bump_opt = function None -> Some 7 | Some n -> Some (n + 1)
let bump_float = function None -> Some 1. | Some f -> Some (f +. 1.)

(* Identity fields: each change must change the job id. *)
let identity_mutations : (string * (C.t -> C.t)) list =
  [ ( "mode",
      fun c ->
        { c with
          C.mode =
            (match c.C.mode with
             | C.Dfs -> C.Context_bounded 0
             | C.Context_bounded n -> C.Context_bounded (n + 1)
             | C.Random_walk n -> C.Priority_random n
             | C.Priority_random n -> C.Random_walk n
             | C.Round_robin -> C.Dfs) } );
    ("fair", fun c -> { c with C.fair = not c.C.fair });
    ("fair_k", fun c -> { c with C.fair_k = c.C.fair_k + 1 });
    ("depth_bound", fun c -> { c with C.depth_bound = bump_opt c.C.depth_bound });
    ("max_steps", fun c -> { c with C.max_steps = c.C.max_steps + 1 });
    ("livelock_bound", fun c -> { c with C.livelock_bound = bump_opt c.C.livelock_bound });
    ("seed", fun c -> { c with C.seed = Int64.succ c.C.seed });
    ("sleep_sets", fun c -> { c with C.sleep_sets = not c.C.sleep_sets });
    ("coverage", fun c -> { c with C.coverage = not c.C.coverage });
    ("metrics", fun c -> { c with C.metrics = not c.C.metrics });
    ( "analyses",
      fun c ->
        { c with
          C.analyses = (match c.C.analyses with [] -> [ List.hd analyses ] | _ :: l -> l) } );
    ("static_por", fun c -> { c with C.static_por = not c.C.static_por }) ]

(* Job and local fields: no change may change the job id. *)
let budget_mutations : (string * (C.t -> C.t)) list =
  [ ( "sampling count",
      fun c ->
        { c with
          C.mode =
            (match c.C.mode with
             | C.Random_walk n -> C.Random_walk (n + 1)
             | C.Priority_random n -> C.Priority_random (n + 1)
             | m -> m) } );
    ("max_executions", fun c -> { c with C.max_executions = bump_opt c.C.max_executions });
    ("time_limit", fun c -> { c with C.time_limit = bump_float c.C.time_limit });
    ("jobs", fun c -> { c with C.jobs = c.C.jobs + 1 });
    ("workers", fun c -> { c with C.workers = c.C.workers + 1 });
    ("item_timeout", fun c -> { c with C.item_timeout = bump_float c.C.item_timeout });
    ("max_retries", fun c -> { c with C.max_retries = c.C.max_retries + 1 });
    ( "progress",
      fun c -> { c with C.progress = Some (Fairmc_obs.Progress.create ~sinks:[ ignore ] ()) } );
    ( "events",
      fun c -> { c with C.events = Some (Fairmc_obs.Events.create ~write:ignore ()) } );
    ("checkpoint", fun c -> { c with C.checkpoint = Some "elsewhere.ckpt" });
    ( "checkpoint_interval",
      fun c -> { c with C.checkpoint_interval = c.C.checkpoint_interval +. 1. } );
    ( "inject_fault",
      fun c -> { c with C.inject_fault = Some { C.fault_kind = C.Crash; fault_seed = 1 } } ) ]

let identity_qprops =
  let ids (spec : JS.t) cfg =
    let program_name = spec.JS.program in
    ( JS.id (JS.of_config ~program:program_name cfg) ~program_name,
      CK.fingerprint cfg ~program:program_name )
  in
  let spec_of seed = gen_spec (R.make (Int64.of_int seed)) in
  [ QCheck.Test.make ~name:"identity: every identity field changes the job id" ~count:200
      QCheck.int (fun seed ->
        let spec = spec_of seed in
        let base = ids spec spec.JS.config in
        List.for_all
          (fun (field, mutate) ->
            let id, fp = ids spec (mutate spec.JS.config) in
            (id <> fst base && fp <> snd base)
            || QCheck.Test.fail_reportf "changing %s kept the id" field)
          identity_mutations);
    QCheck.Test.make ~name:"identity: job and local fields leave the job id alone" ~count:200
      QCheck.int (fun seed ->
        let spec = spec_of seed in
        let base = ids spec spec.JS.config in
        List.for_all
          (fun (field, mutate) ->
            ids spec (mutate spec.JS.config) = base
            || QCheck.Test.fail_reportf "changing %s changed the id" field)
          budget_mutations) ]

(* Searches that finish inside their budget report the same whatever
   their job and local fields: the reason those fields can stay out of
   the id. *)
let report_key (r : Report.t) =
  ( Report.verdict_key r.Report.verdict,
    Test_checkpoint.strip_time r.Report.stats,
    Option.map (fun c -> c.Report.decisions) (Report.cex r) )

let gen_budget rng (c : C.t) =
  let pick l = List.nth l (R.int rng (List.length l)) in
  { c with
    C.workers = pick [ 1; 2 ];
    jobs = pick [ 1; 1; 2 ];
    max_executions = pick [ None; Some 10_000_000 ];
    time_limit = pick [ None; Some 600. ];
    item_timeout = pick [ None; Some 600. ];
    max_retries = R.int rng 3;
    progress =
      (if R.bool rng then
         Some (Fairmc_obs.Progress.create ~interval:(pick [ 0.; 1. ]) ~sinks:[ ignore ] ())
       else None);
    events = (if R.bool rng then Some (Fairmc_obs.Events.create ~write:ignore ()) else None);
    checkpoint_interval = pick [ 0.; 30. ] }

let same_report_props =
  List.map
    (fun (name, program, identity) ->
      let identity = { identity with C.coverage = true } in
      let base =
        lazy
          (Option.map
             (fun program ->
               match JS.resolve (JS.of_config ~program identity) with
               | Ok (prog, _) -> (prog, report_key (Fairmc_core.Checker.check ~config:identity prog))
               | Error e -> failwith e)
             program)
      in
      QCheck.Test.make
        ~name:(Printf.sprintf "identity: %s reports the same under any job or local fields" name)
        ~count:6 QCheck.small_int (fun seed ->
          match Lazy.force base with
          | None -> true (* the example file is out of reach *)
          | Some (prog, want) ->
            let rng = R.make (Int64.of_int (seed + 1)) in
            let cfg = gen_budget rng identity in
            let ckpt = Filename.temp_file "fairmc_serve" ".ckpt" in
            let cfg = if R.bool rng then { cfg with C.checkpoint = Some ckpt } else cfg in
            (* Where the search is cut into work items: half the runs stop
               at a budget below the uninterrupted run's executions and
               resume from their checkpoint at the other fan-out. *)
            let _, (want_stats : Report.stats), _ = want in
            let cut =
              if want_stats.executions >= 2 && R.bool rng then
                Some (1 + R.int rng (want_stats.executions - 1))
              else None
            in
            let check config ?resume () = Fairmc_core.Checker.check ~config ?resume prog in
            let r =
              Fun.protect
                ~finally:(fun () -> try Sys.remove ckpt with Sys_error _ -> ())
                (fun () ->
                  match cut with
                  | None -> check cfg ()
                  | Some n ->
                    let first =
                      check
                        { cfg with
                          C.max_executions = Some n;
                          checkpoint = Some ckpt;
                          checkpoint_interval = 0. }
                        ()
                    in
                    let other = if max cfg.C.jobs cfg.C.workers > 1 then 1 else 2 in
                    (match
                       Result.bind (CK.load ckpt) (fun c ->
                           CK.plan_resume c cfg ~program:prog.Fairmc_core.Program.name)
                     with
                     | Ok resume when first.Report.verdict = Report.Limits_reached ->
                       check { cfg with C.jobs = other; workers = other } ~resume ()
                     | _ -> first))
            in
            report_key r = want
            || QCheck.Test.fail_reportf "workers=%d jobs=%d cut=%s: reports differ"
                 cfg.C.workers cfg.C.jobs
                 (match cut with Some n -> string_of_int n | None -> "none")))
    [ ("fig3", Some "fig3", C.default);
      ( "peterson.chess at cb:2",
        List.find_opt Sys.file_exists
          [ "../../../examples/programs/peterson.chess"; "examples/programs/peterson.chess" ],
        { C.default with C.mode = C.Context_bounded 2 } );
      (* Random choices: sampling executions and the random tails of an
         unfair depth-bounded search. *)
      ( "race-assert at random:400, seed 7",
        Some "race-assert",
        { C.default with C.mode = C.Random_walk 400; seed = 7L } );
      ( "taskpool-1w-spin-shutdown unfair at depth bound 10",
        Some "taskpool-1w-spin-shutdown",
        { C.default with C.fair = false; depth_bound = Some 10; max_steps = 500 } ) ]

(* ------------------------------------------------------------------ *)
(* Bounded inputs: nesting and fan-out                                 *)

let bound_tests =
  [ Alcotest.test_case "a frame nested 100,000 deep: error reply, connection dropped"
      `Quick (fun () ->
        with_daemon @@ fun ~socket ~pid ->
        let fd = raw_connect socket in
        (* A valid request but for a member nested 100,000 deep: only the
           nesting bound refuses it. *)
        let payload =
          "{\"op\":\"jobs\",\"pad\":" ^ String.make 100_000 '[' ^ String.make 100_000 ']'
          ^ "}"
        in
        write_all fd (Printf.sprintf "%08x%s" (String.length payload) payload);
        (match Worker.recv fd with
         | Ok (Some j) ->
           (match P.message_of_json j with
            | P.Error_msg _ -> ()
            | m ->
              Alcotest.failf "expected an error reply, got %s"
                (J.to_string (P.message_to_json m)))
         | Ok None -> Alcotest.fail "dropped without an error reply"
         | Error e -> Alcotest.failf "garbled reply: %s" e);
        check "connection closed" true
          (match Worker.recv fd with Ok None -> true | _ -> false);
        Unix.close fd;
        check "daemon alive" true
          (match Unix.waitpid [ Unix.WNOHANG ] pid with 0, _ -> true | _ -> false);
        let ok = Serve.Client.connect socket in
        Serve.Client.close ok);
    Alcotest.test_case "fan-out above the bound: error reply, nothing queued" `Quick
      (fun () ->
        let spec = JS.of_config ~program:"fig3" C.default in
        let wide f = with_config spec f in
        check "the bound passes" true
          (JS.validate
             (wide (fun c -> { c with C.jobs = JS.max_fan_out; workers = JS.max_fan_out }))
           = Ok ());
        with_daemon @@ fun ~socket ~pid:_ ->
        Serve.Client.with_daemon socket @@ fun fd ->
        (* A long job holds the daemon's one runner slot: a wide job
           accepted by mistake would wait in the queue, where it is
           cancelled, instead of forking its workers. *)
        let blocker =
          submit fd
            (JS.of_config ~program:"wsq-1s-correct"
               { C.default with C.max_executions = Some 100_000_000 })
        in
        Fun.protect
          ~finally:(fun () ->
            Serve.Client.request fd (P.Cancel blocker);
            ignore (Serve.Client.next fd))
        @@ fun () ->
        List.iter
          (fun (what, spec) ->
            Serve.Client.request fd (P.Submit { spec; priority = 0 });
            match Serve.Client.next fd with
            | P.Error_msg _ -> ()
            | P.Submitted { job; _ } ->
              Serve.Client.request fd (P.Cancel job);
              ignore (Serve.Client.next fd);
              Alcotest.failf "%s: accepted" what
            | m -> Alcotest.failf "%s: %s" what (J.to_string (P.message_to_json m)))
          [ ( "workers 100000, random:100000",
              wide (fun c ->
                  { c with C.mode = C.Random_walk 100_000; workers = 100_000 }) );
            ("jobs 257", wide (fun c -> { c with C.jobs = JS.max_fan_out + 1 })) ];
        Serve.Client.request fd P.Jobs;
        match Serve.Client.next fd with
        | P.Job_list [ i ] -> check_str "only the blocker" blocker i.P.ji_id
        | m -> Alcotest.failf "expected one job, got %s" (J.to_string (P.message_to_json m)));
    Alcotest.test_case "a job cancelled as it starts stops, no child left" `Quick (fun () ->
        with_daemon @@ fun ~socket ~pid ->
        Serve.Client.with_daemon socket @@ fun fd ->
        (* A search that missed its cancel would run for hours. *)
        Fun.protect ~finally:(fun () ->
            List.iter
              (fun p -> try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ())
              (children_of pid))
        @@ fun () ->
        let state job =
          Serve.Client.request fd (P.Status job);
          match Serve.Client.next fd with
          | P.Job_status i -> i.P.ji_state
          | m -> Alcotest.failf "status: %s" (J.to_string (P.message_to_json m))
        in
        for seed = 1 to 10 do
          let job =
            submit fd
              (JS.of_config ~program:"wsq-1s-correct"
                 { C.default with C.seed = Int64.of_int seed; max_executions = Some 100_000_000 })
          in
          Serve.Client.request fd (P.Cancel job);
          (match Serve.Client.next fd with
           | P.Cancelled _ -> ()
           | m -> Alcotest.failf "cancel: %s" (J.to_string (P.message_to_json m)));
          (* The cancel stops the search before it answers. *)
          check (Printf.sprintf "seed %d: cancelled" seed) true (state job = P.Failed);
          check (Printf.sprintf "seed %d: no child left" seed) true (children_of pid = [])
        done;
        Unix.sleepf 0.2;
        check "nothing restarted" true (children_of pid = []));
    Alcotest.test_case "a spooled job above the fan-out bound is not restored" `Quick
      (fun () ->
        with_dir @@ fun dir ->
        let spool = Filename.concat dir "spool" in
        Unix.mkdir spool 0o700;
        (* Round-robin is one execution: restored by mistake, it would
           still start at most one worker. *)
        let spec =
          JS.of_config ~program:"fig3"
            { C.default with C.mode = C.Round_robin; workers = JS.max_fan_out + 1 }
        in
        J.to_file (Filename.concat spool "jwide.job")
          (J.Obj
             [ ("schema", J.Str "fairmc-spool/1");
               ("spec", JS.to_json spec);
               ("priority", J.Int 0) ]);
        with_daemon ~dir @@ fun ~socket ~pid:_ ->
        Serve.Client.with_daemon socket @@ fun fd ->
        Serve.Client.request fd P.Jobs;
        match Serve.Client.next fd with
        | P.Job_list [] -> ()
        | m -> Alcotest.failf "expected no jobs, got %s" (J.to_string (P.message_to_json m))) ]

(* ------------------------------------------------------------------ *)
(* Byte fuzz of the fairmc-job/1 and fairmc-jobs/1 decoders            *)

let decoder_fuzz_props =
  let rng = R.make 0xF022L in
  let docs =
    List.init 4 (fun _ -> JS.to_json (gen_spec rng))
    @ List.init 7 (fun _ -> P.request_to_json (gen_request rng))
    @ List.init 10 (fun _ -> P.message_to_json (gen_message rng))
  in
  let decoders =
    [ (fun j -> ignore (JS.of_json j));
      (fun j -> ignore (P.request_of_json j));
      (fun j -> ignore (P.message_of_json j)) ]
  in
  let decode j =
    List.iter (fun f -> try f j with CK.Codec.Parse _ -> ()) decoders
  in
  let decode_text s = match J.of_string s with Ok j -> decode j | Error _ -> () in
  [ QCheck.Test.make ~count:500 ~name:"decoders: random and mutated text fails cleanly"
      (QCheck.make ~print:String.escaped (Test_obs.text_gen docs))
      (Test_obs.decodes_cleanly decode_text);
    QCheck.Test.make ~count:500 ~name:"decoders: mutated documents fail cleanly"
      (QCheck.make ~print:J.to_string (Test_obs.mutated_gen docs))
      (Test_obs.decodes_cleanly decode) ]

(* ------------------------------------------------------------------ *)
(* A cancel stops the job's workers, whatever state they are in        *)

let status fd job =
  Serve.Client.request fd (P.Status job);
  match Serve.Client.next fd with
  | P.Job_status i -> i
  | m -> Alcotest.failf "status: %s" (J.to_string (P.message_to_json m))

let rec until what ok n =
  if not (ok ()) then
    if n = 0 then Alcotest.failf "timed out waiting for %s" what
    else begin
      Unix.sleepf 0.01;
      until what ok (n - 1)
    end

let kill_all signal = List.iter (fun p -> try Unix.kill p signal with Unix.Unix_error _ -> ())

let cancel_tests =
  [ Alcotest.test_case "a cancelled job whose workers hang ends cancelled, no child left"
      `Quick (fun () ->
        with_daemon @@ fun ~socket ~pid ->
        Serve.Client.with_daemon socket @@ fun fd ->
        Fun.protect ~finally:(fun () -> kill_all Sys.sigkill (children_of pid)) @@ fun () ->
        let state job = (status fd job).P.ji_state in
        let job =
          submit fd
            (JS.of_config ~program:"wsq-1s-correct"
               { C.default with C.max_executions = Some 100_000_000 })
        in
        until "the workers" (fun () -> state job = P.Running && children_of pid <> []) 500;
        (* Stopped, the workers can answer nothing; the cancel must not
           wait on them. *)
        let workers = children_of pid in
        kill_all Sys.sigstop workers;
        Serve.Client.with_daemon socket @@ fun watcher ->
        Serve.Client.request watcher (P.Watch { job; events = false });
        (match Serve.Client.next watcher with
         | P.Watching _ -> ()
         | m -> Alcotest.failf "watch: %s" (J.to_string (P.message_to_json m)));
        Serve.Client.request fd (P.Cancel job);
        (match Serve.Client.next fd with
         | P.Cancelled _ -> ()
         | m -> Alcotest.failf "cancel: %s" (J.to_string (P.message_to_json m)));
        (match Unix.select [ watcher ] [] [] 10. with
         | [], _, _ -> Alcotest.fail "the watcher was not told"
         | _ ->
           (match Serve.Client.next watcher with
            | P.Cancelled { job = j } -> check_str "the watcher is told" job j
            | m -> Alcotest.failf "watcher: %s" (J.to_string (P.message_to_json m))));
        check "no child left" true (children_of pid = []);
        check "cancelled" true (state job = P.Failed);
        Unix.sleepf 0.2;
        check "nothing restarted" true (children_of pid = [] && state job = P.Failed)) ]

(* ------------------------------------------------------------------ *)
(* Numbers that fabricate a verdict are refused; old members ignored    *)
(* ------------------------------------------------------------------ *)

(* Numbers that would fabricate a verdict, one field at a time. *)
let fabricating : (string * (C.t -> C.t)) list =
  [ ("cb:-1", fun c -> { c with C.mode = C.Context_bounded (-1) });
    ("random:0 at workers 2", fun c -> { c with C.mode = C.Random_walk 0; workers = 2 });
    ("prio:0 at workers 2", fun c -> { c with C.mode = C.Priority_random 0; workers = 2 });
    ("fair_k 0", fun c -> { c with C.fair_k = 0 });
    ("max_steps 0", fun c -> { c with C.max_steps = 0 });
    ("livelock_bound 0", fun c -> { c with C.livelock_bound = Some 0 });
    ("max_executions 0", fun c -> { c with C.max_executions = Some 0 });
    ("depth_bound -1", fun c -> { c with C.depth_bound = Some (-1) });
    ("max_retries -1", fun c -> { c with C.max_retries = -1 });
    ("time_limit -1", fun c -> { c with C.time_limit = Some (-1.) });
    ("item_timeout 0", fun c -> { c with C.item_timeout = Some 0. }) ]

let validation_tests =
  let spec = JS.of_config ~program:"fig3" C.default in
  [ Alcotest.test_case "validate rejects every number that fabricates a verdict" `Quick
      (fun () ->
        List.iter
          (fun (what, f) ->
            match JS.validate (with_config spec f) with
            | Error _ -> ()
            | Ok () -> Alcotest.failf "%s accepted" what)
          (fabricating
           @ [ ("time_limit nan", fun c -> { c with C.time_limit = Some Float.nan });
               ("time_limit inf", fun c -> { c with C.time_limit = Some infinity }) ]);
        List.iter
          (fun (what, f) ->
            check (what ^ " passes") true (JS.validate (with_config spec f) = Ok ()))
          [ ("cb:0", fun c -> { c with C.mode = C.Context_bounded 0 });
            ("random:1", fun c -> { c with C.mode = C.Random_walk 1 });
            ("depth_bound 0", fun c -> { c with C.fair = false; depth_bound = Some 0 });
            ("max_retries 0", fun c -> { c with C.max_retries = 0 });
            ("time_limit 0", fun c -> { c with C.time_limit = Some 0. }) ]);
    Alcotest.test_case "fabricating numbers: error replies, nothing queued" `Quick (fun () ->
        with_daemon @@ fun ~socket ~pid:_ ->
        Serve.Client.with_daemon socket @@ fun fd ->
        List.iter
          (fun (what, f) ->
            Serve.Client.request fd (P.Submit { spec = with_config spec f; priority = 0 });
            match Serve.Client.next fd with
            | P.Error_msg _ -> ()
            | m ->
              Alcotest.failf "%s: expected an error reply, got %s" what
                (J.to_string (P.message_to_json m)))
          fabricating;
        Serve.Client.request fd P.Jobs;
        match Serve.Client.next fd with
        | P.Job_list [] -> ()
        | m -> Alcotest.failf "expected no jobs, got %s" (J.to_string (P.message_to_json m)));
    Alcotest.test_case "members of older job documents are ignored" `Quick (fun () ->
        (* The random tail and the divergence window were config fields;
           documents that still carry them decode to the same spec. *)
        let doc =
          match JS.to_json spec with
          | J.Obj kv -> J.Obj (kv @ [ ("random_tail", J.Bool false); ("tail_window", J.Int 24) ])
          | _ -> Alcotest.fail "a spec encodes as an object"
        in
        let decoded = JS.of_json doc in
        check "same spec" true (spec_equal decoded spec);
        check_str "same id" (JS.id spec ~program_name:"fig3")
          (JS.id decoded ~program_name:"fig3")) ]

(* ------------------------------------------------------------------ *)
(* A deduped submission gets the report its own fan-out gives          *)
(* ------------------------------------------------------------------ *)

(* Verdict, counterexample and stats of a report document, wall time
   aside. *)
let report_slice doc =
  let member name = match doc with J.Obj kv -> List.assoc_opt name kv | _ -> None in
  let stats =
    match member "stats" with
    | Some (J.Obj kv) ->
      List.filter
        (fun (k, _) ->
          not
            (List.mem k
               [ "elapsed_seconds"; "executions_per_second"; "first_error_seconds";
                 "search_elapsed_seconds"; "eta_seconds" ]))
        kv
    | _ -> Alcotest.fail "report without stats"
  in
  (member "verdict", stats)

let fan_out_tests =
  [ Alcotest.test_case
      "a --workers 2 sampling job deduped onto --workers 1 gets its direct report" `Quick
      (fun () ->
        let program = "race-assert" in
        let cfg = { C.default with C.mode = C.Random_walk 400; seed = 7L } in
        let direct =
          match JS.resolve (JS.of_config ~program cfg) with
          | Ok (prog, _) ->
            Report.to_json (Fairmc_core.Checker.check ~config:{ cfg with C.workers = 2 } prog)
          | Error e -> Alcotest.fail e
        in
        with_daemon @@ fun ~socket ~pid:_ ->
        Serve.Client.with_daemon socket @@ fun fd ->
        let first = submit fd (JS.of_config ~program cfg) in
        Serve.Client.request fd (P.Watch { job = first; events = false });
        ignore (await_done fd);
        Serve.Client.request fd
          (P.Submit { spec = JS.of_config ~program { cfg with C.workers = 2 }; priority = 0 });
        (match Serve.Client.next fd with
         | P.Submitted { job; deduped; _ } ->
           check "deduped" true deduped;
           check_str "onto the --workers 1 job" first job
         | m -> Alcotest.failf "unexpected reply: %s" (J.to_string (P.message_to_json m)));
        Serve.Client.request fd (P.Watch { job = first; events = false });
        let _, _, served = await_done fd in
        check "the direct --workers 2 report" true (report_slice served = report_slice direct)) ]

(* ------------------------------------------------------------------ *)
(* chessd supervises its jobs' workers itself                          *)

(* Targets of [pid]'s descriptors from 3 up, from /proc. *)
let fd_targets pid =
  let dir = Printf.sprintf "/proc/%d/fd" pid in
  List.filter_map
    (fun name ->
      match int_of_string_opt name with
      | Some n when n >= 3 -> (
        try Some (Unix.readlink (Filename.concat dir name)) with Unix.Unix_error _ -> None)
      | _ -> None)
    (try Array.to_list (Sys.readdir dir) with Sys_error _ -> [])

let supervision_tests =
  [ Alcotest.test_case "jobs' workers: no grandchild, no socket, no other worker's pipe" `Quick
      (fun () ->
        (* A descriptor left open across exec: chessd inherits it, and its
           workers must close it with the rest. *)
        let held = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
        Fun.protect ~finally:(fun () -> Unix.close held) @@ fun () ->
        with_daemon ~args:[ "--max-jobs"; "2" ] @@ fun ~socket ~pid ->
        check "chessd inherits the open descriptor" true
          (List.mem "/dev/null" (fd_targets pid));
        Serve.Client.with_daemon socket @@ fun fd ->
        Fun.protect ~finally:(fun () -> kill_all Sys.sigkill (children_of pid)) @@ fun () ->
        let jobs =
          List.map
            (fun seed ->
              submit fd
                (JS.of_config ~program:"wsq-1s-correct"
                   { C.default with
                     C.seed = Int64.of_int seed; workers = 2; max_executions = Some 100_000_000 }))
            [ 1; 2 ]
        in
        until "four workers"
          (fun () ->
            List.for_all (fun j -> (status fd j).P.ji_state = P.Running) jobs
            && List.length (children_of pid) = 4)
          500;
        let children = children_of pid in
        let targets = List.map (fun c -> (c, fd_targets c)) children in
        List.iter
          (fun (c, fds) ->
            check "no grandchild" true (children_of c = []);
            List.iter
              (fun target ->
                if String.starts_with ~prefix:"socket:" target then
                  Alcotest.failf "worker %d holds %s" c target)
              fds;
            let pipes = List.filter (String.starts_with ~prefix:"pipe:") fds in
            check "a worker holds fds 0-2 and its own two pipe ends only" true
              (List.length pipes = 2 && List.length fds = 2);
            List.iter
              (fun (c', fds') ->
                if c' <> c then
                  List.iter
                    (fun p ->
                      if List.mem p fds' then Alcotest.failf "workers %d and %d share %s" c c' p)
                    pipes)
              targets)
          targets;
        List.iter
          (fun j ->
            Serve.Client.request fd (P.Cancel j);
            ignore (Serve.Client.next fd))
          jobs;
        check "no child left" true (children_of pid = []));
    Alcotest.test_case "a sequential job over a second comes back in slices, as a direct check"
      `Quick (fun () ->
        (* 300,000 executions run ~1.7 s on a quiet 2-vCPU host; 120,000
           ran 0.75 s there, too short to be sliced. *)
        let program = "wsq-1s-correct" in
        let cfg = { C.default with C.max_executions = Some 300_000 } in
        with_daemon @@ fun ~socket ~pid:_ ->
        Serve.Client.with_daemon socket @@ fun fd ->
        let job = submit fd (JS.of_config ~program { cfg with C.metrics = true }) in
        (* The direct run, while the daemon runs the job. *)
        let direct =
          match JS.resolve (JS.of_config ~program cfg) with
          | Ok (prog, _) -> Report.to_json (Fairmc_core.Checker.check ~config:cfg prog)
          | Error e -> Alcotest.fail e
        in
        Serve.Client.request fd (P.Watch { job; events = false });
        let _, _, served = await_done fd in
        let items =
          match served with
          | J.Obj kv ->
            (match List.assoc_opt "metrics" kv with
             | Some (J.Obj m) -> (match List.assoc_opt "sup/items" m with Some (J.Int n) -> n | _ -> 0)
             | _ -> 0)
          | _ -> 0
        in
        check "at least two items" true (items >= 2);
        (* The verdict member carries the counterexample. *)
        check "verdict, counterexample and stats" true (report_slice served = report_slice direct)) ]

(* ------------------------------------------------------------------ *)
(* chessd publishes its socket only once it listens                    *)
(* ------------------------------------------------------------------ *)

let startup_tests =
  [ Alcotest.test_case "a client that sees the socket path is not refused" `Quick (fun () ->
        (* Connect the moment the path appears, fifty starts in a row: a
           socket bound under its final name before [listen] refuses such a
           client. *)
        if not (Sys.file_exists chessd) then Alcotest.skip ();
        let refused = ref 0 in
        for _ = 1 to 50 do
          with_dir @@ fun dir ->
          let socket = Filename.concat dir "d.sock" in
          let dev_null = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
          let pid =
            Unix.create_process chessd
              [| chessd; "--socket"; socket; "--spool"; Filename.concat dir "spool"; "--quiet" |]
              Unix.stdin dev_null dev_null
          in
          Unix.close dev_null;
          Fun.protect
            ~finally:(fun () ->
              (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
              try ignore (Retry.eintr (fun () -> Unix.waitpid [] pid))
              with Unix.Unix_error _ -> ())
            (fun () ->
              let give_up = Unix.gettimeofday () +. 5. in
              while (not (Sys.file_exists socket)) && Unix.gettimeofday () < give_up do
                Unix.sleepf 0.0005
              done;
              let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
              (match Unix.connect fd (Unix.ADDR_UNIX socket) with
               | () -> ()
               | exception Unix.Unix_error _ -> incr refused);
              Unix.close fd)
        done;
        Alcotest.(check int) "refused connections" 0 !refused) ]

(* A job's event volume grows with its work items, not its executions:
   a fair DFS that would write about 7 MB of path lines a second keeps a
   backlog of a few lines while it runs. *)
let volume_tests =
  [ Alcotest.test_case "a running fair DFS's backlog stays under 64 KiB" `Quick (fun () ->
        with_dir @@ fun dir ->
        with_daemon ~dir @@ fun ~socket ~pid ->
        Serve.Client.with_daemon socket @@ fun fd ->
        Fun.protect ~finally:(fun () ->
            List.iter
              (fun p -> try Unix.kill p Sys.sigkill with Unix.Unix_error _ -> ())
              (children_of pid))
        @@ fun () ->
        let job =
          submit fd
            (JS.of_config ~program:"wsq-1s-correct"
               { C.default with C.max_executions = Some 100_000_000 })
        in
        Unix.sleepf 3.0;
        Serve.Client.request fd (P.Status job);
        (match Serve.Client.next fd with
         | P.Job_status i -> check "still running" true (i.P.ji_state = P.Running)
         | m -> Alcotest.failf "status: %s" (J.to_string (P.message_to_json m)));
        let bytes = (Unix.stat (backlog_file dir job)).Unix.st_size in
        Serve.Client.request fd (P.Cancel job);
        (match Serve.Client.next fd with
         | P.Cancelled _ -> ()
         | m -> Alcotest.failf "cancel: %s" (J.to_string (P.message_to_json m)));
        check (Printf.sprintf "the backlog holds %d bytes after 3 s" bytes) true
          (bytes < 64 * 1024)) ]

let suite =
  identity_tests @ robustness_tests @ dedup_tests
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) qprops
  @ fair_k_tests @ backlog_tests
  @ List.map (QCheck_alcotest.to_alcotest ~long:false)
      (identity_qprops @ same_report_props)
  @ bound_tests
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) decoder_fuzz_props
  @ cancel_tests @ validation_tests @ fan_out_tests @ supervision_tests @ startup_tests
  @ volume_tests
