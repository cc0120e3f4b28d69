(* chess — fair stateless model checker CLI.

   `chess list` enumerates the built-in benchmark programs;
   `chess check <program>` explores one with a configurable strategy. *)

open Cmdliner
open Fairmc_core
module W = Fairmc_workloads
module D = Fairmc_dsl
module Serve = Fairmc_serve

let strategy_conv =
  let parse s =
    match String.lowercase_ascii s with
    | "dfs" -> Ok Search_config.Dfs
    | "rr" | "round-robin" -> Ok Search_config.Round_robin
    | s when String.length s > 3 && String.sub s 0 3 = "cb:" ->
      (try Ok (Search_config.Context_bounded (int_of_string (String.sub s 3 (String.length s - 3))))
       with _ -> Error (`Msg "cb:<n> expects an integer"))
    | s when String.length s > 7 && String.sub s 0 7 = "random:" ->
      (try Ok (Search_config.Random_walk (int_of_string (String.sub s 7 (String.length s - 7))))
       with _ -> Error (`Msg "random:<n> expects an integer"))
    | s when String.length s > 5 && String.sub s 0 5 = "prio:" ->
      (try Ok (Search_config.Priority_random (int_of_string (String.sub s 5 (String.length s - 5))))
       with _ -> Error (`Msg "prio:<n> expects an integer"))
    | _ -> Error (`Msg "strategy is dfs | cb:<n> | random:<n> | prio:<n> | rr")
  in
  let print ppf m = Format.pp_print_string ppf (Search_config.describe { Search_config.default with mode = m }) in
  Arg.conv (parse, print)

let strategy =
  Arg.(value & opt strategy_conv Search_config.Dfs
       & info [ "s"; "strategy" ] ~docv:"STRATEGY"
           ~doc:"Search strategy: dfs, cb:<n> (context bound), random:<n>, prio:<n>, rr.")

let no_fair =
  Arg.(value & flag & info [ "no-fair" ] ~doc:"Disable the fair scheduler (paper baseline).")

let fair_k =
  Arg.(value & opt int 1
       & info [ "k" ] ~docv:"K" ~doc:"Process every K-th yield (Section 3); K >= 1.")

let depth_bound =
  Arg.(value & opt (some int) None
       & info [ "d"; "depth-bound" ] ~docv:"N"
           ~doc:"Systematic depth bound for unfair searches (then random tail).")

let max_steps =
  Arg.(value & opt int 20_000
       & info [ "max-steps" ] ~docv:"N" ~doc:"Hard per-execution step cap.")

let livelock_bound =
  Arg.(value & opt (some int) None
       & info [ "livelock-bound" ] ~docv:"N"
           ~doc:"Fair executions reaching N steps are reported as divergences.")

let max_execs =
  Arg.(value & opt (some int) None
       & info [ "max-execs" ] ~docv:"N" ~doc:"Stop after N executions.")

let time_limit =
  Arg.(value & opt (some float) None
       & info [ "time-limit" ] ~docv:"SECONDS" ~doc:"Wall-clock budget for the search.")

let seed =
  Arg.(value & opt int 24141 & info [ "seed" ] ~docv:"N" ~doc:"Random seed (reproducible).")

let sleep_sets =
  Arg.(value & flag & info [ "sleep-sets" ] ~doc:"Enable sleep-set partial-order reduction.")

let coverage =
  Arg.(value & flag & info [ "coverage" ] ~doc:"Count distinct state signatures.")

let workers =
  Arg.(value & opt int 1
       & info [ "j"; "jobs"; "workers" ] ~docv:"N"
           ~doc:"Supervised worker $(i,processes) for the parallel search: 1 \
                 (default) runs sequentially, 0 uses all available cores. \
                 Every strategy reports the same for every N. \
                 Each worker is a forked process, so a crash, OOM kill or \
                 hang costs one work-item attempt — retried with backoff, \
                 then quarantined as a $(i,crash) verdict — instead of the \
                 whole search.")

let item_timeout =
  Arg.(value & opt (some float) None
       & info [ "item-timeout" ] ~docv:"SECONDS"
           ~doc:"Supervised runs: wall-clock budget per work-item attempt; on \
                 expiry the worker is SIGKILLed and the item requeued \
                 (counting against $(b,--max-retries)).")

let max_retries =
  Arg.(value & opt int Search_config.default.max_retries
       & info [ "max-retries" ] ~docv:"N"
           ~doc:"Supervised runs: how many times a work item is re-dispatched \
                 after a worker crash, timeout or protocol error before it is \
                 quarantined as a $(i,crash) verdict.")

let fault_conv =
  let parse s =
    match Search_config.fault_of_string s with
    | Ok f -> Ok f
    | Error e -> Error (`Msg e)
  in
  Arg.conv
    (parse, fun ppf f -> Format.pp_print_string ppf (Search_config.fault_name f))

let inject_fault =
  Arg.(value & opt (some fault_conv) None
       & info [ "inject-fault" ] ~docv:"KIND[@SEED]"
           ~doc:"Deterministic fault injection for the supervised pool \
                 (tests/CI): $(b,crash) | $(b,hang) | $(b,garble) | \
                 $(b,slowpipe) | $(b,savefail), firing exactly once, on the \
                 first attempt of work item SEED mod n-items. Retries are \
                 fault-free, so with retries left the verdict is unchanged \
                 while the recovery machinery is exercised.")

let metrics_flag =
  Arg.(value & flag
       & info [ "metrics" ]
           ~doc:"Collect the full telemetry instrument set (counters, gauges, \
                 histograms) into the report. Off by default: collection is \
                 zero-cost when disabled.")

let stats_flag =
  Arg.(value & flag
       & info [ "stats" ]
           ~doc:"Print the full metrics snapshot after the verdict (implies \
                 $(b,--metrics)).")

let progress_flag =
  Arg.(value & flag
       & info [ "progress" ]
           ~doc:"Emit a periodic progress line on stderr while searching.")

let progress_interval =
  Arg.(value & opt float 1.0
       & info [ "progress-interval" ] ~docv:"SECONDS"
           ~doc:"Seconds between progress lines.")

let races_flag =
  Arg.(value & flag
       & info [ "races" ]
           ~doc:"Run the happens-before race detector over every explored \
                 execution; an unordered conflicting pair of shared-variable \
                 accesses is reported as a data race with a replayable \
                 schedule.")

let lockset_flag =
  Arg.(value & flag
       & info [ "lockset" ]
           ~doc:"Run the Eraser-style lockset race detector (stricter than \
                 $(b,--races): demands a single consistent protecting lock, so \
                 fork/join or semaphore protocols produce false positives).")

let lock_graph_flag =
  Arg.(value & flag
       & info [ "lock-graph" ]
           ~doc:"Accumulate the lock-order graph across all explored \
                 executions and report cycles as potential deadlocks, even if \
                 no explored schedule deadlocked.")

let fail_on_race =
  Arg.(value & flag
       & info [ "fail-on-race" ]
           ~doc:"Exit with status 3 when a data race is the verdict (implies \
                 $(b,--races)). Without this flag a race is reported but the \
                 exit status stays 0.")

let json_out =
  Arg.(value & opt (some string) None
       & info [ "json" ] ~docv:"FILE"
           ~doc:"Write the machine-readable report (schema fairmc-report/2: \
                 verdict, counterexample schedule, statistics, metrics, \
                 analysis results) to FILE.")

let trace_out =
  Arg.(value & opt (some string) None
       & info [ "trace-out" ] ~docv:"FILE"
           ~doc:"When an error is found, write its schedule as a Chrome \
                 trace_event document to FILE (load in ui.perfetto.dev or \
                 chrome://tracing): one track per thread, yields and priority \
                 changes as instant markers.")

let events_out =
  Arg.(value & opt (some string) None
       & info [ "events" ] ~docv:"FILE"
           ~doc:"Stream NDJSON telemetry events (schema fairmc-events/1) to \
                 FILE while searching ($(b,-) for stdout): run/error/\
                 checkpoint lifecycle events plus advisory worker data, one \
                 JSON object per line — pipe into $(b,jq) for live analysis. \
                 The explored paths appear as $(b,run_end)'s $(b,path_digest) \
                 (also in the report's stats); one $(b,path) event per \
                 execution and the per-path spans are added only with \
                 $(b,--trace-spans).")

let watch_flag =
  Arg.(value & flag
       & info [ "watch" ]
           ~doc:"Live dashboard on stderr: a progress bar with the online \
                 completion estimate, execution rate and ETA, refreshed every \
                 $(b,--progress-interval) seconds.")

let trace_spans_out =
  Arg.(value & opt (some string) None
       & info [ "trace-spans" ] ~docv:"FILE"
           ~doc:"After the search, write the span telemetry (prefix replay, \
                 fresh execution, checkpoint saves, \
                 analysis observers) as a Chrome trace_event document to FILE: \
                 one track per worker shard, one slice per span (load in \
                 ui.perfetto.dev).")

let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Only print the one-line summary.")

let save_repro =
  Arg.(value & opt (some string) None
       & info [ "save-repro" ] ~docv:"FILE"
           ~doc:"When an error is found, save its schedule to FILE for $(b,chess replay).")

let checkpoint_out =
  Arg.(value & opt (some string) None
       & info [ "checkpoint" ] ~docv:"FILE"
           ~doc:"Write a durable-session checkpoint (schema fairmc-ckpt/3) to \
                 FILE at path boundaries, throttled by \
                 $(b,--checkpoint-interval), and once when the search stops — \
                 including on SIGINT/SIGTERM, which end the run gracefully \
                 with a partial report. Continue later with $(b,--resume).")

let checkpoint_interval =
  Arg.(value & opt float Search_config.default.checkpoint_interval
       & info [ "checkpoint-interval" ] ~docv:"SECONDS"
           ~doc:"Minimum seconds between periodic checkpoint writes (0 writes \
                 at every path boundary).")

let resume_arg =
  Arg.(value & opt (some string) None
       & info [ "resume" ] ~docv:"FILE"
           ~doc:"Continue an interrupted search from a checkpoint written by \
                 $(b,--checkpoint). The checkpoint's configuration fingerprint \
                 must match the requested one (budgets like $(b,--max-execs) \
                 and $(b,--time-limit) may differ, and so may $(b,-j): any \
                 checkpoint resumes at any fan-out); keeps checkpointing to \
                 FILE unless $(b,--checkpoint) names another file.")

let static_por_arg =
  Arg.(value & opt bool true
       & info [ "static-por" ] ~docv:"BOOL"
           ~doc:"ChessLang files: run the static visibility analysis and merge \
                 transitions on globals proven thread-local (they stop being \
                 scheduling points), and feed the static conflict table to \
                 sleep-set reduction. On by default; \
                 $(b,--static-por=false) compiles every shared access as a \
                 scheduling point. Verdicts and counterexamples are unchanged \
                 either way; the search tree is exponentially smaller on \
                 local-state-heavy programs. Built-in native programs are \
                 unaffected.")

let build_config strategy no_fair fair_k depth_bound max_steps livelock_bound max_execs
    time_limit seed sleep_sets coverage workers item_timeout
    max_retries metrics stats races lockset lock_graph fail_on_race static_por =
  let analyses =
    (if races || fail_on_race then [ Fairmc_analysis.Hb_race.analysis ] else [])
    @ (if lockset then [ Fairmc_analysis.Lockset.analysis ] else [])
    @ if lock_graph then [ Fairmc_analysis.Lock_graph.analysis ] else []
  in
  { Search_config.default with
    mode = strategy;
    fair = not no_fair;
    fair_k;
    depth_bound;
    max_steps;
    livelock_bound =
      (match livelock_bound with
       | Some _ as l -> l
       | None -> Search_config.default.livelock_bound);
    max_executions = max_execs;
    time_limit;
    seed = Int64.of_int seed;
    sleep_sets;
    coverage;
    workers;
    item_timeout;
    max_retries;
    metrics = metrics || stats;
    analyses;
    static_por }

(* The flags a job carries to chessd: the config's identity and job
   fields. *)
let job_term =
  Term.(const build_config $ strategy $ no_fair $ fair_k $ depth_bound $ max_steps
        $ livelock_bound $ max_execs $ time_limit $ seed $ sleep_sets $ coverage
        $ workers $ item_timeout $ max_retries $ metrics_flag $ stats_flag
        $ races_flag $ lockset_flag $ lock_graph_flag $ fail_on_race $ static_por_arg)

(* A number that would fabricate a verdict is a usage error (exit 124). *)
let validated cfg =
  match Search_config.validate cfg with Ok () -> `Ok cfg | Error e -> `Error (true, e)

(* [chess check] adds the flags local to its process: the checkpoint file
   and interval, and fault injection. *)
let check_config_term =
  let with_local cfg checkpoint checkpoint_interval inject_fault =
    { cfg with Search_config.checkpoint; checkpoint_interval; inject_fault }
  in
  Term.(ret
          (const validated
           $ (const with_local $ job_term $ checkpoint_out $ checkpoint_interval
              $ inject_fault)))

(* [chess submit] takes the job's flags only: a local flag there would be
   dropped on the way to the daemon, so it is a usage error. *)
let submit_config_term = Term.(ret (const validated $ job_term))

(* --progress and --progress-interval; [check] builds the reporter. *)
let progress_term =
  Term.(const (fun on interval -> (on, interval)) $ progress_flag $ progress_interval)

let list_cmd =
  let doc = "List the built-in benchmark programs." in
  let run () =
    Format.printf "%-28s %-14s %s@." "NAME" "EXPECTED" "DESCRIPTION";
    List.iter
      (fun (e : W.Registry.entry) ->
        Format.printf "%-28s %-14s %s@." e.name e.expected e.description)
      (W.Registry.all ());
    Format.printf
      "@.EXPECTED is the verdict a sufficiently deep search reaches: verified \
       | safety (assertion/invariant failure) | deadlock | livelock (fair \
       nontermination) | good-samaritan (a thread yields forever) | race \
       (data race, requires --races).@.@.chess check also accepts ChessLang \
       files (*.chess), compiled to bytecode.@.@.Long searches are durable: \
       pass --checkpoint FILE (throttled by --checkpoint-interval) to chess \
       check, interrupt freely with Ctrl-C, and continue later with --resume \
       FILE.@."
  in
  Cmd.v (Cmd.info "list" ~doc) Term.(const run $ const ())

let check_cmd =
  let doc = "Model-check a program." in
  let prog_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"PROGRAM"
             ~doc:"Built-in program name (see $(b,chess list)) or a ChessLang $(i,file.chess).")
  in
  let run name cfg (progress, progress_interval) quiet save_repro stats json_out trace_out
      fail_on_race resume events_out watch trace_spans_out =
    (* With --events - the NDJSON stream owns stdout; every human-facing
       line moves to stderr so the stream stays machine-parseable. *)
    let human =
      if events_out = Some "-" then Format.err_formatter else Format.std_formatter
    in
    (* With --static-por (the default) a ChessLang file goes through the
       static-analysis layer: transition merging + conflict facts, and a
       lint summary embedded in the JSON report. chessd resolves its jobs
       the same way. *)
    let program, lint_block =
      match Serve.Jobspec.resolve { program = name; config = cfg } with
      | Ok resolved -> resolved
      | Error e ->
        Format.eprintf "%s@." e;
        exit 2
    in
    (* Keep checkpointing to the resume file unless another one was named. *)
    let cfg =
      match (resume, cfg.Search_config.checkpoint) with
      | Some file, None -> { cfg with Search_config.checkpoint = Some file }
      | _ -> cfg
    in
    let resume_payload =
      match resume with
      | None -> None
      | Some file ->
        (match Checkpoint.load file with
         | Error e ->
           Format.eprintf "%s: cannot resume: %s@." file e;
           exit 2
         | Ok ckpt ->
           (match Checkpoint.plan_resume ckpt cfg ~program:program.Program.name with
            | Error e ->
              Format.eprintf "%s: cannot resume: %s@." file e;
              exit 2
            | Ok payload ->
              Format.fprintf human "resuming from %s@." file;
              Some payload))
    in
    (* Telemetry sinks: one event stream backs both the NDJSON file sink
       (--events) and the post-run span trace export (--trace-spans); one
       progress reporter drives the --progress lines and the live dashboard
       (--watch). *)
    let events_oc =
      match events_out with
      | None -> None
      | Some "-" -> Some (stdout, false)
      | Some file -> Some (open_out file, true)
    in
    let stream =
      match (events_oc, trace_spans_out) with
      | None, None -> None
      | _ ->
        let write =
          (* Graceful-interrupt handlers can land EINTR mid-write; restart
             rather than losing event lines (or the whole run) to a signal. *)
          Option.map
            (fun (oc, _) line ->
              Fairmc_util.Retry.eintr (fun () ->
                  output_string oc line;
                  output_char oc '\n'))
            events_oc
        in
        Some (Fairmc_obs.Events.create ?write ~collect:(trace_spans_out <> None) ())
    in
    let dashboard = if watch then Some (Fairmc_obs.Dashboard.create ()) else None in
    let progress =
      match
        (if progress then [ Fairmc_obs.Progress.stderr_sink ] else [])
        @ Option.to_list (Option.map Fairmc_obs.Dashboard.sink dashboard)
      with
      | [] -> None
      | sinks -> Some (Fairmc_obs.Progress.create ~interval:progress_interval ~sinks ())
    in
    let cfg = { cfg with Search_config.events = stream; progress } in
    (* SIGINT/SIGTERM request a graceful stop: the search flushes a final
       checkpoint (when --checkpoint is set) and still emits its partial
       report and outputs below. *)
    Checkpoint.install_signal_handlers ();
    Format.fprintf human "checking %s [%s]@." program.Program.name (Search_config.describe cfg);
    let report = Checker.check ~config:cfg ?resume:resume_payload program in
    (match dashboard with Some d -> Fairmc_obs.Dashboard.finish d | None -> ());
    (match events_oc with
     | Some (oc, close) -> if close then close_out oc else flush oc
     | None -> ());
    (match (trace_spans_out, stream) with
     | Some file, Some s ->
       Fairmc_util.Json.to_file file
         (Fairmc_obs.Span.to_trace (Fairmc_obs.Events.collected s));
       Format.fprintf human "span trace written to %s (load in ui.perfetto.dev)@." file
     | _ -> ());
    if quiet then Format.fprintf human "%a@." Report.pp_summary report
    else Format.fprintf human "%a@." Report.pp report;
    if stats then
      Format.fprintf human "@[<v>metrics:@,%a@]@." Fairmc_obs.Metrics.Snapshot.pp
        report.Report.metrics;
    (match json_out with
     | None -> ()
     | Some file ->
       Fairmc_util.Json.to_file file
         (Report.to_json ~program:program.Program.name
            ~config:(Search_config.describe cfg) ?lint:lint_block report);
       Format.fprintf human "report written to %s@." file);
    (match trace_out with
     | None -> ()
     | Some file ->
       (match Trace_export.of_report ~fair_k:cfg.Search_config.fair_k program report with
        | Some doc ->
          Fairmc_util.Json.to_file file doc;
          Format.fprintf human "trace written to %s (load in ui.perfetto.dev)@." file
        | None -> Format.fprintf human "no counterexample; no trace written@."));
    (match (save_repro, Report.cex report) with
     | Some file, Some cex ->
       Repro.save file { Repro.program = name; decisions = cex.Report.decisions };
       Format.fprintf human "repro saved to %s@." file
     | Some _, None -> Format.fprintf human "no error found; no repro written@."
     | None, _ -> ());
    (match cfg.Search_config.checkpoint with
     | Some file when report.Report.verdict = Report.Limits_reached ->
       Format.fprintf human "checkpoint written to %s (continue with --resume %s)@." file file
     | _ -> ());
    (* An interrupted run has written its partial report and final
       checkpoint; signal the interruption with the conventional status. *)
    if Checkpoint.interrupted () then begin
      Format.eprintf "interrupted; partial results reported@.";
      exit 130
    end;
    (* A race is advisory unless --fail-on-race asks for a distinct status;
       every other error keeps the historical exit code 1. *)
    match report.Report.verdict with
    | Report.Race _ -> if fail_on_race then exit 3
    | _ -> if Report.found_error report then exit 1
  in
  Cmd.v (Cmd.info "check" ~doc)
    Term.(const run $ prog_arg $ check_config_term $ progress_term $ quiet $ save_repro
          $ stats_flag $ json_out $ trace_out $ fail_on_race $ resume_arg $ events_out
          $ watch_flag $ trace_spans_out)

(* Candidate programs for a repro, in preference order. Repro files do
   not record whether the schedule was found with transition merging, so
   .chess files yield both compilations: merging on (the default used by
   chess check) first, plain second — replay falls through on mismatch. *)
let load_programs name =
  if Filename.check_suffix name ".chess" then
    match D.Parser.parse_file name with
    | ast ->
      (match Fairmc_static.compile ast with
       | merged -> [ merged; D.compile ast ]
       | exception _ -> [ D.compile ast ])
    | exception _ -> []
  else
    match W.Registry.find name with
    | Some (e : W.Registry.entry) -> [ e.program ]
    | None -> []

let replay_cmd =
  let doc = "Replay a saved counterexample schedule deterministically." in
  let file_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE" ~doc:"Repro file written by $(b,chess check --save-repro).")
  in
  let run file =
    match Repro.load file with
    | Error e ->
      Format.eprintf "%s: %s@." file e;
      exit 2
    | Ok { Repro.program = name; decisions } ->
      (match load_programs name with
       | [] ->
         Format.eprintf "cannot resolve program %S from the repro file@." name;
         exit 2
       | first :: _ as progs ->
         Format.printf "replaying %d decisions against %s@." (List.length decisions)
           first.Program.name;
         let rec try_replay = function
           | [] -> assert false
           | prog :: rest ->
             (match Search.replay prog decisions (fun _ -> ()) with
              | Search.Replay_mismatch _ when rest <> [] -> try_replay rest
              | outcome -> outcome)
         in
         (match try_replay progs with
          | Search.Replayed_failure cex ->
            Format.printf "failure reproduced after %d steps:@.%s@." cex.length cex.rendered;
            exit 1
          | Search.Replayed_no_failure ->
            Format.printf "schedule replayed without reproducing a failure@."
          | Search.Replay_mismatch { step; tid } ->
            Format.eprintf
              "replay mismatch at decision %d: thread %d does not exist, has nothing \
               pending, is disabled or offers no such alternative — the schedule does \
               not fit this program@."
              step tid;
            exit 2))
  in
  Cmd.v (Cmd.info "replay" ~doc) Term.(const run $ file_arg)

let lint_cmd =
  let doc = "Statically analyze ChessLang programs without running a single schedule." in
  let man =
    [ `S Manpage.s_description;
      `P "Reports static defect candidates with source positions, one line \
          per finding ($(i,file:line:col: severity: message [rule])), sorted \
          deterministically. Rules: $(b,double-lock), $(b,unlock-unheld), \
          $(b,lock-inversion), $(b,never-signaled), $(b,silent-loop) \
          (errors); $(b,race-candidate), $(b,dead-code) (warnings); \
          $(b,unused-global), $(b,unused-local) (notes). Race candidates are \
          advisory: lock-free algorithms (dekker, peterson) synchronize \
          through bare shared variables by design." ]
  in
  let files =
    Arg.(non_empty & pos_all string []
         & info [] ~docv:"FILE" ~doc:"ChessLang source files (*.chess).")
  in
  let json_out =
    Arg.(value & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the findings as a fairmc-lint/1 document to FILE \
                   ($(b,-) for stdout); one document per input file, as a \
                   JSON array when more than one file is given.")
  in
  let fail_on_lint =
    Arg.(value & flag
         & info [ "fail-on-lint" ]
             ~doc:"Exit with status 4 when any finding is reported (CI \
                   gating). Without it lint always exits 0 on clean runs of \
                   the analysis, whatever it finds.")
  in
  let run files json_out fail_on_lint quiet =
    let total = ref 0 in
    let docs =
      List.map
        (fun file ->
          match Fairmc_static.lint_file file with
          | findings ->
            total := !total + List.length findings;
            if not quiet then
              List.iter
                (fun f -> print_endline (Fairmc_static.Lint.to_string f))
                findings;
            Fairmc_static.Lint.to_json ~program:file findings
          | exception D.Parser.Error (msg, pos) ->
            Format.eprintf "%s: syntax error: %s (%a)@." file msg D.Ast.pp_pos pos;
            exit 2
          | exception D.Lexer.Error (msg, pos) ->
            Format.eprintf "%s: lexical error: %s (%a)@." file msg D.Ast.pp_pos pos;
            exit 2
          | exception D.Sema.Error (msg, pos) ->
            Format.eprintf "%s: error: %s (%a)@." file msg D.Ast.pp_pos pos;
            exit 2
          | exception Sys_error e ->
            Format.eprintf "%s@." e;
            exit 2)
        files
    in
    let doc = match docs with [ d ] -> d | ds -> Fairmc_util.Json.Arr ds in
    (match json_out with
     | None -> ()
     | Some "-" -> print_endline (Fairmc_util.Json.to_string ~pretty:true doc)
     | Some file ->
       Fairmc_util.Json.to_file file doc;
       if not quiet then Format.printf "lint report written to %s@." file);
    if not quiet then
      Format.printf "%d finding(s) in %d file(s)@." !total (List.length files);
    if fail_on_lint && !total > 0 then exit 4
  in
  Cmd.v (Cmd.info "lint" ~doc ~man)
    Term.(const run $ files $ json_out $ fail_on_lint $ quiet)

let sweep_cmd =
  let doc = "Run every built-in program with its recommended strategy and compare verdicts." in
  let run () =
    let failures = ref 0 in
    List.iter
      (fun (e : W.Registry.entry) ->
        let cfg =
          { Search_config.default with
            livelock_bound = Some 2_000;
            max_executions = Some 20_000;
            time_limit = Some 30.0;
            (* Race-expected entries need the detector; everything else runs
               plain so its verdict keeps testing the engine alone. *)
            analyses =
              (if e.expected = "race" then [ Fairmc_analysis.Hb_race.analysis ] else []);
            mode =
              (* The paper finds the seeded bugs with a context bound of 2
                 (Table 3); unguided fair DFS can wander for a long time. *)
              (if e.expected = "safety" then Search_config.Context_bounded 2
               else Search_config.Dfs) }
        in
        let report = Checker.check ~config:cfg e.program in
        let got =
          match Report.verdict_key report.verdict with "limits" -> "verified" | k -> k
        in
        let ok = got = e.expected in
        if not ok then incr failures;
        Format.printf "%-28s expected %-14s got %-14s %s (%a)@." e.name e.expected got
          (if ok then "ok" else "MISMATCH")
          Report.pp_summary report)
      (W.Registry.all ());
    if !failures > 0 then exit 1
  in
  Cmd.v (Cmd.info "sweep" ~doc) Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* Checking as a service: clients of the chessd daemon (bin/chessd.ml,
   protocol fairmc-jobs/1). *)

module SP = Serve.Protocol

let socket_arg =
  Arg.(value & opt string Serve.Daemon.default_config.socket
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"chessd Unix-domain socket (see $(b,chessd --socket)).")

let daemon_error e =
  Format.eprintf "%s@." e;
  exit 1

let run_client socket f =
  match Serve.Client.with_daemon socket f with
  | v -> v
  | exception Serve.Client.Error e -> daemon_error e

(* Watch [job] to completion on [fd]: forward its event stream, then print
   the report exactly as `chess check` would and mirror its exit status
   (the daemon never applies --fail-on-race; a race stays advisory). *)
let watch_to_completion fd job ~events_out ~json_out ~quiet =
  let human =
    if events_out = Some "-" then Format.err_formatter else Format.std_formatter
  in
  let events_oc =
    match events_out with
    | None -> None
    | Some "-" -> Some (stdout, false)
    | Some file -> Some (open_out file, true)
  in
  let finish_events () =
    match events_oc with
    | Some (oc, close) -> if close then close_out oc else flush oc
    | None -> ()
  in
  Serve.Client.request fd (SP.Watch { job; events = events_oc <> None });
  let rec go () =
    match Serve.Client.next fd with
    | SP.Watching { state; _ } ->
      (match state with
       | SP.Queued | SP.Running ->
         Format.fprintf human "watching %s (%s)@." job (SP.state_name state)
       | SP.Done | SP.Failed -> ());
      go ()
    | SP.Event line ->
      (match events_oc with
       | Some (oc, _) ->
         output_string oc line;
         output_char oc '\n'
       | None -> ());
      go ()
    | SP.Job_done d ->
      finish_events ();
      if quiet then Format.fprintf human "%s: %s@." d.job d.verdict
      else Format.fprintf human "%s@." d.rendered;
      (match json_out with
       | None -> ()
       | Some file ->
         Fairmc_util.Json.to_file file d.report;
         Format.fprintf human "report written to %s@." file);
      if d.found_error then exit 1
    | SP.Error_msg e ->
      finish_events ();
      daemon_error e
    | SP.Cancelled _ ->
      finish_events ();
      daemon_error (Printf.sprintf "job %s cancelled" job)
    | SP.Bye ->
      finish_events ();
      daemon_error "daemon shut down before the job finished"
    | _ -> go ()
  in
  go ()

let submit_cmd =
  let doc = "Submit a check job to a chessd daemon." in
  let man =
    [ `S Manpage.s_description;
      `P "Builds the search configuration $(b,chess check) would build from \
          the same flags, ships it to the daemon at $(b,--socket), and prints \
          the job id. Only the flags a job carries are accepted: \
          $(b,--progress), $(b,--progress-interval), $(b,--checkpoint), \
          $(b,--checkpoint-interval) and $(b,--inject-fault) belong to a \
          search run in this process (a served job reports progress through \
          its event stream and checkpoints into the daemon's spool).";
      `P "Job identity is the configuration fingerprint also used by \
          checkpoint resume: submitting the same program and strategy twice \
          — even with different budgets or fan-out — attaches to the running \
          (or finished) search instead of starting another, and every watcher \
          receives the same final report.";
      `P "With $(b,--wait) the command then behaves like \
          $(b,chess watch-job): it streams the job to completion, prints the \
          report $(b,chess check) would print, and exits with its status." ]
  in
  let prog_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"PROGRAM"
             ~doc:"Built-in program name (see $(b,chess list)) or a ChessLang \
                   $(i,file.chess). File paths are resolved by the daemon, so \
                   they must be readable from its working directory.")
  in
  let priority =
    Arg.(value & opt int 0
         & info [ "priority" ] ~docv:"N"
             ~doc:"Queue priority: higher runs first, FIFO within a band.")
  in
  let wait =
    Arg.(value & flag
         & info [ "wait" ]
             ~doc:"Watch the job to completion after submitting (see \
                   $(b,chess watch-job)); $(b,--events) and $(b,--json) apply \
                   to the watched job.")
  in
  let run name cfg socket priority wait json_out events_out quiet =
    let spec = Serve.Jobspec.of_config ~program:name cfg in
    run_client socket @@ fun fd ->
    Serve.Client.request fd (SP.Submit { spec; priority });
    match Serve.Client.next fd with
    | SP.Submitted { job; state; deduped } ->
      let human =
        if wait && events_out = Some "-" then Format.err_formatter
        else Format.std_formatter
      in
      Format.fprintf human "job %s: %s%s@." job (SP.state_name state)
        (if deduped then " (deduped)" else "");
      if wait then watch_to_completion fd job ~events_out ~json_out ~quiet
    | SP.Error_msg e -> daemon_error e
    | _ -> daemon_error "unexpected reply to submit"
  in
  Cmd.v (Cmd.info "submit" ~doc ~man)
    Term.(const run $ prog_arg $ submit_config_term $ socket_arg $ priority
          $ wait $ json_out $ events_out $ quiet)

let jobs_cmd =
  let doc = "List the jobs known to a chessd daemon." in
  let run socket =
    run_client socket @@ fun fd ->
    Serve.Client.request fd SP.Jobs;
    match Serve.Client.next fd with
    | SP.Job_list jobs ->
      Format.printf "%-22s %-8s %4s %4s %4s %-14s %s@." "ID" "STATE" "PRIO"
        "TRY" "SUBS" "VERDICT" "PROGRAM";
      List.iter
        (fun (i : SP.job_info) ->
          Format.printf "%-22s %-8s %4d %4d %4d %-14s %s@." i.ji_id
            (SP.state_name i.ji_state) i.ji_priority i.ji_attempts
            i.ji_subscribers
            (Option.value i.ji_verdict ~default:"-")
            i.ji_program)
        jobs
    | SP.Error_msg e -> daemon_error e
    | _ -> daemon_error "unexpected reply to jobs"
  in
  Cmd.v (Cmd.info "jobs" ~doc) Term.(const run $ socket_arg)

let watch_job_cmd =
  let doc = "Stream a submitted job's progress events and final report." in
  let man =
    [ `S Manpage.s_description;
      `P "Subscribes to a job by the id $(b,chess submit) printed, forwards \
          its fairmc-events/1 stream to $(b,--events) (one NDJSON line per \
          event, $(b,-) for stdout), and when the job finishes prints the \
          report exactly as $(b,chess check) would — same rendering, same \
          $(b,--json) document (timing fields aside), same exit status. \
          Attaching to an already-finished job returns its stored report \
          immediately.";
      `S Manpage.s_exit_status;
      `P "0 when the search verified the program or hit its budget; 1 when \
          it found an error; 1 also on daemon/connection failures." ]
  in
  let job_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"JOB" ~doc:"Job id printed by $(b,chess submit).")
  in
  let run job socket json_out events_out quiet =
    run_client socket @@ fun fd ->
    watch_to_completion fd job ~events_out ~json_out ~quiet
  in
  Cmd.v (Cmd.info "watch-job" ~doc ~man)
    Term.(const run $ job_arg $ socket_arg $ json_out $ events_out $ quiet)

let main =
  let doc = "fair stateless model checking (Musuvathi & Qadeer, PLDI 2008)" in
  Cmd.group (Cmd.info "chess" ~doc ~version:"1.0.0")
    [ list_cmd; check_cmd; lint_cmd; replay_cmd; sweep_cmd; submit_cmd;
      jobs_cmd; watch_job_cmd ]

let () = exit (Cmd.eval main)
