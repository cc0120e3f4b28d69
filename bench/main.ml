(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (Section 4) on our reproduction, plus the ablations called out
   in DESIGN.md. Speed is measured by perfbench/, not here.

     dune exec bench/main.exe                 -- run everything
     dune exec bench/main.exe -- table2 fig2  -- run selected experiments
     FAIRMC_BENCH=full dune exec bench/main.exe   -- larger budgets

   Absolute numbers differ from the paper's 2008 testbed; the *shapes* are
   the reproduction targets (see EXPERIMENTS.md): who wins, exponential
   growth without fairness, timeouts in the same places. *)

open Fairmc_core
module W = Fairmc_workloads
module SC = Fairmc_statecap
module Json = Fairmc_util.Json

let full_budget = Sys.getenv_opt "FAIRMC_BENCH" = Some "full"

(* Results as JSON records: every experiment appends records here and the
   driver writes BENCH_PR9.json at the end (schema fairmc-bench/2). The
   printed tables stay the human-facing output; the JSON mirrors them. *)
let bench_records : Json.t list ref = ref []

let record experiment fields =
  bench_records := Json.Obj (("experiment", Json.Str experiment) :: fields) :: !bench_records

let bench_out = "BENCH_PR9.json"

(* A partial run (selected experiments) must not wipe the records of the
   experiments it did not run: keep those from the existing file and
   replace only the re-measured ones. [known] are the tags the current
   experiments write; a record under any other tag is dropped, since
   nothing can produce it any more. *)
let write_records ~known =
  let fresh = List.rev !bench_records in
  let tag = function Json.Obj (("experiment", Json.Str e) :: _) -> Some e | _ -> None in
  List.iter
    (fun r ->
      match tag r with
      | Some e when List.mem e known -> ()
      | _ -> invalid_arg "write_records: a record under an undeclared tag")
    fresh;
  let ran = List.filter_map tag fresh in
  let kept =
    match (try Some (open_in bench_out) with Sys_error _ -> None) with
    | None -> []
    | Some ic ->
      let n = in_channel_length ic in
      let s = really_input_string ic n in
      close_in ic;
      (match Json.of_string s with
       | Ok (Json.Obj fields) ->
         (match List.assoc_opt "records" fields with
          | Some (Json.Arr records) ->
            List.filter
              (fun r ->
                match tag r with
                | Some e -> List.mem e known && not (List.mem e ran)
                | None -> false)
              records
          | _ -> [])
       | _ -> [])
  in
  let doc =
    Json.Obj
      [ ("schema", Json.Str "fairmc-bench/2");
        ("budget", Json.Str (if full_budget then "full" else "quick"));
        ("records", Json.Arr (kept @ fresh)) ]
  in
  Json.to_file bench_out doc;
  Printf.printf "\nmachine-readable results written to %s (%d records kept)\n%!"
    bench_out (List.length kept)

(* Per-cell wall-clock budget (the paper used 5000 s; we keep the harness
   runnable in minutes and mark timed-out cells with '*'). *)
let cell_seconds = if full_budget then 60.0 else 8.0

let base =
  { Search_config.default with
    livelock_bound = Some 5_000;
    time_limit = Some cell_seconds;
    coverage = true }

let header title = Printf.printf "\n==== %s ====\n%!" title
let line fmt = Printf.printf (fmt ^^ "\n%!")

(* ------------------------------------------------------------------ *)
(* Table 1: characteristics of input programs.                         *)

let table1 () =
  header "Table 1: characteristics of input programs (our stand-ins)";
  line "%-24s %8s %12s %10s" "program" "threads" "sync ops" "var ops";
  let programs =
    [ W.Dining.program ~n:3 W.Dining.Ordered;
      W.Wsq.program ~stealers:2 W.Wsq.Correct;
      W.Promise.pipeline_program ~width:2 W.Promise.Blocking;
      W.Taskpool.program ~workers:2 ~tasks:2 W.Taskpool.Courteous;
      W.Channels.program W.Channels.Correct;
      W.Channels.fifo_program ~stages:23 ~items:2 ();
      W.Singularity.program ~services:8 ~apps:4 ~requests:2 () ]
  in
  List.iter
    (fun p ->
      (* One complete random schedule measures per-execution op counts. *)
      let r =
        Search.run
          { Search_config.default with
            mode = Search_config.Random_walk 1;
            livelock_bound = Some 500_000;
            max_steps = 1_000_000;
            seed = 7L }
          p
      in
      line "%-24s %8d %12d %10d" p.Program.name r.stats.max_threads
        r.stats.sync_ops_per_exec
        (r.stats.transitions - r.stats.sync_ops_per_exec);
      record "table1"
        [ ("program", Json.Str p.Program.name);
          ("threads", Json.Int r.stats.max_threads);
          ("sync_ops", Json.Int r.stats.sync_ops_per_exec);
          ("var_ops", Json.Int (r.stats.transitions - r.stats.sync_ops_per_exec)) ])
    programs

(* ------------------------------------------------------------------ *)
(* Figure 2: nonterminating executions vs. depth bound (Figure 1 prog). *)

let fig2 () =
  header "Figure 2: nonterminating executions grow exponentially with the depth bound";
  line "(program: Figure 1 dining philosophers, unfair DFS, random tail)";
  line "%6s %16s %12s %8s" "db" "nonterm execs" "executions" "time";
  let bounds = if full_budget then [ 15; 20; 25; 30; 35; 40 ] else [ 15; 18; 21; 24; 27 ] in
  List.iter
    (fun db ->
      let cfg =
        { (Search_config.unfair_dfs ~depth_bound:db) with
          max_steps = 2_000;
          time_limit = Some cell_seconds;
          seed = 1L }
      in
      let r = Search.run cfg (W.Dining.program ~n:2 W.Dining.Try_acquire) in
      let star = if r.verdict = Report.Limits_reached then "*" else "" in
      line "%6d %15d%s %12d %7.2fs" db r.stats.depth_bound_hits star r.stats.executions
        r.stats.elapsed;
      record "fig2"
        [ ("depth_bound", Json.Int db);
          ("nonterminating", Json.Int r.stats.depth_bound_hits);
          ("executions", Json.Int r.stats.executions);
          ("elapsed_seconds", Json.Float r.stats.elapsed);
          ("timed_out", Json.Bool (r.verdict = Report.Limits_reached)) ])
    bounds

(* ------------------------------------------------------------------ *)
(* Table 2 + Figures 5/6: state coverage and search time.               *)

type cell = { states : int; time : float; complete : bool }

let run_cell cfg prog =
  let r = Search.run { cfg with coverage = true; time_limit = Some cell_seconds } prog in
  { states = r.stats.states;
    time = r.stats.elapsed;
    complete = (r.verdict = Report.Verified) }

let pp_cell c = Printf.sprintf "%d%s" c.states (if c.complete then "" else "*")
let pp_time c = Printf.sprintf "%.2f%s" c.time (if c.complete then "" else "*")

let strategies = [ ("cb=1", 1); ("cb=2", 2); ("cb=3", 3); ("dfs", -1) ]
let depth_bounds = [ 20; 30; 40; 50; 60 ]

let table2_configs () =
  [ ("dining 2 phils", W.Dining.coverage_program ~n:2);
    ("dining 3 phils", W.Dining.coverage_program ~n:3);
    ("wsq 1 stealer", W.Wsq.coverage_program ~stealers:1 ());
    ("wsq 2 stealers", W.Wsq.coverage_program ~stealers:2 ()) ]

let table2_row prog (label, cb) =
  let mode =
    if cb < 0 then Search_config.Dfs else Search_config.Context_bounded cb
  in
  (* Ground truth: stateful search restricted to the strategy. *)
  let gt =
    SC.Stateful.explore
      ~mode:(if cb < 0 then SC.Stateful.Full else SC.Stateful.Cb cb)
      ~time_limit:cell_seconds prog
  in
  let fair = run_cell { base with mode } prog in
  let unfair =
    List.map
      (fun db ->
        run_cell
          { base with
            mode;
            fair = false;
            depth_bound = Some db;
            max_steps = 4_000;
            seed = 2L }
          prog)
      depth_bounds
  in
  (label, gt, fair, unfair)

let table2_data =
  lazy
    (List.map
       (fun (n, p) -> (n, List.map (table2_row p) strategies))
       (table2_configs ()))

let table2 () =
  header "Table 2: states visited, with and without fairness";
  line "(unfair searches prune at the depth bound and finish the path randomly;";
  line " '*' marks searches that hit the per-cell time budget of %.0fs)" cell_seconds;
  List.iter
    (fun (config, rows) ->
      line "\n-- %s --" config;
      line "%-6s %10s %10s | %10s %10s %10s %10s %10s" "strat" "total" "fair" "db=20"
        "db=30" "db=40" "db=50" "db=60";
      List.iter
        (fun (strat, (gt : SC.Stateful.result), fair, unfair) ->
          line "%-6s %9d%s %10s | %10s %10s %10s %10s %10s" strat gt.states
            (if gt.complete then "" else "*")
            (pp_cell fair)
            (pp_cell (List.nth unfair 0))
            (pp_cell (List.nth unfair 1))
            (pp_cell (List.nth unfair 2))
            (pp_cell (List.nth unfair 3))
            (pp_cell (List.nth unfair 4));
          let cell_json c =
            Json.Obj
              [ ("states", Json.Int c.states);
                ("seconds", Json.Float c.time);
                ("complete", Json.Bool c.complete) ]
          in
          record "table2"
            [ ("config", Json.Str config);
              ("strategy", Json.Str strat);
              ("total_states", Json.Int gt.states);
              ("total_complete", Json.Bool gt.complete);
              ("fair", cell_json fair);
              ("unfair",
               Json.Obj
                 (List.map2
                    (fun db c -> (Printf.sprintf "db=%d" db, cell_json c))
                    depth_bounds unfair)) ])
        rows)
    (Lazy.force table2_data)

let fig56 () =
  header "Figures 5 and 6: time to complete the search (seconds; '*' = timed out)";
  List.iter
    (fun (config, rows) ->
      if config = "dining 3 phils" || config = "wsq 2 stealers" then begin
        line "\n-- %s --" config;
        line "%-6s %10s | %10s %10s %10s %10s %10s" "strat" "fair" "db=20" "db=30"
          "db=40" "db=50" "db=60";
        List.iter
          (fun (strat, _, fair, unfair) ->
            line "%-6s %10s | %10s %10s %10s %10s %10s" strat (pp_time fair)
              (pp_time (List.nth unfair 0))
              (pp_time (List.nth unfair 1))
              (pp_time (List.nth unfair 2))
              (pp_time (List.nth unfair 3))
              (pp_time (List.nth unfair 4)))
          rows
      end)
    (Lazy.force table2_data)

(* ------------------------------------------------------------------ *)
(* Table 3: executions and time to the first bug, fair vs unfair.       *)

let table3_bugs () =
  [ ("WSQ bug 1", W.Wsq.program ~spin:true ~stealers:1 W.Wsq.Bug1);
    ("WSQ bug 2", W.Wsq.program ~spin:true ~stealers:2 W.Wsq.Bug2);
    ("WSQ bug 3", W.Wsq.program ~items:1 ~spin:true ~stealers:1 W.Wsq.Bug3);
    ("Channel bug 1", W.Channels.program ~spin:true W.Channels.Bug1);
    ("Channel bug 2", W.Channels.program ~spin:true W.Channels.Bug2);
    ("Channel bug 3", W.Channels.program ~spin:true W.Channels.Bug3);
    ("Channel bug 4", W.Channels.program ~spin:true W.Channels.Bug4) ]

let table3 () =
  header "Table 3: executions and time to find each bug (cb=2), fair vs unfair";
  line "(unfair search uses depth bound 250 with a random tail, as in the paper;";
  line " '-' means the bug was not found within the budget)";
  line "%-14s | %12s %10s | %12s %10s" "bug" "fair execs" "time" "unfair execs" "time";
  let budget_time = if full_budget then 120.0 else 20.0 in
  List.iter
    (fun (name, prog) ->
      let run_one fair =
        let cfg =
          { Search_config.default with
            mode = Search_config.Context_bounded 2;
            fair;
            depth_bound = (if fair then None else Some 250);
            (* The lost-wakeup bug manifests as a livelock of the polling
               thread: the livelock bound must fire before the hard cap. *)
            livelock_bound = Some 2_000;
            max_steps = 4_000;
            time_limit = Some budget_time;
            seed = 3L }
        in
        let r = Search.run cfg prog in
        match
          (Report.found_error r, r.stats.first_error_execution, r.stats.first_error_time)
        with
        | true, Some e, Some t -> Some (e, t)
        | _ -> None
      in
      let show = function
        | Some (e, t) -> Printf.sprintf "%12d %9.2fs" e t
        | None -> Printf.sprintf "%12s %10s" "-" "-"
      in
      let fair = run_one true and unfair = run_one false in
      line "%-14s | %s | %s" name (show fair) (show unfair);
      let found_json = function
        | Some (e, t) ->
          Json.Obj [ ("executions", Json.Int e); ("seconds", Json.Float t) ]
        | None -> Json.Null
      in
      record "table3"
        [ ("bug", Json.Str name);
          ("fair", found_json fair);
          ("unfair", found_json unfair) ])
    (table3_bugs ())

(* ------------------------------------------------------------------ *)
(* Section 4.3: liveness violations.                                    *)

let liveness_demos () =
  header "Section 4.3: liveness violations";
  let show name prog =
    let r =
      Search.run
        { Search_config.default with livelock_bound = Some 2_000; time_limit = Some cell_seconds }
        prog
    in
    line "%-30s -> %s (executions: %d, %.2fs)" name (Report.verdict_name r.verdict)
      r.stats.executions r.stats.elapsed;
    record "livelock"
      [ ("program", Json.Str name);
        ("verdict", Json.Str (Report.verdict_name r.verdict));
        ("executions", Json.Int r.stats.executions);
        ("elapsed_seconds", Json.Float r.stats.elapsed) ]
  in
  show "taskpool spin-shutdown (Fig 7)" (W.Taskpool.program W.Taskpool.Spin_shutdown);
  show "promise stale-cache (Fig 8)" (W.Promise.program W.Promise.Stale_cache);
  show "dining try-acquire (Fig 1)" (W.Dining.program ~n:2 W.Dining.Try_acquire);
  show "dining try-acquire + yield" (W.Dining.program ~n:2 W.Dining.Try_acquire_yield)

(* ------------------------------------------------------------------ *)
(* Section 4.1: booting Singularity-lite.                               *)

let boot () =
  header "Section 4.1: booting Singularity-lite under the checker";
  let prog = W.Singularity.program ~services:8 ~apps:4 ~requests:1 () in
  let budget = if full_budget then 20_000 else 3_000 in
  let r =
    Search.run
      { Search_config.default with
        mode = Search_config.Context_bounded 1;
        max_executions = Some budget;
        livelock_bound = Some 50_000;
        max_steps = 100_000 }
      prog
  in
  line "%s: %d boot/shutdown schedules explored, %d transitions, verdict: %s (%.1fs)"
    prog.Program.name r.stats.executions r.stats.transitions
    (Report.verdict_name r.verdict) r.stats.elapsed;
  line "threads: %d, sync ops per execution: %d" r.stats.max_threads
    r.stats.sync_ops_per_exec;
  record "boot"
    [ ("program", Json.Str prog.Program.name);
      ("executions", Json.Int r.stats.executions);
      ("transitions", Json.Int r.stats.transitions);
      ("verdict", Json.Str (Report.verdict_name r.verdict));
      ("elapsed_seconds", Json.Float r.stats.elapsed);
      ("threads", Json.Int r.stats.max_threads);
      ("sync_ops_per_exec", Json.Int r.stats.sync_ops_per_exec) ]

(* ------------------------------------------------------------------ *)
(* Ablations.                                                           *)

let ablation () =
  header "Ablation: demonic-fair vs baseline schedulers (coverage of total states)";
  let programs =
    [ ("dining-cov-2", W.Dining.coverage_program ~n:2);
      ("wsq-cov-1s", W.Wsq.coverage_program ~stealers:1 ()) ]
  in
  List.iter
    (fun (name, p) ->
      let total = (SC.Stateful.explore ~time_limit:cell_seconds p).SC.Stateful.states in
      let states cfg = (Search.run cfg p).stats.states in
      let fair_dfs = states base in
      let fair_cb2 = states { base with mode = Search_config.Context_bounded 2 } in
      let rr = states { base with mode = Search_config.Round_robin } in
      let rand = states { base with mode = Search_config.Random_walk 1_000 } in
      let prio = states { base with mode = Search_config.Priority_random 1_000 } in
      line
        "%-14s total=%d  fair-dfs=%d fair-cb2=%d  round-robin=%d random(1k)=%d apt-olderog(1k)=%d"
        name total fair_dfs fair_cb2 rr rand prio;
      record "ablation"
        [ ("kind", Json.Str "scheduler-coverage");
          ("program", Json.Str name);
          ("total_states", Json.Int total);
          ("fair_dfs", Json.Int fair_dfs);
          ("fair_cb2", Json.Int fair_cb2);
          ("round_robin", Json.Int rr);
          ("random_1k", Json.Int rand);
          ("apt_olderog_1k", Json.Int prio) ])
    programs;

  header "Ablation: sleep-set partial-order reduction (executions to exhaust)";
  List.iter
    (fun (name, p) ->
      let execs ss =
        let r =
          Search.run
            { Search_config.default with
              fair = false;
              sleep_sets = ss;
              time_limit = Some cell_seconds }
            p
        in
        (r.stats.executions, r.verdict = Report.Verified)
      in
      let plain, c1 = execs false in
      let reduced, c2 = execs true in
      line "%-22s plain=%d%s  sleep-sets=%d%s" name plain
        (if c1 then "" else "*")
        reduced
        (if c2 then "" else "*");
      record "ablation"
        [ ("kind", Json.Str "sleep-sets");
          ("program", Json.Str name);
          ("plain_executions", Json.Int plain);
          ("plain_complete", Json.Bool c1);
          ("sleep_set_executions", Json.Int reduced);
          ("sleep_set_complete", Json.Bool c2) ])
    [ ("independent 2x4", W.Litmus.two_step_threads ~nthreads:2 ~steps:4);
      ("store-buffer", W.Litmus.store_buffer ());
      ("ticket-lock", W.Litmus.ticket_lock ()) ];

  header "Ablation: the k-th-yield parameterization (Section 3)";
  List.iter
    (fun k ->
      let r =
        Search.run { base with fair_k = k; livelock_bound = Some 2_000 }
          (W.Dining.coverage_program ~n:2)
      in
      line "k=%d: states=%d executions=%d verdict=%s" k r.stats.states r.stats.executions
        (Report.verdict_name r.verdict);
      record "ablation"
        [ ("kind", Json.Str "kth-yield");
          ("k", Json.Int k);
          ("states", Json.Int r.stats.states);
          ("executions", Json.Int r.stats.executions);
          ("verdict", Json.Str (Report.verdict_name r.verdict)) ])
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)

(* Each experiment with the record tags it writes. *)
let all_experiments =
  [ ("table1", [ "table1" ], table1);
    ("fig2", [ "fig2" ], fig2);
    ("table2", [ "table2" ], table2);
    ("fig56", [], fig56);
    ("table3", [ "table3" ], table3);
    ("livelock", [ "livelock" ], liveness_demos);
    ("gs", [ "livelock" ], liveness_demos);
    ("boot", [ "boot" ], boot);
    ("ablation", [ "ablation" ], ablation) ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let selected =
    match args with
    | [] | [ "all" ] ->
      (* 'gs' aliases 'livelock'; do not print it twice in a full run. *)
      List.filter_map (fun (n, _, f) -> if n <> "gs" then Some (n, f) else None) all_experiments
    | names ->
      List.map
        (fun n ->
          match List.find_opt (fun (n', _, _) -> n' = n) all_experiments with
          | Some (_, _, f) -> (n, f)
          | None ->
            Printf.eprintf "unknown experiment %s; known: %s\n" n
              (String.concat ", " (List.map (fun (n, _, _) -> n) all_experiments));
            exit 2)
        names
  in
  Printf.printf "fair stateless model checking — benchmark harness (%s budget)\n%!"
    (if full_budget then "full" else "quick");
  List.iter (fun (_, f) -> f ()) selected;
  write_records ~known:(List.concat_map (fun (_, tags, _) -> tags) all_experiments)
