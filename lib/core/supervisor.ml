(* Parallel search on supervised worker processes. See DESIGN.md, "Parallel
   search".

   Stateless model checking re-executes the program from its initial state
   for every schedule, so shards share nothing but their totals. The
   supervisor splits a search into work items, forks worker processes that
   run them and answer in length-prefixed JSON over a pipe pair ({!Worker}),
   and merges their reports:

   - Systematic modes (DFS, context-bounded): {!Search.expand} cuts the
     decision tree at [split_depth]; item k is the k-th frontier prefix in
     DFS order. The expansion records nothing and every item re-executes
     from the initial state, so the merged statistics (executions,
     transitions, coverage states) equal the sequential search's exactly —
     and because errors are resolved by *lowest item index* rather than
     wall-clock order, the counterexample is the one the sequential search
     finds, independent of the worker count and of timing.

   - Sampling modes (random walk, random priorities): item k is a range of
     execution indices, and execution i draws from its own (seed, i)
     generator. The ranges partition the sequential run's executions in
     order, so the same lowest-item rule and the same merge give the
     sequential report. Round-robin runs a single schedule, sequentially.

   Crash isolation: a worker that segfaults, is OOM-killed, wedges or
   garbles its pipe costs one attempt of one item, not the search.
   - The worker is SIGKILLed and reaped; its item is requeued with
     exponential backoff, up to [config.max_retries] times.
   - An item that keeps killing workers is quarantined as a {!Report.Crash}
     verdict whose counterexample is the item's schedule prefix, so the
     crashing subtree can be re-entered deterministically.
   - An item above the winning error index never merges: its worker is
     killed and replaced, which is how the first error cancels the rest.

   One execution budget spans the processes: every worker adds its paths to
   its own slot of a shared {!Tally}, and [max_executions] is checked
   against the sum at every path start and end (and before each dispatch).

   Determinism of fault injection: a configured fault fires exactly once, on
   the *first* attempt of item [fault_seed mod n_items]. Retries are
   fault-free, so every injected fault (with retries left) leaves the final
   report unchanged — the property the fault-matrix tests pin down. *)

module C = Search_config
module J = Fairmc_util.Json
module Rng = Fairmc_util.Rng
module Retry = Fairmc_util.Retry
module AH = Analysis_hook
module M = Fairmc_obs.Metrics
module Clock = Fairmc_obs.Clock
module Progress = Fairmc_obs.Progress
module Events = Fairmc_obs.Events

let resolve_workers (cfg : C.t) =
  let resolve n = if n = 1 then 1 else if n <= 0 then Domain.recommended_domain_count () else n in
  max (resolve cfg.C.jobs) (resolve cfg.C.workers)

(* ------------------------------------------------------------------ *)
(* Merging, progress and checkpoint seams                              *)
(* ------------------------------------------------------------------ *)

let zero_stats =
  { Report.executions = 0;
    transitions = 0;
    states = 0;
    nonterminating = 0;
    depth_bound_hits = 0;
    sleep_set_prunes = 0;
    yields = 0;
    max_depth = 0;
    elapsed = 0.;
    first_error_execution = None;
    first_error_time = None;
    sync_ops_per_exec = 0;
    max_threads = 0;
    (* Callers overwrite [search_elapsed] on the merged result (wall time is
       not summable across concurrent shards). *)
    search_elapsed = 0.;
    probe_mass = 0 }

(* Analysis results merge like coverage: the lock-order graph is a set, so
   shard edge lists are unioned (dedup + canonical sort) and the cycles are
   recomputed from the union — identical for every shard layout. *)
let merge_analysis parts =
  match List.filter_map (fun ((r : Report.t), _) -> r.Report.analysis) parts with
  | [] -> None
  | anas ->
    let edges =
      AH.dedup_edges
        (List.concat_map (fun (a : Report.analysis) -> a.Report.lock_order_edges) anas)
    in
    Some { Report.lock_order_edges = edges; potential_deadlock_cycles = AH.cycles edges }

(* Sum counters, max the maxima, union the coverage tables, merge the
   per-shard metrics snapshots (counters add, gauges max — see Metrics), and
   union the analysis results. *)
let merge_parts parts =
  let tbl = Hashtbl.create 4096 in
  let stats, metrics =
    List.fold_left
      (fun (acc, ms) ((r : Report.t), part_tbl) ->
        let s = r.Report.stats in
        Hashtbl.iter (fun k () -> Hashtbl.replace tbl k ()) part_tbl;
        ( { acc with
            Report.executions = acc.Report.executions + s.executions;
            transitions = acc.transitions + s.transitions;
            nonterminating = acc.nonterminating + s.nonterminating;
            depth_bound_hits = acc.depth_bound_hits + s.depth_bound_hits;
            sleep_set_prunes = acc.sleep_set_prunes + s.sleep_set_prunes;
            yields = acc.yields + s.yields;
            max_depth = max acc.max_depth s.max_depth;
            sync_ops_per_exec = max acc.sync_ops_per_exec s.sync_ops_per_exec;
            max_threads = max acc.max_threads s.max_threads;
            probe_mass = acc.probe_mass + s.probe_mass },
          M.Snapshot.merge ms r.Report.metrics ))
      (zero_stats, M.Snapshot.empty) parts
  in
  let analysis = merge_analysis parts in
  ( { stats with Report.states = Hashtbl.length tbl },
    Report.fix_lockgraph_counters metrics analysis,
    analysis )

let sorted_states tbl = List.sort Int64.compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])

let states_tbl l =
  let tbl = Hashtbl.create (max 16 (List.length l)) in
  List.iter (fun s -> Hashtbl.replace tbl s ()) l;
  tbl

let post_event (cfg : C.t) kind fields =
  match cfg.C.events with
  | None -> ()
  | Some s -> Events.post s ~shard:(-1) ~kind (J.Obj fields)

(* Advisory coordinator telemetry: the worker layout and the frontier
   expansion's span (run-shaped, never part of the det slice). *)
let post_workers (cfg : C.t) ~jobs ~split_depth ~items ~expand_us =
  post_event cfg "workers"
    [ ("jobs", J.Int jobs);
      ("split_depth", J.Int split_depth);
      ("items", J.Int items);
      ("expand_us", J.Int expand_us) ];
  if expand_us > 0 then
    post_event cfg "span" [ ("phase", J.Str "expand"); ("dur_us", J.Int expand_us) ]

(* Resume validation: the systematic work-item list is defined by
   (program, config, split_depth), so the re-expansion must agree with the
   checkpoint or its recorded item indices are meaningless. *)
let check_par_resume (cfg : C.t) ~n (pa : Checkpoint.par_state) =
  if pa.Checkpoint.pa_split_depth <> cfg.split_depth then
    raise
      (Checkpoint.Mismatch
         (Printf.sprintf "split depth drifted: checkpoint has %d, config has %d"
            pa.Checkpoint.pa_split_depth cfg.split_depth));
  if pa.Checkpoint.pa_n_items <> n then
    raise
      (Checkpoint.Mismatch
         (Printf.sprintf "work-item count drifted: checkpoint has %d, expansion gives %d"
            pa.Checkpoint.pa_n_items n))

(* Sampling items: executions [0, count) cut into ranges of at most
   [chunk], around the ranges a prior session finished ([finished], sorted
   by first execution). A finished range that overlaps the one before it or
   reaches past [count] (the count was lowered) is run again. Returns the
   items in execution order and the records kept. *)
let sampling_items ~count ~chunk (finished : Checkpoint.par_item list) =
  let rec cut lo hi acc =
    if lo >= hi then acc
    else
      let next = min hi (lo + chunk) in
      cut next hi (Search.Executions (lo, next) :: acc)
  in
  let rec go lo acc kept = function
    | (it : Checkpoint.par_item) :: rest ->
      let a = it.Checkpoint.pi_index in
      let b = a + it.Checkpoint.pi_stats.Report.executions in
      if a >= lo && a < b && b <= count then
        go b (Search.Executions (a, b) :: cut lo a acc) (it :: kept) rest
      else go lo acc kept rest
    | [] -> (Array.of_list (List.rev (cut lo count acc)), List.rev kept)
  in
  go 0 [] [] finished

(* What a checkpoint record calls item [k]: its index in the work-item list
   (systematic), or its first execution (sampling). *)
let item_key items k =
  match items.(k) with Search.Prefix _ -> k | Search.Executions (lo, _) -> lo

(* Items a prior session finished: prepopulated as if a worker had just
   finished them, so merging and min-index error resolution are oblivious
   to the interruption. Returns the prior (executions, probe mass) to seed
   the search-wide tally. *)
let resume_prefill (cfg : C.t) ~items
    ~(results : (Report.t * (int64, unit) Hashtbl.t) option array)
    (recorded : Checkpoint.par_item list) =
  let slot = Hashtbl.create 64 in
  Array.iteri (fun k _ -> Hashtbl.replace slot (item_key items k) k) items;
  let execs = ref 0 and mass = ref 0 in
  List.iter
    (fun (it : Checkpoint.par_item) ->
      let k =
        match Hashtbl.find_opt slot it.Checkpoint.pi_index with
        | Some k -> k
        | None -> raise (Checkpoint.Mismatch "checkpoint work-item index out of range")
      in
      let stats, metrics = Search.reweigh cfg it.Checkpoint.pi_stats it.Checkpoint.pi_metrics in
      let analysis =
        if cfg.C.analyses = [] then None
        else
          Some
            { Report.lock_order_edges = it.Checkpoint.pi_edges;
              (* Recomputed from the edge union at merge time. *)
              potential_deadlock_cycles = [] }
      in
      results.(k) <-
        Some
          ( { Report.verdict = Report.Verified; stats; metrics; analysis },
            states_tbl it.Checkpoint.pi_states );
      execs := !execs + stats.Report.executions;
      mass := !mass + stats.Report.probe_mass)
    recorded;
  (!execs, !mass)

(* Durable session for the item list: finished items are recorded and
   flushed to the checkpoint file, throttled by [checkpoint_interval], plus
   once when the run stops. Disabled when the expansion itself timed out:
   the item list is then partial and the recorded indices would not
   survive a resume's re-expansion. *)
type parck = {
  pk_path : string;
  pk_cfg : C.t;
  pk_prog : string;
  pk_items : Search.item array;
  pk_t0 : float;
  pk_prior_elapsed : float;
  mutable pk_recorded : Checkpoint.par_item list;
  mutable pk_last : float;
}

let parck_create (cfg : C.t) ~prog ~items ~t0 ~prior_elapsed ~recorded ~expand_timed_out =
  match cfg.C.checkpoint with
  | Some path when not expand_timed_out ->
    Some
      { pk_path = path;
        pk_cfg = cfg;
        pk_prog = prog.Program.name;
        pk_items = items;
        pk_t0 = t0;
        pk_prior_elapsed = prior_elapsed;
        pk_recorded = recorded;
        pk_last = Clock.now () }
  | _ -> None

(* A failed save warns and keeps the previous checkpoint (see
   Checkpoint.save_result). *)
let parck_write ck ~complete =
  ck.pk_last <- Clock.now ();
  let recorded =
    List.sort
      (fun (a : Checkpoint.par_item) b -> compare a.Checkpoint.pi_index b.Checkpoint.pi_index)
      ck.pk_recorded
  in
  match
    Checkpoint.save_result ck.pk_path
      { Checkpoint.fingerprint = Checkpoint.fingerprint ck.pk_cfg ~program:ck.pk_prog;
        payload =
          Checkpoint.Par
            { Checkpoint.pa_split_depth = ck.pk_cfg.C.split_depth;
              pa_n_items = Array.length ck.pk_items;
              pa_elapsed = ck.pk_prior_elapsed +. (Clock.now () -. ck.pk_t0);
              pa_items = recorded;
              pa_complete = complete } }
  with
  | Ok () -> ()
  | Error msg ->
    Printf.eprintf "fairmc: checkpoint save failed: %s (keeping the previous checkpoint)\n%!"
      msg;
    post_event ck.pk_cfg "checkpoint_error" [ ("file", J.Str ck.pk_path); ("error", J.Str msg) ]

(* Only a finished item is recorded: a subtree explored in full, or a range
   whose executions all ran to their end ({!Search.run_item} reports both
   [Verified]). *)
let parck_note ck k (r : Report.t) tbl =
  if r.Report.verdict = Report.Verified then begin
    ck.pk_recorded <-
      { Checkpoint.pi_index = item_key ck.pk_items k;
        pi_stats = r.Report.stats;
        pi_metrics = r.Report.metrics;
        pi_states = (if ck.pk_cfg.C.coverage then sorted_states tbl else []);
        pi_edges =
          (match r.Report.analysis with Some a -> a.Report.lock_order_edges | None -> []) }
      :: ck.pk_recorded;
    if Clock.now () -. ck.pk_last >= ck.pk_cfg.C.checkpoint_interval then
      parck_write ck ~complete:false
  end

(* Merge per-item results into the final report. [winner] is the lowest
   erroring item index ([max_int] when none). *)
let finalize ~items ~(results : (Report.t * (int64, unit) Hashtbl.t) option array)
    ~winner ~elapsed ~search_elapsed ~expand_timed_out ~with_gauges =
  let n = Array.length results in
  if winner < n then begin
    (* Sequential equivalence: the search would have explored items
       [0..winner-1] in full, then stopped inside [winner]. Items below the
       winner are never cancelled, so all their results are present unless
       the budget or the deadline stopped them. *)
    let parts = ref [] and prior_execs = ref 0 in
    for k = winner - 1 downto 0 do
      match results.(k) with
      | Some ((r, _) as p) ->
        parts := p :: !parts;
        prior_execs := !prior_execs + r.Report.stats.Report.executions
      | None -> ()
    done;
    let win_r, win_tbl = Option.get results.(winner) in
    let stats, metrics, analysis = merge_parts (!parts @ [ (win_r, win_tbl) ]) in
    let ws = win_r.Report.stats in
    (* The error's index in the sequential run: a range knows its first
       execution, whatever the budget left of the ranges below it. *)
    let offset =
      match items.(winner) with Search.Executions (lo, _) -> lo | Search.Prefix _ -> !prior_execs
    in
    { Report.verdict = win_r.Report.verdict;
      stats =
        { stats with
          Report.elapsed;
          search_elapsed;
          first_error_execution =
            Option.map (fun e -> offset + e) ws.Report.first_error_execution;
          first_error_time = ws.Report.first_error_time };
      metrics = with_gauges metrics;
      analysis }
  end
  else begin
    let parts = List.filter_map Fun.id (Array.to_list results) in
    let stats, metrics, analysis = merge_parts parts in
    let stats = { stats with Report.elapsed; search_elapsed } in
    (* Any missing or [Limits_reached] item — or a timed-out expansion —
       downgrades Verified to Limits_reached. A sampling search never
       verifies: with all its ranges run, its count ran out, as the
       sequential search reports it. *)
    let sampling = Array.exists (function Search.Executions _ -> true | _ -> false) items in
    let limited =
      expand_timed_out || sampling
      || n > List.length parts
      || List.exists (fun ((r : Report.t), _) -> r.Report.verdict = Report.Limits_reached) parts
    in
    { Report.verdict = (if limited then Report.Limits_reached else Report.Verified);
      stats;
      metrics = with_gauges metrics;
      analysis }
  end

(* ------------------------------------------------------------------ *)
(* Supervision                                                         *)
(* ------------------------------------------------------------------ *)

(* What the workers run: the items, built before the first fork so every
   worker inherits the same list — a result never depends on which process
   ran which item. *)
type plan = { prog : Program.t; items : Search.item array }

type counters = {
  mutable c_spawns : int;
  mutable c_restarts : int;
  mutable c_timeouts : int;
  mutable c_retries : int;
  mutable c_crashes : int;
  mutable c_quarantined : int;
}

(* One worker process as the parent sees it. [s_item = -1] means idle;
   [s_alive = false] marks a slot whose process is gone and whose fds are
   closed (the fd fields then hold harmless placeholders and must not be
   used — every access is guarded by [s_alive]). *)
type slot = {
  s_id : int;
  mutable s_pid : int;
  mutable s_req : Unix.file_descr;  (* parent writes requests here *)
  mutable s_resp : Unix.file_descr;  (* parent reads responses here *)
  mutable s_buf : Worker.inbuf;
  mutable s_item : int;
  mutable s_attempt : int;
  mutable s_deadline : float;
  mutable s_alive : bool;
}

let fault_fires (cfg : C.t) ~index ~attempt ~n =
  match cfg.C.inject_fault with
  | Some f when attempt = 0 && n > 0 && index = f.C.fault_seed mod n ->
    Some f.C.fault_kind
  | _ -> None

(* Exponential backoff with deterministic jitter: the delay is a pure
   function of (seed, item, attempt), so a retried run is replayable. *)
let backoff_delay (cfg : C.t) ~index ~attempt =
  let key =
    Int64.add
      (Int64.mul cfg.C.seed 1_000_003L)
      (Int64.of_int ((index * 97) + attempt))
  in
  let jitter = float_of_int (Rng.int (Rng.make key) 1024) /. 1024. in
  let exp = float_of_int (1 lsl min attempt 5) in
  Float.min 2.0 (0.05 *. exp *. (1. +. (0.5 *. jitter)))

let signal_name s =
  if s = Sys.sigkill then "SIGKILL"
  else if s = Sys.sigsegv then "SIGSEGV"
  else if s = Sys.sigterm then "SIGTERM"
  else if s = Sys.sigint then "SIGINT"
  else if s = Sys.sigabrt then "SIGABRT"
  else Printf.sprintf "signal %d" s

let status_reason = function
  | Unix.WEXITED c -> Printf.sprintf "exited %d" c
  | Unix.WSIGNALED s -> Printf.sprintf "killed by %s" (signal_name s)
  | Unix.WSTOPPED s -> Printf.sprintf "stopped by %s" (signal_name s)

(* Child side. *)

(* Run one work item inside the worker process. The child's config drops
   everything that belongs to the parent: no checkpoint file (it must never
   clobber the parent's), no progress emission, no fault re-injection, and
   no inherited event stream — when the parent streams telemetry the child
   renders the item's events on a worker stream (same epoch, same span
   gate) and ships the lines back in the response. The per-item wall-clock
   timeout is parent-side only; the child's deadline comes from the
   remaining *global* time budget, so a slow but healthy item never comes
   back [Limits_reached]. *)
let run_item ~(cfg : C.t) ~plan ~tally ~slot ~index ~attempt ~time_left =
  let lines = ref [] in
  let child_events =
    Option.map
      (fun s -> Events.worker s ~write:(fun line -> lines := line :: !lines))
      cfg.C.events
  in
  let cfg_i =
    { cfg with
      C.jobs = 1;
      workers = 1;
      checkpoint = None;
      progress = None;
      time_limit = None;
      inject_fault = None;
      events = child_events }
  in
  let deadline =
    match time_left with None -> infinity | Some t -> Clock.now () +. t
  in
  let r, tbl =
    Search.run_item ~deadline ~shard:slot ~tally cfg_i plan.prog plan.items.(index)
  in
  { Worker.r_index = index;
    r_attempt = attempt;
    r_report = r;
    r_states = (if cfg.C.coverage then sorted_states tbl else []);
    r_events = List.rev !lines }

(* The worker process's request loop. Never returns: every path ends in
   [Unix._exit] (not [exit] — the child must not run the parent's inherited
   [at_exit] callbacks or re-flush its channels). Exit codes: 0 clean quit,
   2 protocol error, 3 fault-injection backstop. *)
let child_serve ~(cfg : C.t) ~plan ~tally ~slot ~req ~resp =
  (* Ctrl-C teardown belongs to the parent: it decides between graceful
     quit and SIGKILL. The child must not race it with its own handler. *)
  Sys.set_signal Sys.sigint Sys.Signal_ignore;
  Checkpoint.clear_interrupt ();
  let rec loop () =
    match Worker.recv req with
    | Ok None -> Unix._exit 0 (* parent closed the request pipe *)
    | Error _ -> Unix._exit 2
    | Ok (Some json) ->
      (match Worker.request_of_json json with
       | exception Checkpoint.Codec.Parse _ -> Unix._exit 2
       | Worker.Quit -> Unix._exit 0
       | Worker.Run { q_index; q_attempt; q_time_left } ->
         let fault =
           fault_fires cfg ~index:q_index ~attempt:q_attempt ~n:(Array.length plan.items)
         in
         (match fault with
          | Some C.Crash ->
            Unix.kill (Unix.getpid ()) Sys.sigkill;
            Unix._exit 3
          | Some C.Hang ->
            (* Spin until the parent's item timeout SIGKILLs us. *)
            let rec spin () = Retry.sleepf 3600.; spin () in
            spin ()
          | Some C.Garble ->
            let junk = Bytes.of_string "!!not-a-frame!!" in
            (try
               ignore
                 (Retry.eintr (fun () ->
                      Unix.write resp junk 0 (Bytes.length junk)))
             with Unix.Unix_error _ -> ());
            Unix._exit 3
          | Some (C.Slow_pipe | C.Save_fail) | None ->
            let response =
              run_item ~cfg ~plan ~tally ~slot ~index:q_index ~attempt:q_attempt
                ~time_left:q_time_left
            in
            let json = Worker.response_to_json response in
            (match fault with
             | Some C.Slow_pipe -> Worker.send_slowly resp json
             | _ -> Worker.send resp json);
            loop ()))
  in
  loop ()

(* Parent side. *)

(* Run [plan]'s items still missing from [results] on [workers] worker
   processes, filling [results] as they report back. [note] sees every
   merged result (the durable item checkpoint), [tick] is called once per
   loop turn (progress). Returns the lowest erroring item index ([max_int]
   when none) and the supervision counters. *)
let supervise (cfg : C.t) plan ~workers ~deadline ~tally ~results ~note ~tick =
  let n = Array.length plan.items in
  post_event cfg "supervisor_start"
    [ ("workers", J.Int workers);
      ("items", J.Int n);
      ("max_retries", J.Int cfg.C.max_retries);
      ("item_timeout",
       match cfg.C.item_timeout with
       | Some t -> J.Float t
       | None -> J.Null);
      ("fault",
       match cfg.C.inject_fault with
       | Some f -> J.Str (C.fault_name f)
       | None -> J.Null) ];
  let item_timeout =
    match (cfg.C.item_timeout, cfg.C.inject_fault) with
    (* A hang with no timeout configured would stall forever; give the
       injection harness a finite default. *)
    | None, Some { C.fault_kind = C.Hang; _ } -> Some 10.0
    | t, _ -> t
  in
  let counters =
    { c_spawns = 0; c_restarts = 0; c_timeouts = 0; c_retries = 0;
      c_crashes = 0; c_quarantined = 0 }
  in
  let winner = ref max_int in
  let stopped = ref false in
  let inflight = ref 0 in
  let pending = Queue.create () in
  for k = 0 to n - 1 do
    if results.(k) = None then Queue.push k pending
  done;
  (* Retry heap as a sorted assoc list (ready_at, index, attempt) — retry
     volume is bounded by [n * max_retries], tiny next to item runtimes. *)
  let retries = ref [] in
  let budget_exhausted () =
    match cfg.C.max_executions with
    | Some m -> Tally.executions tally >= m
    | None -> false
  in
  let record index ((r, tbl) as part) =
    results.(index) <- Some part;
    note index r tbl;
    if Report.found_error r && index < !winner then winner := index
  in
  (* Workers can die mid-write; the parent must get EPIPE from its request
     writes, not be killed. Restored on every way out — a long-running host
     (chessd supervises many jobs per process lifetime) must not have
     [Signal_ignore] leak into it when supervision raises mid-flight. *)
  let prev_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () -> Sys.set_signal Sys.sigpipe prev_sigpipe)
  @@ fun () ->
  (* All parent-side pipe ends, so each newly forked child can close its
     inherited copies of the *other* slots' fds. Without this, a respawned
     worker would hold the old workers' request pipes open and EOF-based
     teardown would deadlock on it. *)
  let parent_ends = ref [] in
  let spawn_slot id =
    let req_r, req_w = Unix.pipe ~cloexec:false () in
    let resp_r, resp_w = Unix.pipe ~cloexec:false () in
    flush stdout;
    flush stderr;
    (* A fork takes milliseconds: hand buffered event lines over first, so
       the run's first events do not wait for the pool to come up. *)
    Option.iter Events.sync cfg.C.events;
    match Unix.fork () with
    | 0 ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        !parent_ends;
      Unix.close req_w;
      Unix.close resp_r;
      (* Tally slot 0 is the parent's (resumed totals, in-process items). *)
      child_serve ~cfg ~plan ~tally:(Tally.slot tally (id + 1)) ~slot:id ~req:req_r
        ~resp:resp_w
    | pid ->
      Unix.close req_r;
      Unix.close resp_w;
      parent_ends := req_w :: resp_r :: !parent_ends;
      counters.c_spawns <- counters.c_spawns + 1;
      post_event cfg "worker_spawn"
        [ ("worker", J.Int id); ("pid", J.Int pid) ];
      { s_id = id; s_pid = pid; s_req = req_w; s_resp = resp_r;
        s_buf = Worker.inbuf (); s_item = -1; s_attempt = 0;
        s_deadline = infinity; s_alive = true }
  in
  let dead_slot id =
    { s_id = id; s_pid = -1; s_req = Unix.stdin; s_resp = Unix.stdin;
      s_buf = Worker.inbuf (); s_item = -1; s_attempt = 0;
      s_deadline = infinity; s_alive = false }
  in
  let forget_ends slot =
    parent_ends :=
      List.filter (fun fd -> fd <> slot.s_req && fd <> slot.s_resp) !parent_ends
  in
  (* Tear one worker down hard: SIGKILL, reap, close, mark dead. Returns
     the exit-status description for the requeue reason. *)
  let kill_slot slot =
    (try Unix.kill slot.s_pid Sys.sigkill with Unix.Unix_error _ -> ());
    let status =
      match Retry.eintr (fun () -> Unix.waitpid [] slot.s_pid) with
      | _, st -> status_reason st
      | exception Unix.Unix_error _ -> "already reaped"
    in
    forget_ends slot;
    (try Unix.close slot.s_req with Unix.Unix_error _ -> ());
    (try Unix.close slot.s_resp with Unix.Unix_error _ -> ());
    slot.s_alive <- false;
    post_event cfg "worker_exit"
      [ ("worker", J.Int slot.s_id); ("pid", J.Int slot.s_pid);
        ("status", J.Str status) ];
    status
  in
  let respawn slot =
    counters.c_restarts <- counters.c_restarts + 1;
    match spawn_slot slot.s_id with
    | fresh ->
      slot.s_pid <- fresh.s_pid;
      slot.s_req <- fresh.s_req;
      slot.s_resp <- fresh.s_resp;
      slot.s_buf <- fresh.s_buf;
      slot.s_item <- -1;
      slot.s_attempt <- 0;
      slot.s_deadline <- infinity;
      slot.s_alive <- true
    | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "fairmc: worker %d respawn failed: %s\n%!" slot.s_id
        (Unix.error_message e);
      post_event cfg "worker_spawn_failed"
        [ ("worker", J.Int slot.s_id); ("error", J.Str (Unix.error_message e)) ]
  in
  let quarantine index ~attempts ~reason =
    counters.c_quarantined <- counters.c_quarantined + 1;
    (* A sampling item has no prefix: its executions start at the root. *)
    let decisions =
      match plan.items.(index) with
      | Search.Prefix p ->
        Array.to_list p
        |> List.map (fun (d : Search.pdecision) -> (d.Search.p_tid, d.Search.p_alt))
      | Search.Executions _ -> []
    in
    let rendered =
      Printf.sprintf
        "work item %d quarantined after %d attempt(s): %s\n\
         schedule prefix (tid alt): %s"
        index attempts reason
        (String.concat " "
           (List.map (fun (t, a) -> Printf.sprintf "%d:%d" t a) decisions))
    in
    let cex = { Report.rendered; decisions; length = List.length decisions } in
    post_event cfg "item_quarantined"
      [ ("item", J.Int index); ("attempts", J.Int attempts);
        ("reason", J.Str reason) ];
    record index
      ( { Report.verdict = Report.Crash { reason; cex };
          stats = zero_stats;
          metrics = M.Snapshot.empty;
          analysis = None },
        Hashtbl.create 1 )
  in
  let requeue index attempt ~reason =
    if attempt >= cfg.C.max_retries then
      quarantine index ~attempts:(attempt + 1) ~reason
    else begin
      counters.c_retries <- counters.c_retries + 1;
      let delay = backoff_delay cfg ~index ~attempt in
      post_event cfg "item_retry"
        [ ("item", J.Int index); ("attempt", J.Int (attempt + 1));
          ("delay_s", J.Float delay); ("reason", J.Str reason) ];
      retries :=
        List.merge
          (fun (a, _, _) (b, _, _) -> compare a b)
          [ (Clock.now () +. delay, index, attempt + 1) ]
          !retries
    end
  in
  (* A worker died (crash, EOF, protocol violation, timeout): reap it,
     requeue its in-flight item, bring a fresh process up in its slot. *)
  let worker_died slot ~reason =
    counters.c_crashes <- counters.c_crashes + 1;
    let index = slot.s_item and attempt = slot.s_attempt in
    let status = kill_slot slot in
    if index >= 0 then begin
      decr inflight;
      if results.(index) = None && index < !winner then
        requeue index attempt ~reason:(Printf.sprintf "%s (%s)" reason status)
    end;
    if not !stopped then respawn slot
  in
  let dispatch slot index attempt =
    slot.s_item <- index;
    slot.s_attempt <- attempt;
    slot.s_deadline <-
      (match item_timeout with None -> infinity | Some t -> Clock.now () +. t);
    incr inflight;
    let time_left =
      match cfg.C.time_limit with
      | None -> None
      | Some _ -> Some (Float.max 0. (deadline -. Clock.now ()))
    in
    match
      Worker.send slot.s_req
        (Worker.request_to_json
           (Worker.Run { q_index = index; q_attempt = attempt; q_time_left = time_left }))
    with
    | () -> ()
    | exception (Unix.Unix_error _ | Sys_error _) ->
      worker_died slot ~reason:"request write failed"
  in
  let live index = index < !winner && results.(index) = None in
  let rec next_work now =
    match !retries with
    | (ready, index, attempt) :: rest when ready <= now ->
      retries := rest;
      if live index then Some (index, attempt) else next_work now
    | _ ->
      if Queue.is_empty pending then None
      else begin
        let index = Queue.pop pending in
        if live index then Some (index, 0) else next_work now
      end
  in
  let work_remaining () =
    List.exists (fun (_, i, _) -> live i) !retries
    || Queue.fold (fun acc i -> acc || live i) false pending
  in
  (* A worker running a now-useless item (above the winning error index) is
     killed, and replaced while live items remain. No retry — the item will
     never decide the verdict. *)
  let cancel_slot slot =
    ignore (kill_slot slot);
    decr inflight;
    if (not !stopped) && work_remaining () then respawn slot
  in
  let handle_result slot (resp : Worker.response) =
    let index = resp.Worker.r_index in
    slot.s_item <- -1;
    slot.s_attempt <- 0;
    slot.s_deadline <- infinity;
    decr inflight;
    (* The child's lines join the parent stream as rendered (the worker
       stream already applied the span gate), renumbered in one batch. *)
    Option.iter (fun s -> Events.relay s resp.Worker.r_events) cfg.C.events;
    if live index then
      record index (resp.Worker.r_report, states_tbl resp.Worker.r_states)
  in
  (* Last-resort degradation: every worker slot is dead and cannot be
     respawned. Finish the remaining items in-process — same items, same
     merge — rather than abandoning the search. *)
  let run_inline () =
    Printf.eprintf
      "fairmc: no live worker processes; finishing the search in-process\n%!";
    post_event cfg "supervisor_fallback" [ ("reason", J.Str "no live workers") ];
    let k = ref 0 in
    while !k < n && not (Checkpoint.interrupted ()) && Clock.now () < deadline
          && not (budget_exhausted ())
    do
      if live !k then
        record !k (Search.run_item ~deadline ~shard:0 ~tally cfg plan.prog plan.items.(!k));
      incr k
    done;
    if Checkpoint.interrupted () then stopped := true
  in
  let slots =
    Array.init workers (fun i ->
        match spawn_slot i with
        | s -> s
        | exception Unix.Unix_error (e, _, _) ->
          Printf.eprintf "fairmc: worker %d spawn failed: %s\n%!" i
            (Unix.error_message e);
          post_event cfg "worker_spawn_failed"
            [ ("worker", J.Int i); ("error", J.Str (Unix.error_message e)) ];
          dead_slot i)
  in
  let rec loop () =
    if Checkpoint.interrupted () then stopped := true;
    if not !stopped then begin
      (* Items above the winning error index will never decide the verdict;
         reclaim their workers. *)
      Array.iter
        (fun s -> if s.s_alive && s.s_item > !winner then cancel_slot s)
        slots;
      let now = Clock.now () in
      if now < deadline && not (budget_exhausted ()) then
        Array.iter
          (fun s ->
            if s.s_alive && s.s_item < 0 then
              match next_work now with
              | Some (index, attempt) -> dispatch s index attempt
              | None -> ())
          slots;
      let now = Clock.now () in
      let finished =
        !inflight = 0
        && ((not (work_remaining ())) || now >= deadline || budget_exhausted ())
      in
      if not finished then begin
        if not (Array.exists (fun s -> s.s_alive) slots) then run_inline ()
        else begin
          let fds =
            Array.fold_left
              (fun acc s ->
                if s.s_alive && s.s_item >= 0 then s.s_resp :: acc else acc)
              [] slots
          in
          let timeout =
            let next_deadline =
              Array.fold_left
                (fun acc s ->
                  if s.s_alive && s.s_item >= 0 then Float.min acc s.s_deadline
                  else acc)
                infinity slots
            in
            let next_retry =
              match !retries with (t, _, _) :: _ -> t | [] -> infinity
            in
            let t =
              Float.min 0.2
                (Float.min (next_deadline -. now) (next_retry -. now))
            in
            Float.max 0.01 t
          in
          (* A chunked event sink must not sit on lines while we wait. *)
          Option.iter Events.sync cfg.C.events;
          let readable =
            if fds = [] then (Retry.sleepf timeout; [])
            else begin
              (* Re-arm after EINTR with the *remaining* wait against a
                 monotonic deadline — re-arming the full timeout would let a
                 stream of signals postpone per-item deadlines forever. An
                 interrupt request still breaks out immediately so graceful
                 teardown is not delayed by the residual wait. *)
              let wake = Clock.now () +. timeout in
              let rec poll () =
                let remaining = wake -. Clock.now () in
                if remaining <= 0. then []
                else
                  match Unix.select fds [] [] remaining with
                  | r, _, _ -> r
                  | exception Unix.Unix_error (Unix.EINTR, _, _) ->
                    if Checkpoint.interrupted () then [] else poll ()
              in
              poll ()
            end
          in
          List.iter
            (fun fd ->
              match
                Array.find_opt (fun s -> s.s_alive && s.s_resp = fd) slots
              with
              | None -> ()
              | Some slot ->
                (match Worker.feed slot.s_buf fd with
                 | exception Unix.Unix_error _ ->
                   worker_died slot ~reason:"read failed"
                 | `Eof -> worker_died slot ~reason:"worker closed its pipe"
                 | `Data _ ->
                   let rec drain () =
                     if slot.s_alive then
                       match Worker.extract slot.s_buf with
                       | Ok None -> ()
                       | Error msg ->
                         worker_died slot ~reason:("protocol error: " ^ msg)
                       | Ok (Some (Worker.Raw _)) ->
                         worker_died slot ~reason:"protocol error: unexpected raw frame"
                       | Ok (Some (Worker.Json json)) ->
                         (match Worker.response_of_json json with
                          | exception Checkpoint.Codec.Parse msg ->
                            worker_died slot
                              ~reason:("malformed response: " ^ msg)
                          | resp ->
                            if
                              resp.Worker.r_index <> slot.s_item
                              || resp.Worker.r_attempt <> slot.s_attempt
                            then
                              worker_died slot
                                ~reason:"response does not match the dispatched item"
                            else begin
                              handle_result slot resp;
                              drain ()
                            end)
                   in
                   drain ()))
            readable;
          (* Sweep per-item timeouts: the worker is presumed wedged. *)
          let now = Clock.now () in
          Array.iter
            (fun s ->
              if s.s_alive && s.s_item >= 0 && now > s.s_deadline then begin
                counters.c_timeouts <- counters.c_timeouts + 1;
                post_event cfg "item_timeout"
                  [ ("item", J.Int s.s_item); ("attempt", J.Int s.s_attempt);
                    ("worker", J.Int s.s_id) ];
                worker_died s ~reason:"item timeout"
              end)
            slots;
          tick ();
          loop ()
        end
      end
    end
  in
  loop ();
  (* Teardown: a graceful quit drains nothing (idle workers exit on Quit or
     on request-pipe EOF); an interrupted run SIGKILLs, so in-flight items
     stop where they are. *)
  if !stopped then
    Array.iter (fun s -> if s.s_alive then ignore (kill_slot s)) slots
  else begin
    Array.iter
      (fun s ->
        if s.s_alive then begin
          (try
             Worker.send s.s_req (Worker.request_to_json Worker.Quit)
           with Unix.Unix_error _ | Sys_error _ -> ());
          forget_ends s;
          (try Unix.close s.s_req with Unix.Unix_error _ -> ())
        end)
      slots;
    (* A worker's response pipe reaches EOF when the worker exits, so wait
       for that (each child holds only its own write end), then reap with a
       blocking waitpid. One that is still up after 2 s is SIGKILLed. *)
    let give_up = Clock.now () +. 2.0 in
    let scratch = Bytes.create 4096 in
    let rec await_eof open_ =
      let remaining = give_up -. Clock.now () in
      if open_ <> [] && remaining > 0. then
        match Unix.select (List.map (fun s -> s.s_resp) open_) [] [] remaining with
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> await_eof open_
        | ready, _, _ ->
          await_eof
            (List.filter
               (fun s ->
                 not
                   (List.mem s.s_resp ready
                   && (match Unix.read s.s_resp scratch 0 (Bytes.length scratch) with
                       | 0 -> true
                       | _ -> false
                       | exception Unix.Unix_error (Unix.EINTR, _, _) -> false
                       | exception Unix.Unix_error _ -> true)))
               open_)
      else
        List.iter
          (fun s -> try Unix.kill s.s_pid Sys.sigkill with Unix.Unix_error _ -> ())
          open_
    in
    let alive = List.filter (fun s -> s.s_alive) (Array.to_list slots) in
    await_eof alive;
    List.iter
      (fun s ->
        let status =
          match Retry.eintr (fun () -> Unix.waitpid [] s.s_pid) with
          | _, st -> status_reason st
          | exception Unix.Unix_error _ -> "already reaped"
        in
        (try Unix.close s.s_resp with Unix.Unix_error _ -> ());
        s.s_alive <- false;
        post_event cfg "worker_exit"
          [ ("worker", J.Int s.s_id); ("pid", J.Int s.s_pid);
            ("status", J.Str status) ])
      alive
  end;
  (!winner, counters)

(* Supervision telemetry rides along as gauges only — gauges are exempt from
   the jobs/workers determinism guarantee (see DESIGN.md). *)
let sup_gauges (cfg : C.t) ~workers ~n ~expand_us counters metrics =
  if not cfg.C.metrics then metrics
  else begin
    let m = ref metrics in
    let g name v = m := M.Snapshot.with_gauge !m name v in
    g "sup/workers" workers;
    g "sup/items" n;
    g "sup/expand_us" expand_us;
    g "sup/spawns" counters.c_spawns;
    g "sup/restarts" counters.c_restarts;
    g "sup/timeouts" counters.c_timeouts;
    g "sup/retries" counters.c_retries;
    g "sup/crashes" counters.c_crashes;
    g "sup/quarantined" counters.c_quarantined;
    !m
  end

let post_done (cfg : C.t) (report : Report.t) counters =
  post_event cfg "supervisor_done"
    [ ("verdict", J.Str (Report.verdict_key report.Report.verdict));
      ("spawns", J.Int counters.c_spawns);
      ("restarts", J.Int counters.c_restarts);
      ("timeouts", J.Int counters.c_timeouts);
      ("retries", J.Int counters.c_retries);
      ("crashes", J.Int counters.c_crashes);
      ("quarantined", J.Int counters.c_quarantined) ]

(* The progress reporter's last word uses the merged report, so it agrees
   with the printed totals. *)
let force_progress (cfg : C.t) (report : Report.t) ~jobs =
  match cfg.C.progress with
  | None -> ()
  | Some p ->
    let s = report.Report.stats in
    Progress.force p (fun () ->
        Progress.estimate ~executions:s.Report.executions ~mass:s.Report.probe_mass
          ~elapsed:s.Report.elapsed ~jobs)

let tick_progress (cfg : C.t) tally ~t0 ~prior_elapsed ~jobs () =
  match cfg.C.progress with
  | None -> ()
  | Some p ->
    Progress.tick p (fun () ->
        Progress.estimate ~executions:(Tally.executions tally) ~mass:(Tally.mass tally)
          ~elapsed:(prior_elapsed +. (Clock.now () -. t0))
          ~jobs)

(* Sampling ranges per worker. One range each would do for throughput;
   eight give a checkpoint finished ranges to record before the end, and
   keep short the wait of an erroring range on the ranges below it. A range
   costs one pipe round trip carrying its report: on a 2-vCPU x86-64 guest,
   wsq-1s-correct random:30000 -j 2 --coverage ran as fast in 16 ranges as
   in 2 (medians of 7 runs within 1%). *)
let items_per_worker = 8

let run_items ?resume (cfg : C.t) prog ~workers =
  let t0 = Clock.now () in
  Search.post_run_start cfg prog;
  let deadline =
    match cfg.C.time_limit with None -> infinity | Some l -> t0 +. l
  in
  let recorded =
    match resume with Some (pa : Checkpoint.par_state) -> pa.Checkpoint.pa_items | None -> []
  in
  let items, recorded, expand_timed_out, split_depth =
    if Search.is_systematic cfg then begin
      let prefixes, timed_out =
        Search.expand ~deadline cfg prog ~split_depth:cfg.C.split_depth
      in
      let items = Array.of_list (List.map (fun p -> Search.Prefix p) prefixes) in
      Option.iter (check_par_resume cfg ~n:(Array.length items)) resume;
      (items, recorded, timed_out, cfg.C.split_depth)
    end
    else begin
      let count = Search.sampling_count cfg in
      let chunk = ((count - 1) / (workers * items_per_worker)) + 1 in
      let items, kept = sampling_items ~count ~chunk recorded in
      (items, kept, false, 0)
    end
  in
  let expand_us = int_of_float ((Clock.now () -. t0) *. 1e6) in
  let n = Array.length items in
  let workers = max 1 (min workers n) in
  post_workers cfg ~jobs:workers ~split_depth ~items:n ~expand_us;
  let prior_elapsed =
    match resume with Some pa -> pa.Checkpoint.pa_elapsed | None -> 0.
  in
  let plan = { prog; items } in
  let results = Array.make n None in
  let tally = Tally.create ~slots:(workers + 1) in
  let executions, mass = resume_prefill cfg ~items ~results recorded in
  Tally.add tally ~executions ~mass;
  let ck = parck_create cfg ~prog ~items ~t0 ~prior_elapsed ~recorded ~expand_timed_out in
  (* The savefail fault is parent-side: the first two checkpoint save
     attempts fail transiently, exercising Checkpoint's retry path. Armed
     only when a checkpoint is actually being written — the counter is
     global and must not leak into a later run's saves. *)
  (match (cfg.C.inject_fault, ck) with
   | Some { C.fault_kind = C.Save_fail; _ }, Some _ ->
     Checkpoint.inject_save_failures := 2
   | _ -> ());
  let winner, counters =
    supervise cfg plan ~workers ~deadline ~tally ~results
      ~note:(fun k r tbl -> Option.iter (fun ck -> parck_note ck k r tbl) ck)
      ~tick:(tick_progress cfg tally ~t0 ~prior_elapsed ~jobs:workers)
  in
  let elapsed = prior_elapsed +. (Clock.now () -. t0) in
  (* Wall time of the search phase alone: the frontier expansion is startup
     work, not exploration, so [execs_per_sec] must not be diluted by it. *)
  let search_elapsed = elapsed -. (float_of_int expand_us /. 1e6) in
  let report =
    finalize ~items ~results ~winner ~elapsed ~search_elapsed ~expand_timed_out
      ~with_gauges:(sup_gauges cfg ~workers ~n ~expand_us counters)
  in
  force_progress cfg report ~jobs:workers;
  Option.iter
    (fun ck -> parck_write ck ~complete:(report.Report.verdict <> Report.Limits_reached))
    ck;
  post_done cfg report counters;
  Search.post_run_end cfg report;
  report

let run ?resume (cfg : C.t) prog =
  let workers = resolve_workers cfg in
  let mismatch what =
    raise
      (Checkpoint.Mismatch
         (Printf.sprintf
            "checkpoint payload does not fit %s (resume with the jobs setting that wrote it)"
            what))
  in
  let sequential () =
    match resume with
    | None -> Search.run { cfg with C.jobs = 1 } prog
    | Some (Checkpoint.Seq sq) -> Search.run ~resume:sq { cfg with C.jobs = 1 } prog
    | Some (Checkpoint.Par _) -> mismatch "a sequential search"
  in
  if workers <= 1 then sequential ()
  else
    match cfg.C.mode with
    | C.Round_robin -> (* a single deterministic schedule; nothing to shard *) sequential ()
    | C.Dfs | C.Context_bounded _ | C.Random_walk _ | C.Priority_random _ ->
      (match resume with
       | None -> run_items cfg prog ~workers
       | Some (Checkpoint.Par pa) -> run_items ~resume:pa cfg prog ~workers
       | Some (Checkpoint.Seq _) -> mismatch "a parallel search")
