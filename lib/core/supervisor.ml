(* Parallel search on supervised worker processes. See DESIGN.md, "Parallel
   search".

   Stateless model checking re-executes the program from its initial state
   for every schedule, so workers share nothing but their totals. The
   supervisor keeps the search as a list of regions in DFS order (execution
   order, for sampling), forks worker processes that run the open ones and
   answer in length-prefixed JSON over a pipe pair ({!Worker}), and merges
   what they explored:

   - A search starts from one work item: the empty DFS cursor (the whole
     tree), or the range of every sampling execution. When a worker idles
     with nothing queued, the supervisor raises the split request in a busy
     worker's {!Tally} slot; that worker stops at its next path boundary
     and answers with what it explored and its work left as two items
     ({!Search.run_item}), which take its region's place. Work is cut where
     it is, as the tree turns out to be shaped.

   - Every path runs once, on some worker, and execution i of a sampling
     search draws from its own (seed, i) generator, so the explored regions
     merge, in DFS order, into the sequential report: the same statistics,
     coverage and counters. An error decides the verdict only when every
     region before it is explored, so the counterexample is the one the
     sequential search finds, whatever the fan-out and the timing. A budget
     or time stop before that reports [Limits_reached] and keeps the
     erroring region open. Round-robin runs a single schedule,
     sequentially.

   Crash isolation: a worker that segfaults, is OOM-killed, wedges or
   garbles its pipe costs one attempt of one item, not the search.
   - The worker is SIGKILLed and reaped; its item is requeued with
     exponential backoff, up to [config.max_retries] times.
   - An item that keeps killing workers is quarantined as a {!Report.Crash}
     verdict whose counterexample is the item's schedule prefix, so the
     crashing subtree can be re-entered deterministically.
   - A worker on a region after an erroring one is killed and replaced: its
     work cannot decide the verdict. That is how the first error cancels the
     rest.

   One execution budget spans the processes: every worker adds its paths to
   its own slot of a shared {!Tally}, and [max_executions] is checked
   against the sum at every path start and end (and before each dispatch).

   Determinism of fault injection: a configured fault fires at most once, on
   the first attempt of the item dispatched [fault_seed]-th. Retries are
   fault-free, so every injected fault (with retries left) leaves the final
   report unchanged — the property the fault-matrix tests pin down. *)

module C = Search_config
module CK = Checkpoint
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
(* Regions                                                             *)
(* ------------------------------------------------------------------ *)

(* What a worker explored: its report and its coverage table. *)
type explored = Report.t * (int64, unit) Hashtbl.t

(* A region of the search. A queued, running, failed or cut one is open in
   a checkpoint: it runs again, whole, on resume. *)
type rstate =
  | Queued of CK.item
  | Running of CK.item
  | Explored of explored  (* every path ran to its end without an error *)
  | Failed of CK.item * explored  (* ended in an error, or quarantined *)
  | Cut of CK.item * explored  (* a stop cut its last path short *)

type region = {
  mutable state : rstate;
  mutable number : int;  (* its dispatch number, once dispatched *)
  mutable attempt : int;  (* of its next (or current) dispatch *)
  mutable ready : float;  (* a retry waits until then *)
}

let region state = { state; number = -1; attempt = 0; ready = 0. }

(* Explored work merged, [a] first in DFS order: one stats merge
   ({!Checkpoint.merge_stats}, which offsets [b]'s first error by [a]'s
   executions), metrics merged (counters add, gauges max), lock-order edges
   unioned and their cycles recomputed. The caller unions the coverage
   tables and sets [states]. *)
let merge_reports (a : Report.t) (b : Report.t) =
  let analysis =
    match (a.Report.analysis, b.Report.analysis) with
    | None, x | x, None -> x
    | Some x, Some y ->
      let edges = AH.dedup_edges (x.Report.lock_order_edges @ y.Report.lock_order_edges) in
      Some { Report.lock_order_edges = edges; potential_deadlock_cycles = AH.cycles edges }
  in
  { Report.verdict = b.Report.verdict;
    stats = CK.merge_stats ~prior:a.Report.stats b.Report.stats;
    metrics = Report.fix_lockgraph_counters (M.Snapshot.merge a.metrics b.metrics) analysis;
    analysis }

let union_into dst src = Hashtbl.iter (fun k () -> Hashtbl.replace dst k ()) src

(* Adjacent explored regions become one; the larger table absorbs the
   smaller. *)
let rec coalesce = function
  | ({ state = Explored (a, ta); _ } as r) :: { state = Explored (b, tb); _ } :: rest ->
    let big, small = if Hashtbl.length ta >= Hashtbl.length tb then (ta, tb) else (tb, ta) in
    union_into big small;
    let m = merge_reports a b in
    r.state <-
      Explored ({ m with Report.stats = { m.stats with states = Hashtbl.length big } }, big);
    coalesce (r :: rest)
  | r :: rest -> r :: coalesce rest
  | [] -> []

let sorted_states tbl = List.sort Int64.compare (Hashtbl.fold (fun k () acc -> k :: acc) tbl [])

let states_tbl l =
  let tbl = Hashtbl.create (max 16 (List.length l)) in
  List.iter (fun s -> Hashtbl.replace tbl s ()) l;
  tbl

(* A checkpoint's done region as explored work, reweighed for the config's
   sampling count. *)
let explored_of_part (cfg : C.t) (p : CK.part) =
  let stats, metrics = Search.reweigh cfg p.CK.p_stats p.CK.p_metrics in
  let analysis =
    if cfg.C.analyses = [] then None
    else
      Some
        { Report.lock_order_edges = p.CK.p_edges;
          potential_deadlock_cycles = AH.cycles p.CK.p_edges }
  in
  ({ Report.verdict = Report.Verified; stats; metrics; analysis }, states_tbl p.CK.p_states)

let part_of (cfg : C.t) ((r : Report.t), tbl) =
  { CK.p_stats = r.Report.stats;
    p_metrics = r.Report.metrics;
    p_states = (if cfg.C.coverage then sorted_states tbl else []);
    p_edges = (match r.Report.analysis with Some a -> a.Report.lock_order_edges | None -> []) }

(* The regions before the first failed one: only their work can decide the
   verdict. *)
let rec deciding = function
  | { state = Failed _; _ } :: _ | [] -> []
  | r :: rest -> r :: deciding rest

(* Merge the regions into the final report. The first region that is not
   explored decides: a failed one gives its verdict, with everything before
   it merged; an open or cut one leaves the search [Limits_reached], with
   every region that ran merged (a failed one without its error: the search
   did not reach it). With every region explored, a systematic search is
   verified; a sampling search's count ran out, as the sequential search
   reports it. Returns the report and the union of the merged coverage
   tables. *)
let finalize (cfg : C.t) regions ~elapsed ~with_gauges =
  let tbl = Hashtbl.create 4096 in
  let add acc (r, t) =
    union_into tbl t;
    merge_reports acc r
  in
  let empty =
    { Report.verdict = Report.Verified; stats = CK.zero_stats; metrics = M.Snapshot.empty;
      analysis = None }
  in
  let rec scan acc = function
    | { state = Explored e; _ } :: rest -> scan (add acc e) rest
    | { state = Failed (_, ((w, _) as e)); _ } :: _ ->
      let r = add acc e in
      ( w.Report.verdict,
        { r.Report.stats with first_error_time = w.Report.stats.Report.first_error_time },
        r )
    | [] ->
      ( (if Search.is_systematic cfg then Report.Verified else Report.Limits_reached),
        acc.Report.stats,
        acc )
    | _ :: _ ->
      let r =
        List.fold_left
          (fun acc -> function
            | { state = Explored e | Cut (_, e); _ } -> add acc e
            | { state = Failed (_, ((r : Report.t), t)); _ } ->
              let stats = { r.stats with first_error_execution = None; first_error_time = None } in
              add acc ({ r with stats }, t)
            | _ -> acc)
          empty regions
      in
      (Report.Limits_reached, r.Report.stats, r)
  in
  let verdict, stats, r = scan empty regions in
  ( { Report.verdict;
      stats =
        { stats with Report.states = Hashtbl.length tbl; elapsed; search_elapsed = elapsed };
      metrics = with_gauges r.Report.metrics;
      analysis = r.Report.analysis },
    tbl )

(* ------------------------------------------------------------------ *)
(* Telemetry and checkpoint seams                                      *)
(* ------------------------------------------------------------------ *)

let post_event (cfg : C.t) kind fields =
  match cfg.C.events with
  | None -> ()
  | Some s -> Events.post s ~shard:(-1) ~kind (J.Obj fields)

(* The checkpoint file: the regions as they stand, written after a merged
   answer (throttled by [checkpoint_interval]) and once when the run stops.
   A failed save warns and keeps the previous checkpoint (see
   Checkpoint.save_result). *)
let checkpoint_write (cfg : C.t) path ~prog ~elapsed ~complete regions =
  let regions =
    List.map
      (fun r ->
        match r.state with
        | Explored e -> CK.Done (part_of cfg e)
        | Queued item | Running item | Failed (item, _) | Cut (item, _) -> CK.Open item)
      regions
  in
  match
    CK.save_result path
      { CK.fingerprint = CK.fingerprint cfg ~program:prog.Program.name;
        payload = { CK.regions; elapsed; complete } }
  with
  | Ok () -> ()
  | Error msg ->
    Printf.eprintf "fairmc: checkpoint save failed: %s (keeping the previous checkpoint)\n%!"
      msg;
    post_event cfg "checkpoint_error" [ ("file", J.Str path); ("error", J.Str msg) ]

(* ------------------------------------------------------------------ *)
(* Supervision                                                         *)
(* ------------------------------------------------------------------ *)

type counters = {
  mutable c_spawns : int;
  mutable c_restarts : int;
  mutable c_timeouts : int;
  mutable c_retries : int;
  mutable c_crashes : int;
  mutable c_quarantined : int;
  mutable c_items : int;  (* items dispatched, each counted once *)
}

(* One worker process as the parent sees it. [s_alive = false] marks a slot
   whose process is gone and whose fds are closed (the fd fields then hold
   harmless placeholders and must not be used — every access is guarded by
   [s_alive]). *)
type slot = {
  s_id : int;
  s_tally : Tally.t;  (* the worker's slot of the shared tally *)
  mutable s_pid : int;
  mutable s_req : Unix.file_descr;  (* parent writes requests here *)
  mutable s_resp : Unix.file_descr;  (* parent reads responses here *)
  mutable s_buf : Worker.inbuf;
  mutable s_region : region option;  (* the item in flight *)
  mutable s_rest : CK.item list;  (* the work its item left, once sent *)
  mutable s_asked : bool;  (* its split request is up *)
  mutable s_deadline : float;
  mutable s_alive : bool;
}

let fault_fires (cfg : C.t) ~number ~attempt =
  match cfg.C.inject_fault with
  | Some f when attempt = 0 && number = f.C.fault_seed -> Some f.C.fault_kind
  | _ -> None

(* Exponential backoff with deterministic jitter: the delay is a pure
   function of (seed, dispatch number, attempt), so a retried run is
   replayable. *)
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
let run_item ~(cfg : C.t) ~prog ~tally ~slot ~index ~attempt ~time_left item =
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
  let r, tbl, rest = Search.run_item ~deadline ~shard:slot ~tally cfg_i prog item in
  ( { Worker.r_index = index;
      r_attempt = attempt;
      r_report = r;
      r_states = (if cfg.C.coverage then sorted_states tbl else []);
      r_events = List.rev !lines },
    rest )

(* The worker process's request loop. Never returns: every path ends in
   [Unix._exit] (not [exit] — the child must not run the parent's inherited
   [at_exit] callbacks or re-flush its channels). Exit codes: 0 clean quit,
   2 protocol error, 3 fault-injection backstop. *)
let child_serve ~(cfg : C.t) ~prog ~tally ~slot ~req ~resp =
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
       | Worker.Run { q_index; q_attempt; q_time_left; q_item } ->
         let fault = fault_fires cfg ~number:q_index ~attempt:q_attempt in
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
            let response, rest =
              run_item ~cfg ~prog ~tally ~slot ~index:q_index ~attempt:q_attempt
                ~time_left:q_time_left q_item
            in
            if rest <> [] then Worker.send resp (Worker.rest_to_json rest);
            let json = Worker.response_to_json response in
            (match fault with
             | Some C.Slow_pipe -> Worker.send_slowly resp json
             | _ -> Worker.send resp json);
            loop ()))
  in
  loop ()

(* Parent side. *)

let queued r = match r.state with Queued _ -> true | _ -> false

(* Run the open regions on [workers] worker processes until none is left
   to run, the deadline passes, the budget runs out or an interrupt stops
   the run. [note] sees the regions after every merged answer (the durable
   checkpoint), [tick] is called once per loop turn (progress). Returns the
   regions, in DFS order, and the supervision counters. *)
let supervise (cfg : C.t) prog ~workers ~deadline ~tally ~regions ~note ~tick =
  let regions = ref regions in
  post_event cfg "supervisor_start"
    [ ("workers", J.Int workers);
      ("items", J.Int (List.length (List.filter queued !regions)));
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
      c_crashes = 0; c_quarantined = 0; c_items = 0 }
  in
  let stopped = ref false in
  let budget_exhausted () =
    match cfg.C.max_executions with
    | Some m -> Tally.executions tally >= m
    | None -> false
  in
  let work_remaining () = List.exists queued (deciding !regions) in
  (* A region's answer: what it explored, and the work it left, which takes
     its place after it. *)
  let record r item ((report, _) as e) rest =
    (match rest with
     | [] ->
       r.state <-
         (match report.Report.verdict with
          | Report.Verified -> Explored e
          | Report.Limits_reached -> Cut (item, e)
          | _ -> Failed (item, e))
     | rest ->
       r.state <- Explored e;
       regions :=
         List.concat_map
           (fun x -> if x == r then x :: List.map (fun i -> region (Queued i)) rest else [ x ])
           !regions);
    regions := coalesce !regions;
    note !regions
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
    (* Tally slot 0 is the parent's (resumed totals, in-process items). *)
    let s_tally = Tally.slot tally (id + 1) in
    match Unix.fork () with
    | 0 ->
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        !parent_ends;
      Unix.close req_w;
      Unix.close resp_r;
      child_serve ~cfg ~prog ~tally:s_tally ~slot:id ~req:req_r ~resp:resp_w
    | pid ->
      Unix.close req_r;
      Unix.close resp_w;
      parent_ends := req_w :: resp_r :: !parent_ends;
      counters.c_spawns <- counters.c_spawns + 1;
      post_event cfg "worker_spawn"
        [ ("worker", J.Int id); ("pid", J.Int pid) ];
      { s_id = id; s_tally; s_pid = pid; s_req = req_w; s_resp = resp_r;
        s_buf = Worker.inbuf (); s_region = None; s_rest = []; s_asked = false;
        s_deadline = infinity; s_alive = true }
  in
  let dead_slot id =
    { s_id = id; s_tally = Tally.slot tally (id + 1); s_pid = -1; s_req = Unix.stdin;
      s_resp = Unix.stdin; s_buf = Worker.inbuf (); s_region = None; s_rest = [];
      s_asked = false; s_deadline = infinity; s_alive = false }
  in
  let forget_ends slot =
    parent_ends :=
      List.filter (fun fd -> fd <> slot.s_req && fd <> slot.s_resp) !parent_ends
  in
  (* Tear one worker down hard: SIGKILL, reap, close, mark dead. Returns
     the region it was running and the exit-status description for the
     requeue reason. *)
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
    let r = slot.s_region in
    slot.s_region <- None;
    slot.s_rest <- [];
    (r, status)
  in
  let respawn slot =
    counters.c_restarts <- counters.c_restarts + 1;
    match spawn_slot slot.s_id with
    | fresh ->
      slot.s_pid <- fresh.s_pid;
      slot.s_req <- fresh.s_req;
      slot.s_resp <- fresh.s_resp;
      slot.s_buf <- fresh.s_buf;
      slot.s_deadline <- infinity;
      slot.s_alive <- true
    | exception Unix.Unix_error (e, _, _) ->
      Printf.eprintf "fairmc: worker %d respawn failed: %s\n%!" slot.s_id
        (Unix.error_message e);
      post_event cfg "worker_spawn_failed"
        [ ("worker", J.Int slot.s_id); ("error", J.Str (Unix.error_message e)) ]
  in
  let quarantine r item ~attempts ~reason =
    counters.c_quarantined <- counters.c_quarantined + 1;
    (* A sampling item has no prefix: its executions start at the root. *)
    let decisions =
      match item with
      | CK.Cursor frames ->
        Array.to_list
          (Array.map (fun (f : CK.frame) -> (f.CK.c_chosen.CK.c_tid, f.CK.c_chosen.CK.c_alt)) frames)
      | CK.Range _ -> []
    in
    let rendered =
      Printf.sprintf
        "work item %d quarantined after %d attempt(s): %s\n\
         schedule prefix (tid alt): %s"
        r.number attempts reason
        (String.concat " "
           (List.map (fun (t, a) -> Printf.sprintf "%d:%d" t a) decisions))
    in
    let cex = { Report.rendered; decisions; length = List.length decisions } in
    post_event cfg "item_quarantined"
      [ ("item", J.Int r.number); ("attempts", J.Int attempts);
        ("reason", J.Str reason) ];
    record r item
      ( { Report.verdict = Report.Crash { reason; cex };
          stats = CK.zero_stats;
          metrics = M.Snapshot.empty;
          analysis = None },
        Hashtbl.create 1 )
      []
  in
  let requeue r item ~reason =
    if r.attempt >= cfg.C.max_retries then
      quarantine r item ~attempts:(r.attempt + 1) ~reason
    else begin
      counters.c_retries <- counters.c_retries + 1;
      let delay = backoff_delay cfg ~index:r.number ~attempt:r.attempt in
      post_event cfg "item_retry"
        [ ("item", J.Int r.number); ("attempt", J.Int (r.attempt + 1));
          ("delay_s", J.Float delay); ("reason", J.Str reason) ];
      r.attempt <- r.attempt + 1;
      r.ready <- Clock.now () +. delay;
      r.state <- Queued item
    end
  in
  (* A worker died (crash, EOF, protocol violation, timeout): reap it,
     requeue its in-flight item, bring a fresh process up in its slot. *)
  let worker_died slot ~reason =
    counters.c_crashes <- counters.c_crashes + 1;
    let r, status = kill_slot slot in
    (match r with
     | Some ({ state = Running item; _ } as r) ->
       if List.memq r (deciding !regions) then
         requeue r item ~reason:(Printf.sprintf "%s (%s)" reason status)
       else r.state <- Queued item
     | _ -> ());
    if not !stopped then respawn slot
  in
  (* A worker running a region after a failed one is killed, and replaced
     while work remains. No retry: its work cannot decide the verdict. *)
  let cancel_slot slot =
    (match kill_slot slot with
     | Some ({ state = Running item; _ } as r), _ -> r.state <- Queued item
     | _ -> ());
    if (not !stopped) && work_remaining () then respawn slot
  in
  (* Mark [r] as running on [slot]; the request goes out once the turn's
     split requests are up, so the worker reads them at its first path
     boundary already. *)
  let assign slot r item =
    if r.number < 0 then begin
      r.number <- counters.c_items;
      counters.c_items <- counters.c_items + 1
    end;
    r.state <- Running item;
    slot.s_region <- Some r;
    slot.s_asked <- false;
    Tally.ask_split slot.s_tally false;
    slot.s_deadline <-
      (match item_timeout with None -> infinity | Some t -> Clock.now () +. t)
  in
  let send_request slot r item =
    let time_left =
      match cfg.C.time_limit with
      | None -> None
      | Some _ -> Some (Float.max 0. (deadline -. Clock.now ()))
    in
    match
      Worker.send slot.s_req
        (Worker.request_to_json
           (Worker.Run
              { q_index = r.number; q_attempt = r.attempt; q_time_left = time_left;
                q_item = item }))
    with
    | () -> ()
    | exception (Unix.Unix_error _ | Sys_error _) ->
      worker_died slot ~reason:"request write failed"
  in
  let handle_result slot (resp : Worker.response) =
    let r = slot.s_region and rest = slot.s_rest in
    slot.s_region <- None;
    slot.s_rest <- [];
    slot.s_deadline <- infinity;
    (* The child's lines join the parent stream as rendered (the worker
       stream already applied the span gate), renumbered in one batch. *)
    Option.iter (fun s -> Events.relay s resp.Worker.r_events) cfg.C.events;
    match r with
    | Some ({ state = Running item; _ } as r) ->
      record r item (resp.Worker.r_report, states_tbl resp.Worker.r_states) rest
    | _ -> ()
  in
  (* Last-resort degradation: every worker slot is dead and cannot be
     respawned. Finish the open regions in-process, in DFS order — same
     items, same merge — rather than abandoning the search. *)
  let run_inline () =
    Printf.eprintf
      "fairmc: no live worker processes; finishing the search in-process\n%!";
    post_event cfg "supervisor_fallback" [ ("reason", J.Str "no live workers") ];
    let rec go () =
      if not (Checkpoint.interrupted ()) && Clock.now () < deadline && not (budget_exhausted ())
      then
        match List.find_opt queued (deciding !regions) with
        | Some ({ state = Queued item; _ } as r) ->
          r.state <- Running item;
          let report, tbl, rest = Search.run_item ~deadline ~shard:0 ~tally cfg prog item in
          record r item (report, tbl) rest;
          go ()
        | _ -> ()
    in
    go ();
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
  let busy s = s.s_alive && s.s_region <> None in
  let idle s = s.s_alive && s.s_region = None in
  let rec loop () =
    if Checkpoint.interrupted () then stopped := true;
    if not !stopped then begin
      (* Regions after a failed one will never decide the verdict; reclaim
         their workers. *)
      Array.iter
        (fun s ->
          match s.s_region with
          | Some r when s.s_alive && not (List.memq r (deciding !regions)) -> cancel_slot s
          | _ -> ())
        slots;
      let now = Clock.now () in
      if now < deadline && not (budget_exhausted ()) then begin
        (* Queued items go to idle workers in DFS order. *)
        let sent = ref [] in
        Array.iter
          (fun s ->
            if idle s then
              match
                List.find_opt (fun r -> queued r && r.ready <= now) (deciding !regions)
              with
              | Some ({ state = Queued item; _ } as r) ->
                assign s r item;
                sent := (s, r, item) :: !sent
              | _ -> ())
          slots;
        (* A worker idle with nothing queued has a busy one split its
           item, the first in DFS order not asked already. *)
        let live = deciding !regions in
        if not (List.exists queued live) then begin
          let want = ref (Array.fold_left (fun n s -> if idle s then n + 1 else n) 0 slots) in
          List.iter
            (fun r ->
              if !want > 0 then
                match
                  Array.find_opt
                    (fun s ->
                      (not s.s_asked)
                      && match s.s_region with Some x -> x == r && s.s_alive | None -> false)
                    slots
                with
                | Some s ->
                  s.s_asked <- true;
                  Tally.ask_split s.s_tally true;
                  decr want
                | None -> ())
            live
        end;
        List.iter (fun (s, r, item) -> send_request s r item) (List.rev !sent)
      end;
      let now = Clock.now () in
      let finished =
        (not (Array.exists busy slots))
        && ((not (work_remaining ())) || now >= deadline || budget_exhausted ())
      in
      if not finished then begin
        if not (Array.exists (fun s -> s.s_alive) slots) then run_inline ()
        else begin
          let fds =
            Array.fold_left (fun acc s -> if busy s then s.s_resp :: acc else acc) [] slots
          in
          let timeout =
            let next_deadline =
              Array.fold_left
                (fun acc s -> if busy s then Float.min acc s.s_deadline else acc)
                infinity slots
            in
            let next_retry =
              List.fold_left
                (fun acc r -> if queued r then Float.min acc r.ready else acc)
                infinity !regions
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
                     if busy slot then
                       match Worker.extract slot.s_buf with
                       | Ok None -> ()
                       | Error msg ->
                         worker_died slot ~reason:("protocol error: " ^ msg)
                       | Ok (Some (Worker.Raw _)) ->
                         worker_died slot ~reason:"protocol error: unexpected raw frame"
                       | Ok (Some (Worker.Json json)) ->
                         (match (Worker.reply_of_json json, slot.s_region) with
                          | exception Checkpoint.Codec.Parse msg ->
                            worker_died slot
                              ~reason:("malformed response: " ^ msg)
                          | Worker.Rest items, _ when slot.s_rest = [] && items <> [] ->
                            slot.s_rest <- items;
                            drain ()
                          | Worker.Rest _, _ ->
                            worker_died slot ~reason:"protocol error: unexpected rest"
                          | Worker.Response resp, Some r
                            when resp.Worker.r_index = r.number
                                 && resp.Worker.r_attempt = r.attempt ->
                            handle_result slot resp;
                            drain ()
                          | Worker.Response _, _ ->
                            worker_died slot
                              ~reason:"response does not match the dispatched item")
                   in
                   drain ()))
            readable;
          (* Sweep per-item timeouts: the worker is presumed wedged. *)
          let now = Clock.now () in
          Array.iter
            (fun s ->
              match s.s_region with
              | Some r when busy s && now > s.s_deadline ->
                counters.c_timeouts <- counters.c_timeouts + 1;
                post_event cfg "item_timeout"
                  [ ("item", J.Int r.number); ("attempt", J.Int r.attempt);
                    ("worker", J.Int s.s_id) ];
                worker_died s ~reason:"item timeout"
              | _ -> ())
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
  (!regions, counters)


(* Supervision telemetry rides along as gauges only — gauges are exempt from
   the jobs/workers determinism guarantee (see DESIGN.md). *)
let sup_gauges (cfg : C.t) ~workers counters metrics =
  if not cfg.C.metrics then metrics
  else begin
    let m = ref metrics in
    let g name v = m := M.Snapshot.with_gauge !m name v in
    g "sup/workers" workers;
    g "sup/items" counters.c_items;
    g "sup/spawns" counters.c_spawns;
    g "sup/restarts" counters.c_restarts;
    g "sup/timeouts" counters.c_timeouts;
    g "sup/retries" counters.c_retries;
    g "sup/crashes" counters.c_crashes;
    g "sup/quarantined" counters.c_quarantined;
    !m
  end

(* Advisory coordinator telemetry (never part of the det slice): the worker
   layout and the items dispatched. Nothing is expanded up front, so
   [expand_us] is 0. *)
let post_done (cfg : C.t) (report : Report.t) ~workers counters =
  post_event cfg "workers"
    [ ("jobs", J.Int workers); ("items", J.Int counters.c_items); ("expand_us", J.Int 0) ];
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

let run_items ?resume (cfg : C.t) prog ~workers =
  let t0 = Clock.now () in
  Search.post_run_start cfg prog;
  let deadline =
    match cfg.C.time_limit with None -> infinity | Some l -> t0 +. l
  in
  let regions =
    coalesce
      (List.map
         (function
           | CK.Done p -> region (Explored (explored_of_part cfg p))
           | CK.Open item -> region (Queued item))
         (Search.regions cfg resume))
  in
  (* More workers than sampling executions would idle. *)
  let workers =
    if Search.is_systematic cfg then workers
    else
      List.fold_left
        (fun n r -> match r.state with Queued (CK.Range (lo, hi)) -> n + hi - lo | _ -> n)
        0 regions
      |> min workers |> max 1
  in
  let prior_elapsed = match resume with Some p -> p.CK.elapsed | None -> 0. in
  let tally = Tally.create ~slots:(workers + 1) in
  List.iter
    (fun r ->
      match r.state with
      | Explored ((x : Report.t), _) ->
        Tally.add tally ~executions:x.stats.Report.executions ~mass:x.stats.Report.probe_mass
      | _ -> ())
    regions;
  let write ~complete regions =
    Option.iter
      (fun path ->
        checkpoint_write cfg path ~prog ~complete regions
          ~elapsed:(prior_elapsed +. (Clock.now () -. t0)))
      cfg.C.checkpoint
  in
  (* The savefail fault is parent-side: the first two checkpoint save
     attempts fail transiently, exercising Checkpoint's retry path. Armed
     only when a checkpoint is actually being written — the counter is
     global and must not leak into a later run's saves. *)
  (match (cfg.C.inject_fault, cfg.C.checkpoint) with
   | Some { C.fault_kind = C.Save_fail; _ }, Some _ -> Checkpoint.inject_save_failures := 2
   | _ -> ());
  let last_write = ref (Clock.now ()) in
  let note regions =
    if Clock.now () -. !last_write >= cfg.C.checkpoint_interval then begin
      last_write := Clock.now ();
      write ~complete:false regions
    end
  in
  let regions, counters =
    supervise cfg prog ~workers ~deadline ~tally ~regions ~note
      ~tick:(tick_progress cfg tally ~t0 ~prior_elapsed ~jobs:workers)
  in
  let ((report, _) as final) =
    finalize cfg regions
      ~elapsed:(prior_elapsed +. (Clock.now () -. t0))
      ~with_gauges:(sup_gauges cfg ~workers counters)
  in
  force_progress cfg report ~jobs:workers;
  (* A search that reached its verdict is recorded as one done region, as
     the sequential search records it. *)
  if report.Report.verdict = Report.Limits_reached then write ~complete:false regions
  else write ~complete:true [ region (Explored final) ];
  post_done cfg report ~workers counters;
  Search.post_run_end cfg report;
  report

let run ?resume (cfg : C.t) prog =
  let workers = resolve_workers cfg in
  match cfg.C.mode with
  | C.Dfs | C.Context_bounded _ | C.Random_walk _ | C.Priority_random _ when workers > 1 ->
    run_items ?resume cfg prog ~workers
  | _ -> (* one worker, or round-robin's single schedule *) Search.run ?resume { cfg with C.jobs = 1 } prog
