(* Every search's session: its regions, checkpoints, resume and progress,
   and at a fan-out above one its supervised worker processes. See
   DESIGN.md, "Parallel search" and "Durable sessions".

   Stateless model checking re-executes the program from its initial state
   for every schedule, so workers share nothing but their totals. The
   supervisor keeps the search as a list of regions in DFS order (execution
   order, for sampling), forks worker processes that run the open ones and
   answer in length-prefixed JSON over a pipe pair ({!Worker}), and merges
   what they explored. At a fan-out of one it forks nothing and runs the
   open regions in its own process, one after another, with the same
   merge:

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
     erroring region open. Round-robin runs a single schedule, in
     process.

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
module Span = Fairmc_obs.Span
module Estimator = Fairmc_obs.Estimator

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
  mutable started : float;  (* the search's time when its attempt began *)
}

let region state = { state; number = -1; attempt = 0; ready = 0.; started = 0. }

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

(* A sampling path weighs [1/count]. A resume may raise the count: the
   prior paths are then reweighed, so the mass stays executions/count, as
   in one uninterrupted run. *)
let reweigh (cfg : C.t) (s : Report.stats) metrics =
  if Search.is_systematic cfg then (s, metrics)
  else begin
    let mass =
      s.Report.executions * Estimator.descend Estimator.one (max 1 (Search.sampling_count cfg))
    in
    ( { s with Report.probe_mass = mass },
      match M.Snapshot.find metrics "search/probe_mass" with
      | Some _ -> M.Snapshot.with_counter metrics "search/probe_mass" mass
      | None -> metrics )
  end

(* A checkpoint's done region as explored work, reweighed for the config's
   sampling count. *)
let explored_of_part (cfg : C.t) (p : CK.part) =
  let stats, metrics = reweigh cfg p.CK.p_stats p.CK.p_metrics in
  let analysis =
    if cfg.C.analyses = [] then None
    else
      Some
        { Report.lock_order_edges = p.CK.p_edges;
          potential_deadlock_cycles = AH.cycles p.CK.p_edges }
  in
  ({ Report.verdict = Report.Verified; stats; metrics; analysis }, states_tbl p.CK.p_states)

(* The regions a search starts from: the root item for a fresh search; a
   resumed payload's regions, a sampling search's cut or extended to its
   count (the count is a budget: a resume may raise it). *)
let start_regions (cfg : C.t) (resume : CK.payload option) =
  match resume with
  | None -> [ CK.Open (Search.root cfg) ]
  | Some p when Search.is_systematic cfg -> p.CK.regions
  | Some p ->
    let count = Search.sampling_count cfg in
    let rec fit pos = function
      | [] -> if pos < count then [ CK.Open (CK.Range (pos, count)) ] else []
      | (CK.Done d as r) :: rest -> r :: fit (pos + d.CK.p_stats.Report.executions) rest
      | CK.Open (CK.Range (lo, hi)) :: rest ->
        if lo < count then CK.Open (CK.Range (lo, min hi count)) :: fit hi rest else fit hi rest
      | CK.Open (CK.Cursor _) :: _ ->
        invalid_arg "Supervisor.start_regions: a cursor in a sampling search"
    in
    fit 0 p.CK.regions

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
   it merged and its error's time counted from the search's start; an open
   or cut one leaves the search [Limits_reached], with
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
    | { state = Failed (_, ((w, _) as e)); started; _ } :: _ ->
      let r = add acc e in
      ( w.Report.verdict,
        { r.Report.stats with
          first_error_time = Option.map (( +. ) started) w.Report.stats.Report.first_error_time },
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
(* Telemetry seam                                                      *)
(* ------------------------------------------------------------------ *)

let post_event (cfg : C.t) kind fields =
  match cfg.C.events with
  | None -> ()
  | Some s -> Events.post s ~shard:(-1) ~kind (J.Obj fields)

(* The search goes on in this process: at fan-out 1 that is the plan; at a
   larger one the workers could not be had, and the user is told. *)
let fall_back (cfg : C.t) reason =
  Printf.eprintf "fairmc: %s; finishing the search in-process\n%!" reason;
  post_event cfg "supervisor_fallback" [ ("reason", J.Str reason) ]

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
let busy s = s.s_alive && s.s_region <> None
let idle s = s.s_alive && s.s_region = None
let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* Close every descriptor of a newly forked worker from 3 up but its own
   pipe ends [keep]. A worker holding another worker's request pipe open
   would keep that one from seeing EOF, and the teardown that waits for it
   would hang; one holding its host's socket or files would keep them open
   past the host's own close. *)
let close_inherited keep =
  let names =
    try Sys.readdir "/proc/self/fd"
    with Sys_error _ -> ( try Sys.readdir "/dev/fd" with Sys_error _ -> [||])
  in
  Array.iter
    (fun name ->
      match int_of_string_opt name with
      | Some n when n >= 3 ->
        (* A descriptor is its number on Unix. *)
        let fd : Unix.file_descr = Obj.magic n in
        if not (List.mem fd keep) then close_quietly fd
      | _ -> ())
    names

type t = {
  cfg : C.t;
  prog : Program.t;
  workers : int;  (* the fan-out: worker processes, or 1 in process *)
  hosted : bool;
      (* driven by a host beside other work (chessd): no search in the
         host's process, and no complete checkpoint once it ends *)
  t0 : float;
  prior_elapsed : float;
  deadline : float;
  item_timeout : float option;
  tally : Tally.t;
  counters : counters;
  meters : M.t option;  (* the checkpoint_save span, under [config.metrics] *)
  mutable slots : slot array;  (* empty when the search runs in process *)
  mutable regions : region list;  (* in DFS order *)
  mutable stopped : bool;
  mutable last_write : float;
  mutable due : float;  (* when the next turn is wanted *)
  mutable final : Report.t option;
}

let post t kind fields = post_event t.cfg kind fields

let budget_exhausted t =
  match t.cfg.C.max_executions with
  | Some m -> Tally.executions t.tally >= m
  | None -> false

let work_remaining t = List.exists queued (deciding t.regions)

let elapsed t = t.prior_elapsed +. (Clock.now () -. t.t0)

(* The checkpoint file: the regions as they stand, written after a merged
   answer (throttled by [checkpoint_interval]) and once when the run stops.
   Each save is a [checkpoint_save] span; a failed one warns and keeps the
   previous checkpoint (see Checkpoint.save_result). *)
let write t ~complete regions =
  Option.iter
    (fun path ->
      let regions =
        List.map
          (fun r ->
            match r.state with
            | Explored e -> CK.Done (part_of t.cfg e)
            | Queued item | Running item | Failed (item, _) | Cut (item, _) -> CK.Open item)
          regions
      in
      let span = Span.start () in
      let saved =
        CK.save_result path
          { CK.fingerprint = CK.fingerprint t.cfg ~program:t.prog.Program.name;
            payload = { CK.regions; elapsed = elapsed t; complete } }
      in
      let buf = Option.map (fun s -> Events.buffer s ~shard:(-1)) t.cfg.C.events in
      Span.record
        ?hist:(Option.map (fun reg -> M.histogram reg (Span.hist_name "checkpoint_save")) t.meters)
        ?events:buf ~phase:"checkpoint_save" ~dur_us:(Span.elapsed_us span) ();
      let emit kind fields = Option.iter (fun b -> Events.emit b ~kind (J.Obj fields)) buf in
      (match saved with
       | Ok () -> emit "checkpoint" [ ("file", J.Str path); ("complete", J.Bool complete) ]
       | Error msg ->
         Printf.eprintf "fairmc: checkpoint save failed: %s (keeping the previous checkpoint)\n%!"
           msg;
         emit "checkpoint_error" [ ("file", J.Str path); ("error", J.Str msg) ]);
      Option.iter Events.flush buf)
    t.cfg.C.checkpoint

(* A region's answer: what it explored, and the work it left, which takes
   its place after it. The regions then go to the checkpoint, at most once
   per [checkpoint_interval]. *)
let record t r item ((report, _) as e) rest =
  (match rest with
   | [] ->
     r.state <-
       (match report.Report.verdict with
        | Report.Verified -> Explored e
        | Report.Limits_reached -> Cut (item, e)
        | _ -> Failed (item, e))
   | rest ->
     r.state <- Explored e;
     t.regions <-
       List.concat_map
         (fun x -> if x == r then x :: List.map (fun i -> region (Queued i)) rest else [ x ])
         t.regions);
  t.regions <- coalesce t.regions;
  if Clock.now () -. t.last_write >= t.cfg.C.checkpoint_interval then begin
    t.last_write <- Clock.now ();
    write t ~complete:false t.regions
  end

let spawn_slot t id =
  let req_r, req_w = Unix.pipe ~cloexec:false () in
  let resp_r, resp_w = Unix.pipe ~cloexec:false () in
  flush stdout;
  flush stderr;
  (* A fork takes milliseconds: hand buffered event lines over first, so
     the run's first events do not wait for the pool to come up. *)
  Option.iter Events.sync t.cfg.C.events;
  (* Tally slot 0 is the parent's (resumed totals, in-process items). *)
  let s_tally = Tally.slot t.tally (id + 1) in
  match Unix.fork () with
  | exception e ->
    List.iter close_quietly [ req_r; req_w; resp_r; resp_w ];
    raise e
  | 0 ->
    close_inherited [ req_r; resp_w ];
    child_serve ~cfg:t.cfg ~prog:t.prog ~tally:s_tally ~slot:id ~req:req_r ~resp:resp_w
  | pid ->
    Unix.close req_r;
    Unix.close resp_w;
    t.counters.c_spawns <- t.counters.c_spawns + 1;
    post t "worker_spawn" [ ("worker", J.Int id); ("pid", J.Int pid) ];
    { s_id = id; s_tally; s_pid = pid; s_req = req_w; s_resp = resp_r;
      s_buf = Worker.inbuf (); s_region = None; s_rest = []; s_asked = false;
      s_deadline = infinity; s_alive = true }

let dead_slot t id =
  { s_id = id; s_tally = Tally.slot t.tally (id + 1); s_pid = -1; s_req = Unix.stdin;
    s_resp = Unix.stdin; s_buf = Worker.inbuf (); s_region = None; s_rest = [];
    s_asked = false; s_deadline = infinity; s_alive = false }

let spawn_failed t id e =
  Printf.eprintf "fairmc: worker %d spawn failed: %s\n%!" id (Unix.error_message e);
  post t "worker_spawn_failed" [ ("worker", J.Int id); ("error", J.Str (Unix.error_message e)) ]

let reap t slot =
  let status =
    match Retry.eintr (fun () -> Unix.waitpid [] slot.s_pid) with
    | _, st -> status_reason st
    | exception Unix.Unix_error _ -> "already reaped"
  in
  slot.s_alive <- false;
  post t "worker_exit"
    [ ("worker", J.Int slot.s_id); ("pid", J.Int slot.s_pid); ("status", J.Str status) ];
  status

(* Tear one worker down hard: SIGKILL, close, reap. Returns the region it
   was running and the exit-status description for the requeue reason. *)
let kill_slot t slot =
  (try Unix.kill slot.s_pid Sys.sigkill with Unix.Unix_error _ -> ());
  close_quietly slot.s_req;
  close_quietly slot.s_resp;
  let status = reap t slot in
  let r = slot.s_region in
  slot.s_region <- None;
  slot.s_rest <- [];
  (r, status)

let kill_workers t = Array.iter (fun s -> if s.s_alive then ignore (kill_slot t s)) t.slots

let respawn t slot =
  t.counters.c_restarts <- t.counters.c_restarts + 1;
  match spawn_slot t slot.s_id with
  | fresh ->
    slot.s_pid <- fresh.s_pid;
    slot.s_req <- fresh.s_req;
    slot.s_resp <- fresh.s_resp;
    slot.s_buf <- fresh.s_buf;
    slot.s_deadline <- infinity;
    slot.s_alive <- true
  | exception Unix.Unix_error (e, _, _) -> spawn_failed t slot.s_id e

let quarantine t r item ~attempts ~reason =
  t.counters.c_quarantined <- t.counters.c_quarantined + 1;
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
      (String.concat " " (List.map (fun (t, a) -> Printf.sprintf "%d:%d" t a) decisions))
  in
  let cex = { Report.rendered; decisions; length = List.length decisions } in
  post t "item_quarantined"
    [ ("item", J.Int r.number); ("attempts", J.Int attempts); ("reason", J.Str reason) ];
  record t r item
    ( { Report.verdict = Report.Crash { reason; cex };
        stats = CK.zero_stats;
        metrics = M.Snapshot.empty;
        analysis = None },
      Hashtbl.create 1 )
    []

let requeue t r item ~reason =
  if r.attempt >= t.cfg.C.max_retries then
    quarantine t r item ~attempts:(r.attempt + 1) ~reason
  else begin
    t.counters.c_retries <- t.counters.c_retries + 1;
    let delay = backoff_delay t.cfg ~index:r.number ~attempt:r.attempt in
    post t "item_retry"
      [ ("item", J.Int r.number); ("attempt", J.Int (r.attempt + 1));
        ("delay_s", J.Float delay); ("reason", J.Str reason) ];
    r.attempt <- r.attempt + 1;
    r.ready <- Clock.now () +. delay;
    r.state <- Queued item
  end

(* A worker died (crash, EOF, protocol violation, timeout): reap it,
   requeue its in-flight item, bring a fresh process up in its slot. *)
let worker_died t slot ~reason =
  t.counters.c_crashes <- t.counters.c_crashes + 1;
  let r, status = kill_slot t slot in
  (match r with
   | Some ({ state = Running item; _ } as r) ->
     if List.memq r (deciding t.regions) then
       requeue t r item ~reason:(Printf.sprintf "%s (%s)" reason status)
     else r.state <- Queued item
   | _ -> ());
  if not t.stopped then respawn t slot

(* A worker running a region after a failed one is killed, and replaced
   while work remains. No retry: its work cannot decide the verdict. *)
let cancel_slot t slot =
  (match kill_slot t slot with
   | Some ({ state = Running item; _ } as r), _ -> r.state <- Queued item
   | _ -> ());
  if (not t.stopped) && work_remaining t then respawn t slot

(* Mark [r] as running, numbered once: its first dispatch. *)
let start_region t r item =
  if r.number < 0 then begin
    r.number <- t.counters.c_items;
    t.counters.c_items <- t.counters.c_items + 1
  end;
  r.started <- elapsed t;
  r.state <- Running item

(* Mark [r] as running on [slot]; the request goes out once the turn's
   split requests are up, so the worker reads them at its first path
   boundary already. *)
let assign t slot r item =
  start_region t r item;
  slot.s_region <- Some r;
  slot.s_asked <- false;
  Tally.ask_split slot.s_tally false;
  slot.s_deadline <-
    (match t.item_timeout with None -> infinity | Some d -> Clock.now () +. d)

let send_request t slot r item =
  let time_left =
    match t.cfg.C.time_limit with
    | None -> None
    | Some _ -> Some (Float.max 0. (t.deadline -. Clock.now ()))
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
    worker_died t slot ~reason:"request write failed"

let handle_result t slot (resp : Worker.response) =
  let r = slot.s_region and rest = slot.s_rest in
  slot.s_region <- None;
  slot.s_rest <- [];
  slot.s_deadline <- infinity;
  (* The child's lines join the parent stream as rendered (the worker
     stream already applied the span gate), renumbered in one batch. *)
  Option.iter (fun s -> Events.relay s resp.Worker.r_events) t.cfg.C.events;
  match r with
  | Some ({ state = Running item; _ } as r) ->
    record t r item (resp.Worker.r_report, states_tbl resp.Worker.r_states) rest
  | _ -> ()

(* One read from a busy worker's response pipe, and every frame it
   completes. *)
let read_slot t slot =
  match Worker.feed slot.s_buf slot.s_resp with
  | exception Unix.Unix_error _ -> worker_died t slot ~reason:"read failed"
  | `Eof -> worker_died t slot ~reason:"worker closed its pipe"
  | `Data _ ->
    let rec drain () =
      if busy slot then
        match Worker.extract slot.s_buf with
        | Ok None -> ()
        | Error msg -> worker_died t slot ~reason:("protocol error: " ^ msg)
        | Ok (Some json) ->
          (match (Worker.reply_of_json json, slot.s_region) with
           | exception Checkpoint.Codec.Parse msg ->
             worker_died t slot ~reason:("malformed response: " ^ msg)
           | Worker.Rest items, _ when slot.s_rest = [] && items <> [] ->
             slot.s_rest <- items;
             drain ()
           | Worker.Rest _, _ -> worker_died t slot ~reason:"protocol error: unexpected rest"
           | Worker.Response resp, Some r
             when resp.Worker.r_index = r.number && resp.Worker.r_attempt = r.attempt ->
             handle_result t slot resp;
             drain ()
           | Worker.Response _, _ ->
             worker_died t slot ~reason:"response does not match the dispatched item")
    in
    drain ()

(* The progress line: the tally's executions and probe mass, prior sessions
   included, over the wall time of every session. *)
let tick t () =
  match t.cfg.C.progress with
  | None -> ()
  | Some p ->
    Progress.tick p (fun () ->
        Progress.estimate ~executions:(Tally.executions t.tally) ~mass:(Tally.mass t.tally)
          ~elapsed:(elapsed t) ~jobs:t.workers)

(* Run the open regions in this process, in DFS order, with the merge the
   workers' answers get: the whole search at fan-out 1, and the rest of one
   whose workers are gone. The item's polls tick the progress line. An item
   returns at its first path boundary after [checkpoint_interval] (at most
   {!Search.slice}) only when the run checkpoints, so that its work reaches
   the file; otherwise it runs to its end. *)
let run_in_process t =
  let slice =
    match t.cfg.C.checkpoint with
    | None -> infinity
    | Some _ -> Float.min Search.slice t.cfg.C.checkpoint_interval
  in
  let rec go () =
    if not (Checkpoint.interrupted ()) && Clock.now () < t.deadline && not (budget_exhausted t)
    then
      match List.find_opt queued (deciding t.regions) with
      | Some ({ state = Queued item; _ } as r) ->
        start_region t r item;
        let report, tbl, rest =
          Search.run_item ~deadline:t.deadline ~shard:0 ~slice ~tick:(tick t) ~tally:t.tally t.cfg
            t.prog item
        in
        record t r item (report, tbl) rest;
        go ()
      | _ -> ()
  in
  go ();
  if Checkpoint.interrupted () then t.stopped <- true

(* Reclaim the workers of regions that can no longer decide the verdict,
   hand queued items to idle workers in DFS order, and have busy workers
   split when an idle one has nothing to take. *)
let dispatch t =
  Array.iter
    (fun s ->
      match s.s_region with
      | Some r when s.s_alive && not (List.memq r (deciding t.regions)) -> cancel_slot t s
      | _ -> ())
    t.slots;
  let now = Clock.now () in
  if now < t.deadline && not (budget_exhausted t) then begin
    let sent = ref [] in
    Array.iter
      (fun s ->
        if idle s then
          match List.find_opt (fun r -> queued r && r.ready <= now) (deciding t.regions) with
          | Some ({ state = Queued item; _ } as r) ->
            assign t s r item;
            sent := (s, r, item) :: !sent
          | _ -> ())
      t.slots;
    (* A worker idle with nothing queued has a busy one split its item,
       the first in DFS order not asked already. *)
    let live = deciding t.regions in
    if not (List.exists queued live) then begin
      let want = ref (Array.fold_left (fun n s -> if idle s then n + 1 else n) 0 t.slots) in
      List.iter
        (fun r ->
          if !want > 0 then
            match
              Array.find_opt
                (fun s ->
                  (not s.s_asked)
                  && match s.s_region with Some x -> x == r && s.s_alive | None -> false)
                t.slots
            with
            | Some s ->
              s.s_asked <- true;
              Tally.ask_split s.s_tally true;
              decr want
            | None -> ())
        live
    end;
    List.iter (fun (s, r, item) -> send_request t s r item) (List.rev !sent)
  end

(* A stopped run SIGKILLs its workers, so in-flight items stop where they
   are. A finished one sends every worker [Quit] and closes its request
   pipe, then waits for EOF on the response pipes (each child holds only
   its own write end) and reaps each worker with a blocking waitpid. One
   that is still up after 2 s is SIGKILLed. *)
let teardown t =
  if t.stopped then kill_workers t
  else begin
    let alive = List.filter (fun s -> s.s_alive) (Array.to_list t.slots) in
    List.iter
      (fun s ->
        (try Worker.send s.s_req (Worker.request_to_json Worker.Quit)
         with Unix.Unix_error _ | Sys_error _ -> ());
        close_quietly s.s_req)
      alive;
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
        List.iter (fun s -> try Unix.kill s.s_pid Sys.sigkill with Unix.Unix_error _ -> ()) open_
    in
    await_eof alive;
    List.iter
      (fun s ->
        ignore (reap t s);
        close_quietly s.s_resp)
      alive
  end

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

(* End the run: tear the workers down, merge the regions into the report,
   write the checkpoint and post the closing events. *)
let finish t =
  teardown t;
  let ((report, _) as final) =
    finalize t.cfg t.regions ~elapsed:(elapsed t)
      ~with_gauges:(sup_gauges t.cfg ~workers:t.workers t.counters)
  in
  (* A search that reached its verdict is recorded as one done region,
     unless its host keeps the report instead. *)
  if report.Report.verdict = Report.Limits_reached then write t ~complete:false t.regions
  else if not t.hosted then write t ~complete:true [ region (Explored final) ];
  let report =
    match t.meters with
    | Some reg -> { report with Report.metrics = M.Snapshot.merge report.metrics (M.snapshot reg) }
    | None -> report
  in
  force_progress t.cfg report ~jobs:t.workers;
  post_done t.cfg report ~workers:t.workers t.counters;
  Search.post_run_end t.cfg report;
  Option.iter Events.sync t.cfg.C.events;
  t.final <- Some report;
  report

(* After the dispatch: the report once nothing is left to wait for, and
   otherwise the time of the next turn. *)
let turn t =
  if Checkpoint.interrupted () then t.stopped <- true;
  if not t.stopped then dispatch t;
  let now = Clock.now () in
  if
    t.stopped
    || (not (Array.exists busy t.slots))
       && ((not (work_remaining t)) || now >= t.deadline || budget_exhausted t)
  then Some (finish t)
  else if not (Array.exists (fun s -> s.s_alive) t.slots) then begin
    if Array.length t.slots > 0 then begin
      if t.hosted then failwith "no worker process is left, and none could be forked";
      fall_back t.cfg "no live worker processes"
    end;
    run_in_process t;
    Some (finish t)
  end
  else begin
    let next_deadline =
      Array.fold_left (fun acc s -> if busy s then Float.min acc s.s_deadline else acc) infinity
        t.slots
    in
    let next_retry =
      List.fold_left
        (fun acc r -> if queued r then Float.min acc r.ready else acc)
        infinity (deciding t.regions)
    in
    t.due <- now +. Float.max 0.01 (Float.min 0.2 (Float.min next_deadline next_retry -. now));
    (* A chunked event sink must not sit on lines while its owner waits. *)
    Option.iter Events.sync t.cfg.C.events;
    None
  end

let create ~hosted ?resume (cfg : C.t) prog ~workers =
  let t0 = Clock.now () in
  Search.post_run_start cfg prog;
  let regions =
    coalesce
      (List.map
         (function
           | CK.Done p -> region (Explored (explored_of_part cfg p))
           | CK.Open item -> region (Queued item))
         (start_regions cfg resume))
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
  (* A host runs no search in its process; [chess check] forks only to fan
     out. Tally slot 0 is this process's: resumed totals, in-process
     items. *)
  let forks, tally =
    if workers = 1 && not hosted then (0, Tally.create ~slots:1)
    else
      match Tally.shared ~slots:(workers + 1) with
      | tally -> (workers, tally)
      | exception (Sys_error msg | Unix.Unix_error (_, _, msg)) when not hosted ->
        fall_back cfg ("no tally to share with worker processes (" ^ msg ^ ")");
        (0, Tally.create ~slots:1)
  in
  let workers = max 1 forks in
  List.iter
    (fun r ->
      match r.state with
      | Explored ((x : Report.t), _) ->
        Tally.add tally ~executions:x.stats.Report.executions ~mass:x.stats.Report.probe_mass
      | _ -> ())
    regions;
  (* The savefail fault is parent-side: the first two checkpoint save
     attempts fail transiently, exercising Checkpoint's retry path. Armed
     only when a checkpoint is actually being written — the counter is
     global and must not leak into a later run's saves. *)
  (match (cfg.C.inject_fault, cfg.C.checkpoint) with
   | Some { C.fault_kind = C.Save_fail; _ }, Some _ -> Checkpoint.inject_save_failures := 2
   | _ -> ());
  post_event cfg "supervisor_start"
    [ ("workers", J.Int workers);
      ("items", J.Int (List.length (List.filter queued regions)));
      ("max_retries", J.Int cfg.C.max_retries);
      ("item_timeout", match cfg.C.item_timeout with Some t -> J.Float t | None -> J.Null);
      ("fault", match cfg.C.inject_fault with Some f -> J.Str (C.fault_name f) | None -> J.Null) ];
  let t =
    { cfg; prog; workers; hosted; t0;
      prior_elapsed = (match resume with Some p -> p.CK.elapsed | None -> 0.);
      deadline = (match cfg.C.time_limit with None -> infinity | Some l -> t0 +. l);
      item_timeout =
        (match (cfg.C.item_timeout, cfg.C.inject_fault) with
         (* A hang with no timeout configured would stall forever; give
            the injection harness a finite default. *)
         | None, Some { C.fault_kind = C.Hang; _ } -> Some 10.0
         | d, _ -> d);
      tally;
      counters =
        { c_spawns = 0; c_restarts = 0; c_timeouts = 0; c_retries = 0; c_crashes = 0;
          c_quarantined = 0; c_items = 0 };
      meters = (if cfg.C.metrics then Some (M.create ()) else None);
      slots = [||]; regions; stopped = false; last_write = Clock.now ();
      due = neg_infinity; final = None }
  in
  t.slots <-
    Array.init forks (fun i ->
        match spawn_slot t i with
        | s -> s
        | exception Unix.Unix_error (e, _, _) ->
          spawn_failed t i e;
          dead_slot t i);
  t

let start ?resume cfg prog =
  create ~hosted:true ?resume cfg prog ~workers:(resolve_workers cfg)

let fds t = Array.fold_left (fun acc s -> if busy s then s.s_resp :: acc else acc) [] t.slots
let next_turn t = t.due

let step t ready =
  match t.final with
  | Some r -> Some r
  | None ->
    List.iter
      (fun fd ->
        match Array.find_opt (fun s -> busy s && s.s_resp = fd) t.slots with
        | Some slot -> read_slot t slot
        | None -> ())
      ready;
    (* Sweep per-item timeouts: the worker is presumed wedged. *)
    let now = Clock.now () in
    Array.iter
      (fun s ->
        match s.s_region with
        | Some r when busy s && now > s.s_deadline ->
          t.counters.c_timeouts <- t.counters.c_timeouts + 1;
          post t "item_timeout"
            [ ("item", J.Int r.number); ("attempt", J.Int r.attempt); ("worker", J.Int s.s_id) ];
          worker_died t s ~reason:"item timeout"
        | _ -> ())
      t.slots;
    tick t ();
    turn t

let stop t =
  match t.final with
  | Some r -> r
  | None ->
    t.stopped <- true;
    finish t

(* Wait for the next turn: until a worker answers or the turn is due.
   After EINTR the wait re-arms with what is left of it (re-arming the
   whole wait would let a stream of signals postpone per-item deadlines
   forever); an interrupt request ends it at once. *)
let wait t =
  let fds = fds t in
  let rec poll () =
    let remaining = t.due -. Clock.now () in
    if remaining <= 0. then []
    else
      match Unix.select fds [] [] remaining with
      | r, _, _ -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) ->
        if Checkpoint.interrupted () then [] else poll ()
  in
  poll ()

let run ?resume (cfg : C.t) prog =
  let t = create ~hosted:false ?resume cfg prog ~workers:(resolve_workers cfg) in
  (* Workers can die mid-write; the parent must get EPIPE from its request
     writes, not be killed. *)
  let sigpipe =
    if Array.length t.slots > 0 then Some (Sys.signal Sys.sigpipe Sys.Signal_ignore) else None
  in
  Fun.protect
    ~finally:(fun () ->
      if t.final = None then kill_workers t;
      Option.iter (Sys.set_signal Sys.sigpipe) sigpipe)
  @@ fun () ->
  let rec go ready = match step t ready with Some r -> r | None -> go (wait t) in
  go []
