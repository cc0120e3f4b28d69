module B = Fairmc_util.Bitset
module Rng = Fairmc_util.Rng
module J = Fairmc_util.Json
module C = Search_config
module Obs = Fairmc_obs
module M = Fairmc_obs.Metrics
module AH = Analysis_hook
module CK = Checkpoint

type alt = { tid : int; alt : int; cost : int }

(* The search state just before a frame's decision: the run's snapshot, the
   scheduler, the path's locals, and the counts the path had accumulated
   step by step (a path restored here starts from them, so every count
   still covers whole paths). The path's [crossed_db] is false at every
   frame: no frame is pushed past the depth bound. *)
type snap = {
  sn_run : Engine.snapshot;
  sn_fair : Fair_sched.t;
  sn_budget : int;
  sn_last : int;
  sn_last_yielded : bool;
  sn_yields : int;
  sn_obs : Fair_sched.obs;
}

type frame = {
  mutable chosen : alt;
  mutable rest : alt list;
  mutable sleep : B.t;
  width : int;
      (* branching factor when the node was pushed (before siblings were
         consumed) — the Estimator probe weight of every leaf below *)
  cum : int;
      (* cumulative Estimator weight down to this frame: the ancestor product
         of [1/width], maintained at push so a completed path reads its leaf
         weight in O(1) *)
  mutable snap : snap option;
      (* taken on a restorable run while [rest] is non-empty, dropped with
         the last sibling *)
  mutable sched : int;
      (* the schedule hash of the decisions down to and including
         [chosen], where a restored or fast-forwarded path resumes the
         fold: set when the frame is pushed or loaded from a cursor, and
         when it moves on to a sibling *)
}

(* Why a path ended. *)
type path_end =
  | P_terminated
  | P_deadlock
  | P_safety of int * Engine.failure
  | P_divergence of Report.divergence_kind
  | P_nonterminating  (* hit the hard step cap *)
  | P_pruned  (* context bound or sleep sets left no alternative *)
  | P_stopped  (* wall-clock budget exhausted or interrupted *)

(* Where a [Limits_reached] stop left the work: the search ran out of it, or
   stopped at a path boundary with work left (before its next path, or
   advanced past the one it finished), inside a path (cutting it short), or
   at a boundary because the supervisor asked for a split. *)
type stop = Ran_out | At_boundary | Mid_path | At_split

(* Pre-registered instruments: registered once per search (or shard), so hot
   paths pay a single [option] branch plus a mutable store per event. Only
   allocated when [cfg.metrics] is set — with observability off, [meters] is
   [None] and no registry exists (see DESIGN.md, "Observability"). *)
type meters = {
  reg : M.t;
  m_replay_steps : M.counter;  (* prefix decisions re-executed after backtrack *)
  m_restored_steps : M.counter;  (* prefix transitions restored, not re-executed *)
  m_fresh_steps : M.counter;  (* new systematic decision points *)
  m_sampled_steps : M.counter;  (* random-walk / rr / prio / random-tail steps *)
  m_path_len : M.histogram;  (* steps per execution *)
  m_sched_size : M.histogram;  (* |T| at each scheduling point *)
  m_e_size : M.histogram;  (* chosen thread's E window after its step *)
  m_d_size : M.histogram;
  m_s_size : M.histogram;
  m_pri_edges : M.gauge;  (* peak |P| *)
  m_ops : M.counter array;  (* per Op.kind transition counts *)
  m_ctx_switches : M.counter;
  m_fair_obs : Fair_sched.obs;  (* priority-relation update accounting *)
  m_span_replay : M.histogram;  (* per-path prefix-replay latency, µs *)
  m_span_fresh : M.histogram;  (* per-path fresh-execution latency, µs *)
  m_span_analysis : M.histogram;  (* per-path analysis-observer latency, µs *)
}

let make_meters () =
  let reg = M.create () in
  { reg;
    m_replay_steps = M.counter reg "search/steps/replay";
    m_restored_steps = M.counter reg "search/steps/restored";
    m_fresh_steps = M.counter reg "search/steps/fresh";
    m_sampled_steps = M.counter reg "search/steps/sampled";
    m_path_len = M.histogram reg "search/path_length";
    m_sched_size = M.histogram reg "sched/schedulable_size";
    m_e_size = M.histogram reg "sched/window/e_size";
    m_d_size = M.histogram reg "sched/window/d_size";
    m_s_size = M.histogram reg "sched/window/s_size";
    m_pri_edges = M.gauge reg "sched/priority_edges_peak";
    m_ops = Array.init Op.n_kinds (fun k -> M.counter reg ("engine/op/" ^ Op.kind_name k));
    m_ctx_switches = M.counter reg "engine/context_switches";
    m_fair_obs = Fair_sched.obs_create ();
    m_span_replay = M.histogram reg (Obs.Span.hist_name "replay");
    m_span_fresh = M.histogram reg (Obs.Span.hist_name "fresh");
    m_span_analysis = M.histogram reg (Obs.Span.hist_name "analysis") }

type state = {
  cfg : C.t;
  prog : Program.t;
  mutable run : Engine.t option;
      (* the current path's run; kept across paths while it is restorable *)
  mutable last_trace : Trace.t option;
      (* the trace of the path before, which the next path fast-forwards
         along: kept when a run that does not restore ends *)
  mutable frames : frame array;
  mutable nframes : int;
  states : (int64, unit) Hashtbl.t;
  mutable rng : Rng.t;
      (* the current path's generator: execution i of a sampling search
         draws from (seed, i), a random tail from (seed, the decisions its
         path made above the depth bound), so no draw depends on how the
         search was cut into work items *)
  mutable next_exec : int;  (* sampling: index of the next execution *)
  mutable end_exec : int;  (* sampling: stop before this execution index *)
  mutable stop : stop;
  t0 : float;
  deadline : float;  (* absolute; [infinity] when unlimited *)
  slice_end : float;
      (* a work item hands its rest back at its first path boundary after
         this; [infinity] when it runs to its end *)
  tally : Tally.t option;  (* search-wide totals of a supervised search *)
  tick : unit -> unit;  (* the supervisor's progress tick, at every poll *)
  probe_denom : int;  (* sampling: the execution count; 0 = systematic *)
  meters : meters option;
  events : Obs.Events.buf option;  (* shard-local telemetry batch buffer *)
  span_buf : Obs.Events.buf option;
      (* [events] again iff the stream has spans on (the trace export wants
         per-path span slices and path events); [None] for a plain
         streaming sink, which then pays for no per-path event *)
  analysis : AH.instance list;  (* this shard's dynamic-analysis instances *)
  mutable probe_mass : int;  (* this search's accumulated Estimator mass *)
  mutable sched : int;  (* the current path's schedule hash so far *)
  mutable path_digest : int;  (* this search's paths, order-free *)
  mutable analysis_us : int;  (* current path's analysis-observer time *)
  mutable executions : int;
  mutable transitions : int;
  mutable nonterminating : int;
  mutable depth_bound_hits : int;
  mutable sleep_set_prunes : int;
  mutable conflict_hits : int;  (* static conflict table reported a conflict *)
  mutable yields : int;
  mutable max_depth : int;
  mutable first_error_execution : int option;
  mutable first_error_time : float option;
  mutable sync_ops_per_exec : int;
  mutable max_threads : int;
}

let dummy_frame =
  { chosen = { tid = 0; alt = 0; cost = 0 };
    rest = [];
    sleep = B.empty;
    width = 1;
    cum = Obs.Estimator.one;
    snap = None;
    sched = 0 }

let push_frame st fr =
  if st.nframes = Array.length st.frames then begin
    let a = Array.make (max 64 (2 * st.nframes)) dummy_frame in
    Array.blit st.frames 0 a 0 st.nframes;
    st.frames <- a
  end;
  st.frames.(st.nframes) <- fr;
  st.nframes <- st.nframes + 1

(* A path's schedule hash: FNV-1a-style folding of its (tid, alt)
   decisions in native-int arithmetic from [sched0], taken [land max_int]
   when the path ends. *)
let sched0 = 0x4BF29CE484222325
let fold_decision h ~tid ~alt = (h lxor (tid + (alt lsl 20))) * 0x100000001B3

(* The schedule hash of frames [0..i]: [sched0] for [i < 0]. *)
let sched_through st i = if i < 0 then sched0 else st.frames.(i).sched

(* Leaf weight of the current stack: [Estimator.one] above an empty stack. *)
let top_weight st =
  if st.nframes = 0 then Obs.Estimator.one else st.frames.(st.nframes - 1).cum

(* All elapsed-time accounting funnels through the one (monotonic-ish) clock
   of the observability layer; [t0] is captured from it too, so [elapsed]
   cannot go negative and deadline checks cannot flap under clock steps. *)
let elapsed st = Obs.Clock.elapsed ~since:st.t0

let out_of_time st = Obs.Clock.now () > st.deadline

(* The wall clock and the process-wide graceful interrupt (SIGINT/SIGTERM
   via Checkpoint) are folded into the same poll. *)
let stopped st = out_of_time st || Checkpoint.interrupted ()

(* The search-wide total of a supervised search, this search's count
   otherwise, against the budget. An item's peers spend the shared budget
   too, so an item checks it before starting a path as well as after
   finishing one. *)
let budget_spent st =
  match st.cfg.C.max_executions with
  | Some m ->
    (match st.tally with Some t -> Tally.executions t | None -> st.executions) >= m
  | None -> false

(* Inside a path, the search polls every 256 steps. *)
let poll_mask = 255

(* Poll points tick the supervisor's progress sampler, then check the
   deadline and the interrupt flag. *)
let poll st =
  st.tick ();
  stopped st

let is_systematic (cfg : C.t) =
  match cfg.mode with
  | C.Dfs | C.Context_bounded _ -> true
  | C.Random_walk _ | C.Round_robin | C.Priority_random _ -> false

(* Executions a sampling mode runs; unbounded for the systematic modes. *)
let sampling_count (cfg : C.t) =
  match cfg.C.mode with
  | C.Random_walk n | C.Priority_random n -> n
  | C.Round_robin -> 1
  | C.Dfs | C.Context_bounded _ -> max_int

(* Sampling modes weigh every execution [1/count], whichever session or
   work item runs it. Systematic modes use 0: leaf weights come from the
   frame widths instead. *)
let probe_denom (cfg : C.t) = if is_systematic cfg then 0 else max 1 (sampling_count cfg)

(* A work item on a worker runs about this long before it returns to its
   supervisor, so a search on one worker still reports, relays its events
   and checkpoints as it goes. *)
let slice = 1.0

(* The whole search as one work item: the empty cursor (the whole tree),
   or every execution of a sampling mode. *)
let root (cfg : C.t) =
  if is_systematic cfg then CK.Cursor [||] else CK.Range (0, sampling_count cfg)

let make_state ?deadline ?(slice_end = infinity) ?tally ?(tick = ignore) ?(shard = 0) (cfg : C.t)
    prog =
  let deadline =
    match deadline with
    | Some d -> d
    | None ->
      (match cfg.time_limit with
       | None -> infinity
       | Some l -> Obs.Clock.now () +. l)
  in
  let events = Option.map (fun s -> Obs.Events.buffer s ~shard) cfg.events in
  { cfg;
    prog;
    run = None;
    last_trace = None;
    frames = Array.make 64 dummy_frame;
    nframes = 0;
    states = Hashtbl.create 4096;
    rng = Rng.make cfg.seed;
    next_exec = 0;
    end_exec = 0;
    stop = Ran_out;
    t0 = Obs.Clock.now ();
    deadline;
    slice_end;
    tally;
    tick;
    probe_denom = probe_denom cfg;
    meters = (if cfg.metrics then Some (make_meters ()) else None);
    events;
    span_buf =
      (match cfg.events with
       | Some s when Obs.Events.spans s -> events
       | _ -> None);
    analysis = List.map (fun (a : AH.t) -> a.create ()) cfg.analyses;
    probe_mass = 0;
    sched = sched0;
    path_digest = 0;
    analysis_us = 0;
    executions = 0;
    transitions = 0;
    nonterminating = 0;
    depth_bound_hits = 0;
    sleep_set_prunes = 0;
    conflict_hits = 0;
    yields = 0;
    max_depth = 0;
    first_error_execution = None;
    first_error_time = None;
    sync_ops_per_exec = 0;
    max_threads = 0 }

(* Make [item] the work of the search: a cursor becomes the DFS stack (no
   frame has a snapshot yet, so its first path replays them all), a range
   the executions to run. *)
let load_item st = function
  | CK.Cursor frames ->
    let alt_of (d : CK.decision) = { tid = d.CK.c_tid; alt = d.CK.c_alt; cost = d.CK.c_cost } in
    st.nframes <- 0;
    Array.iter
      (fun (f : CK.frame) ->
        let chosen = alt_of f.CK.c_chosen in
        push_frame st
          { chosen;
            rest = List.map alt_of f.CK.c_rest;
            sleep = f.CK.c_sleep;
            width = f.CK.c_width;
            cum = Obs.Estimator.descend (top_weight st) f.CK.c_width;
            snap = None;
            sched =
              fold_decision (sched_through st (st.nframes - 1)) ~tid:chosen.tid ~alt:chosen.alt })
      frames
  | CK.Range (lo, hi) ->
    st.next_exec <- lo;
    st.end_exec <- hi

(* Debug/analysis hook: receives (signature, decision prefix) for every
   recorded state. Used by the coverage cross-checking tests (searches in
   this process only). *)
let state_hook : (int64 -> Engine.t -> unit) option ref = ref None

let record_state st run =
  if st.cfg.coverage then begin
    let s = Engine.state_signature run in
    Hashtbl.replace st.states s ();
    match !state_hook with None -> () | Some f -> f s run
  end

(* Alternatives at a fresh systematic node, ordered current-thread-first,
   with context-switch costs and the sleep-set filter applied. Preempting an
   enabled, schedulable current thread costs one unit of the context bound;
   switches forced by fairness or blocking are free (paper, Section 4), and
   so are switches right after the current thread yielded — a yield is a
   voluntary release of the processor, not a preemption. Built in one pass
   over the bitset, allocating only the result cells (this is the hottest
   allocation site of the systematic search). *)
let compute_alts st ~tset ~sleep ~last ~last_yielded ~budget run =
  let cur_in = last >= 0 && B.mem last tset in
  let cur_runnable = cur_in && not last_yielded in
  let for_tid tid tail =
    if st.cfg.sleep_sets && B.mem tid sleep then tail
    else begin
      let cost = if tid = last then 0 else if cur_runnable then 1 else 0 in
      if cost > budget then tail
      else begin
        let n = Engine.alternatives run tid in
        let rec cons alt = if alt >= n then tail else { tid; alt; cost } :: cons (alt + 1) in
        cons 0
      end
    end
  in
  let rec others s tail =
    if B.is_empty s then tail
    else begin
      let tid = B.min_elt s in
      let rest = B.remove tid s in
      if tid = last then others rest tail else for_tid tid (others rest tail)
    end
  in
  (* Prefer staying on the current thread (cheap, finds terminating paths
     early) — except right after it yielded, where switching is the natural
     continuation. *)
  if last_yielded then others tset (if cur_in then for_tid last [] else [])
  else if cur_in then for_tid last (others tset [])
  else others tset []

(* Deterministic good-samaritan culprit over [(tid, times_scheduled,
   yielded_in_window)] entries: the most-scheduled thread, non-yielders
   outranking yielders, ties broken by lowest tid. (Previously the max was
   taken under [Hashtbl.fold], whose iteration order — and hence the blamed
   tid on equal scores — was unspecified.) Exposed for the regression test. *)
let good_samaritan_culprit entries =
  fst
    (List.fold_left
       (fun (best, bn) (tid, n, yielded) ->
         let score = if yielded then n else n + 1_000_000 in
         if score > bn || (score = bn && tid < best) then (tid, score) else (best, bn))
       (-1, min_int) entries)

(* The suffix of a divergent path that classifies it, and that its
   counterexample shows. *)
let tail_window = 500

(* Classify a divergent (livelock-bound-exceeding) fair execution by its
   tail: if an enabled thread was starved by non-yielding threads it is a
   good-samaritan violation; otherwise the tail is fair — a livelock. *)
let classify_divergence run : Report.divergence_kind =
  let tr = Engine.trace run in
  let evs = Trace.last_n tr (min tail_window (Trace.length tr)) in
  let scheduled = Hashtbl.create 16 and yielders = Hashtbl.create 16 in
  List.iter
    (fun (e : Trace.event) ->
      Hashtbl.replace scheduled e.tid
        (1 + Option.value ~default:0 (Hashtbl.find_opt scheduled e.tid));
      if e.yielded then Hashtbl.replace yielders e.tid ())
    evs;
  let es = Engine.enabled_set run in
  let starved = B.filter (fun t -> not (Hashtbl.mem scheduled t)) es in
  if B.is_empty starved then Report.Fair_nontermination
  else begin
    (* Blame the most-scheduled thread, preferring one that never yielded in
       the window. *)
    let entries =
      Hashtbl.fold (fun tid n acc -> (tid, n, Hashtbl.mem yielders tid) :: acc) scheduled []
    in
    Report.Good_samaritan_violation (good_samaritan_culprit entries)
  end

let render_cex ?(tail = false) run =
  let tr = Engine.trace run in
  let names = Objects.pp_obj (Engine.store run) in
  let tail_n =
    if tail then Some tail_window
    else if Trace.length tr > 400 then Some 400
    else None
  in
  let rendered = Format.asprintf "@[<v>%a@]" (Trace.pp ?tail:tail_n ~names) tr in
  { Report.rendered; decisions = Trace.decisions tr; length = Trace.length tr }

(* A fresh cell with the same counts. *)
let copy_obs (o : Fair_sched.obs) = { o with Fair_sched.edges_added = o.edges_added }

let release st =
  match st.run with
  | Some run ->
    st.run <- None;
    Engine.stop run
  | None -> ()

(* The deepest frame holding a snapshot: normally the top one, the
   backtrack target. Frames reloaded from a checkpoint or a work item have
   none until a path replays them. *)
let deepest_snap st =
  let rec go i =
    if i < 0 then None
    else match st.frames.(i).snap with Some s -> Some (i, s) | None -> go (i - 1)
  in
  go (st.nframes - 1)

(* A random tail's generator, keyed by the seed and the decisions of the
   path above the depth bound: the same whichever work item runs it. *)
let tail_rng st =
  let key = ref st.cfg.C.seed in
  for i = 0 to st.nframes - 1 do
    let a = st.frames.(i).chosen in
    key := Rng.mix (Rng.mix !key a.tid) a.alt
  done;
  Rng.make !key

(* How a path re-establishes its frame prefix. *)
type start =
  | Boot  (* from the initial state, through the search loop *)
  | Restore of int * snap  (* from frame [i]'s snapshot *)
  | Fast_forward of Trace.t
      (* along the previous path's trace, to the top frame: only the top
         frame's decision, the one the backtrack changed, is not on it *)

let initial_budget (cfg : C.t) = match cfg.mode with C.Context_bounded c -> c | _ -> max_int

type prefix = {
  p_fair : Fair_sched.t;
  p_budget : int;
  p_last : int;
  p_last_yielded : bool;
  p_yields : int;
  p_edges : Fair_sched.obs;
}

(* Every systematic step pushes a frame, so event [i] of a path's trace is
   frame [i]'s decision. The state the search loop keeps along a prefix
   follows from its events: the scheduler's inputs are each event's enabled
   set and yield bit (the next event's enabled set is the state after it),
   and a [Spawn] adds a thread. *)
let fast_forward (cfg : C.t) run trace n ~cost =
  let nthreads0 = Engine.nthreads run in
  Engine.fast_forward run trace n;
  let edges = Fair_sched.obs_create () in
  let obs = Some edges in
  let fair = ref (Fair_sched.create ~nthreads:nthreads0 ~k:cfg.fair_k ()) in
  let budget = ref (initial_budget cfg) in
  let yields = ref 0 in
  for i = 0 to n - 1 do
    let e = Trace.get trace i in
    (match e.Trace.op with Op.Spawn -> fair := Fair_sched.add_thread !fair | _ -> ());
    if cfg.fair then begin
      let es_after =
        if i + 1 < n then (Trace.get trace (i + 1)).Trace.enabled else Engine.enabled_set run
      in
      fair :=
        Fair_sched.step ?obs !fair ~chosen:e.Trace.tid ~yielded:e.Trace.yielded
          ~es_before:e.Trace.enabled ~es_after
    end;
    budget := !budget - cost i;
    if e.Trace.yielded then incr yields
  done;
  let last, last_yielded =
    if n = 0 then (-1, false)
    else begin
      let e = Trace.get trace (n - 1) in
      (e.Trace.tid, e.Trace.yielded)
    end
  in
  { p_fair = !fair; p_budget = !budget; p_last = last; p_last_yielded = last_yielded;
    p_yields = !yields; p_edges = edges }

(* Start a path: restore the deepest snapshot on the stack (re-executing
   only the decisions above it), or boot the program, to be fast-forwarded
   along the previous path's trace or to replay the whole frame prefix. *)
let begin_path st ~systematic =
  let restored = match st.run with Some _ when systematic -> deepest_snap st | _ -> None in
  match (st.run, restored) with
  | Some run, Some (i, s) ->
    Engine.restore run s.sn_run;
    (* With no sibling left, this frame is never restored again. *)
    if st.frames.(i).rest = [] then st.frames.(i).snap <- None;
    (run, Restore (i, s))
  | _ ->
    release st;
    let run = Engine.start st.prog in
    st.run <- Some run;
    List.iter (fun (i : AH.instance) -> i.exec_start run) st.analysis;
    let start = match st.last_trace with Some tr -> Fast_forward tr | None -> Boot in
    st.last_trace <- None;
    (run, start)

(* The path from [begin_path]'s state until it ends. *)
let execute_from st ~systematic ~restoring run start =
  let cfg = st.cfg in
  let spans_on = Option.is_some st.meters || Option.is_some st.span_buf in
  let nframes0 = st.nframes in
  let t_path = Obs.Span.start () in
  (* Set at the first non-replay decision: splits the path's wall time into
     its replay and fresh segments. *)
  let t_fresh = ref None in
  (* Counts the path accumulates step by step, folded into the search's
     when it ends. A restored or fast-forwarded path starts from the counts
     of its prefix. *)
  st.sched <-
    (match start with
     | Boot -> sched0
     | Restore (i, _) -> sched_through st (i - 1)
     | Fast_forward _ -> sched_through st (st.nframes - 2));
  let fair, budget, last, last_yielded, depth, yields, fair_obs =
    match start with
    | Boot ->
      ( Fair_sched.create ~nthreads:(Engine.nthreads run) ~k:cfg.fair_k (),
        initial_budget cfg, -1, false, 0, 0, Fair_sched.obs_create () )
    | Restore (i, s) ->
      (match st.meters with
       | Some m -> M.add m.m_restored_steps (Engine.steps run)
       | None -> ());
      ( (if Option.is_none st.frames.(i).snap then s.sn_fair else Fair_sched.copy s.sn_fair),
        s.sn_budget, s.sn_last, s.sn_last_yielded, i, s.sn_yields, copy_obs s.sn_obs )
    | Fast_forward tr ->
      let n = st.nframes - 1 in
      let p = fast_forward cfg run tr n ~cost:(fun i -> st.frames.(i).chosen.cost) in
      (match st.meters with Some m -> M.add m.m_replay_steps n | None -> ());
      (p.p_fair, p.p_budget, p.p_last, p.p_last_yielded, n, p.p_yields, p.p_edges)
  in
  let fair = ref fair in
  let budget = ref budget in
  let last = ref last in
  let last_yielded = ref last_yielded in
  let depth = ref depth in
  let crossed_db = ref false in
  let yields = ref yields in
  let rr_next = ref 0 in
  (* Snapshot the state before [fr]'s decision while it has siblings left
     to explore. *)
  let keep_snap fr =
    if restoring && fr.rest <> [] && Option.is_none fr.snap then
      fr.snap <-
        Some
          { sn_run = Engine.capture run;
            sn_fair = Fair_sched.copy !fair;
            sn_budget = !budget;
            sn_last = !last;
            sn_last_yielded = !last_yielded;
            sn_yields = !yields;
            sn_obs = copy_obs fair_obs }
  in
  (* Sleep set of the next fresh node, computed when its parent's decision is
     applied (we need the parent state's pending operations). *)
  let pending_sleep = ref B.empty in
  let livelock_bound =
    if cfg.fair then Option.value cfg.livelock_bound ~default:cfg.max_steps else max_int
  in
  (* A restored or fast-forwarded prefix's states were recorded when it
     first ran. *)
  (match start with Boot -> record_state st run | Restore _ | Fast_forward _ -> ());
  if not systematic then st.rng <- Rng.make (Rng.mix cfg.seed st.next_exec);
  let apply (a : alt) =
    if cfg.sleep_sets && systematic && !depth > 0 && !depth = st.nframes then begin
      (* The next node is fresh: derive its sleep set from this node's. *)
      let fr = st.frames.(!depth - 1) in
      match Engine.pending run a.tid with
      | None -> pending_sleep := B.empty
      | Some op_a ->
        let facts = st.prog.Program.facts in
        pending_sleep :=
          B.filter
            (fun u ->
              match Engine.pending run u with
              | None -> false
              | Some op_u ->
                let indep =
                  Indep.independent ?facts ~t1:a.tid ~op1:op_a ~t2:u ~op2:op_u
                    ~fair:cfg.fair ()
                in
                (* Count dependencies the static table finds beyond the
                   syntactic rule (each fresh node is derived exactly once
                   search-wide, so the counter sums jobs-invariantly). *)
                (match facts with
                 | Some f
                   when (not indep)
                        && Static_facts.conflict f ~t1:a.tid ~op1:op_a ~t2:u ~op2:op_u
                        && Option.is_some (Op.obj_of op_a)
                        && Option.is_some (Op.obj_of op_u)
                        && Op.obj_of op_a <> Op.obj_of op_u ->
                   st.conflict_hits <- st.conflict_hits + 1
                 | _ -> ());
                indep)
            fr.sleep
    end
    else pending_sleep := B.empty;
    let es_before = Engine.enabled_set run in
    let yielded = Engine.would_yield run a.tid in
    let nth_before = Engine.nthreads run in
    budget := !budget - a.cost;
    st.sched <- fold_decision st.sched ~tid:a.tid ~alt:a.alt;
    Engine.step run ~tid:a.tid ~alt:a.alt;
    for _ = nth_before + 1 to Engine.nthreads run do
      fair := Fair_sched.add_thread !fair
    done;
    if cfg.fair then begin
      let es_after = Engine.enabled_set run in
      (match st.meters with
       | None -> fair := Fair_sched.step !fair ~chosen:a.tid ~yielded ~es_before ~es_after
       | Some m ->
         fair := Fair_sched.step ~obs:fair_obs !fair ~chosen:a.tid ~yielded ~es_before ~es_after;
         M.set_max m.m_pri_edges (Fair_sched.edge_count !fair);
         let e, d, s = Fair_sched.sets !fair ~tid:a.tid in
         M.observe m.m_e_size (B.cardinal e);
         M.observe m.m_d_size (B.cardinal d);
         M.observe m.m_s_size (B.cardinal s))
    end;
    last := a.tid;
    last_yielded := yielded;
    if yielded then incr yields;
    st.max_depth <- Int.max st.max_depth (Engine.steps run);
    record_state st run
  in
  let random_from tset =
    let tid = B.nth tset (Rng.int st.rng (B.cardinal tset)) in
    let alts = Engine.alternatives run tid in
    { tid; alt = (if alts = 1 then 0 else Rng.int st.rng alts); cost = 0 }
  in
  let sample tset =
    match cfg.mode with
    | C.Random_walk _ -> random_from tset
    | C.Round_robin ->
      let n = Engine.nthreads run in
      let rec find i =
        let tid = i mod n in
        if B.mem tid tset then tid else find (i + 1)
      in
      let tid = find !rr_next in
      rr_next := tid + 1;
      { tid; alt = 0; cost = 0 }
    | C.Priority_random _ ->
      (* Apt–Olderog-style: fresh random priorities every step. *)
      let best = ref (-1) and best_p = ref min_int in
      B.iter
        (fun tid ->
          let p = Rng.int st.rng 1_000_000 in
          if p > !best_p then begin best := tid; best_p := p end)
        tset;
      let alts = Engine.alternatives run !best in
      { tid = !best; alt = (if alts = 1 then 0 else Rng.int st.rng alts); cost = 0 }
    | C.Dfs | C.Context_bounded _ -> assert false
  in
  let rec loop () =
    match Engine.failure run with
    | Some (tid, f) -> P_safety (tid, f)
    | None ->
      if Engine.all_finished run then P_terminated
      else begin
        let es = Engine.enabled_set run in
        if B.is_empty es then P_deadlock
        else begin
          let steps = Engine.steps run in
          if cfg.fair && steps >= livelock_bound then
            P_divergence (classify_divergence run)
          else if steps >= cfg.max_steps then P_nonterminating
          else if steps land poll_mask = poll_mask && poll st then P_stopped
          else begin
            let tset = if cfg.fair then Fair_sched.schedulable !fair ~enabled:es else es in
            (* Theorem 3: T is empty iff ES is empty. *)
            assert (not (B.is_empty tset));
            (match st.meters with
             | Some m -> M.observe m.m_sched_size (B.cardinal tset)
             | None -> ());
            if systematic && !depth < st.nframes then begin
              (match st.meters with Some m -> M.incr m.m_replay_steps | None -> ());
              let fr = st.frames.(!depth) in
              keep_snap fr;
              incr depth;
              apply fr.chosen;
              loop ()
            end
            else if not systematic then begin
              (match st.meters with Some m -> M.incr m.m_sampled_steps | None -> ());
              if spans_on && Option.is_none !t_fresh then
                t_fresh := Some (Obs.Span.start ());
              apply (sample tset);
              loop ()
            end
            else begin
              let beyond_db =
                (not cfg.fair)
                && (match cfg.depth_bound with Some db -> steps >= db | None -> false)
              in
              if beyond_db then begin
                (* The random tail (paper §4.2.1): finish the cut path under
                   random scheduling. *)
                if not !crossed_db then begin
                  st.depth_bound_hits <- st.depth_bound_hits + 1;
                  crossed_db := true;
                  st.rng <- tail_rng st
                end;
                (match st.meters with Some m -> M.incr m.m_sampled_steps | None -> ());
                if spans_on && Option.is_none !t_fresh then
                  t_fresh := Some (Obs.Span.start ());
                apply (random_from tset);
                loop ()
              end
              else begin
                match
                  compute_alts st ~tset ~sleep:!pending_sleep ~last:!last
                    ~last_yielded:!last_yielded ~budget:!budget run
                with
                | [] ->
                  (* everything pruned by sleep sets *)
                  st.sleep_set_prunes <- st.sleep_set_prunes + 1;
                  P_pruned
                | a :: rest ->
                  (match st.meters with Some m -> M.incr m.m_fresh_steps | None -> ());
                  if spans_on && Option.is_none !t_fresh then
                    t_fresh := Some (Obs.Span.start ());
                  let width = 1 + List.length rest in
                  let fr =
                    { chosen = a;
                      rest;
                      sleep = !pending_sleep;
                      width;
                      cum = Obs.Estimator.descend (top_weight st) width;
                      snap = None;
                      sched = 0 (* once [a] is applied *) }
                  in
                  push_frame st fr;
                  keep_snap fr;
                  incr depth;
                  apply a;
                  fr.sched <- st.sched;
                  loop ()
              end
            end
          end
        end
      end
  in
  let outcome = loop () in
  if spans_on then begin
    let t_end = Obs.Span.start () in
    let total_us = Obs.Span.elapsed_us_between t_path t_end in
    let hist f = Option.map f st.meters in
    let replay_us, fresh_us =
      match !t_fresh with
      | Some tf ->
        let f = Obs.Span.elapsed_us_between tf t_end in
        (max 0 (total_us - f), Some f)
      | None -> (total_us, None)
    in
    if systematic && nframes0 > 0 then
      Obs.Span.record ?hist:(hist (fun m -> m.m_span_replay)) ?events:st.span_buf
        ~phase:"replay" ~dur_us:replay_us ();
    match fresh_us with
    | Some f ->
      Obs.Span.record ?hist:(hist (fun m -> m.m_span_fresh)) ?events:st.span_buf
        ~phase:"fresh" ~dur_us:f ()
    | None -> ()
  end;
  st.transitions <- st.transitions + Engine.steps run;
  st.yields <- st.yields + !yields;
  (match st.meters with
   | Some m ->
     let o = m.m_fair_obs in
     o.edges_added <- o.edges_added + fair_obs.edges_added;
     o.edges_removed <- o.edges_removed + fair_obs.edges_removed;
     o.penalties <- o.penalties + fair_obs.penalties
   | None -> ());
  st.sync_ops_per_exec <- Int.max st.sync_ops_per_exec (Engine.sync_ops run);
  st.max_threads <- Int.max st.max_threads (Engine.nthreads run);
  (outcome, run)

(* Execute one path: re-establish the frame prefix (systematic modes), then
   extend with fresh decisions until the path ends. A restorable run is kept
   for the next path; any other is stopped, and its trace kept for the next
   path to fast-forward along, unless an analysis observes the run: an
   observer must see every transition. *)
let execute_path st ~systematic =
  let run, start = begin_path st ~systematic in
  let restoring = systematic && Engine.restorable run in
  match execute_from st ~systematic ~restoring run start with
  | result ->
    if not restoring then begin
      (match st.analysis with
       | [] when systematic -> st.last_trace <- Some (Engine.trace run)
       | _ -> ());
      release st
    end;
    result
  | exception e ->
    release st;
    raise e

(* The sleep set of a frame moving on from [chosen] to the sibling [next]:
   with sleep sets on, the explored thread sleeps below its siblings. *)
let sibling_sleep (cfg : C.t) ~chosen ~next sleep =
  if cfg.sleep_sets && next <> chosen then B.add chosen sleep else sleep

(* Advance the DFS to the next unexplored decision; false when exhausted. *)
let backtrack st =
  let rec go () =
    if st.nframes = 0 then false
    else begin
      let fr = st.frames.(st.nframes - 1) in
      match fr.rest with
      | [] ->
        st.nframes <- st.nframes - 1;
        st.frames.(st.nframes) <- dummy_frame;
        go ()
      | a :: rest ->
        fr.sleep <- sibling_sleep st.cfg ~chosen:fr.chosen.tid ~next:a.tid fr.sleep;
        fr.chosen <- a;
        fr.rest <- rest;
        fr.sched <- fold_decision (sched_through st (st.nframes - 2)) ~tid:a.tid ~alt:a.alt;
        true
    end
  in
  go ()

let stats_of st =
  { Report.executions = st.executions;
    transitions = st.transitions;
    states = Hashtbl.length st.states;
    nonterminating = st.nonterminating;
    depth_bound_hits = st.depth_bound_hits;
    sleep_set_prunes = st.sleep_set_prunes;
    yields = st.yields;
    max_depth = st.max_depth;
    elapsed = elapsed st;
    first_error_execution = st.first_error_execution;
    first_error_time = st.first_error_time;
    sync_ops_per_exec = st.sync_ops_per_exec;
    max_threads = st.max_threads;
    search_elapsed = elapsed st;
    probe_mass = st.probe_mass;
    path_digest = st.path_digest }

(* Export the plain search statistics and the fair-scheduler accounting as
   derived entries over a registry snapshot. Derived quantities that depend
   on wall time or on the shard layout are gauges, never counters — the
   counter slice of a snapshot is deterministic across [jobs] (tested). Pure
   with respect to the registry. *)
let metrics_of st =
  match st.meters with
  | None -> M.Snapshot.empty
  | Some m ->
    let snap = ref (M.snapshot m.reg) in
    let c name v = snap := M.Snapshot.with_counter !snap name v in
    c "search/executions" st.executions;
    c "search/transitions" st.transitions;
    c "search/nonterminating" st.nonterminating;
    c "search/prunes/depth_bound" st.depth_bound_hits;
    c "search/prunes/sleep_set" st.sleep_set_prunes;
    c "sched/yields" st.yields;
    c "sched/priority_edges_added" m.m_fair_obs.Fair_sched.edges_added;
    c "sched/priority_edges_removed" m.m_fair_obs.Fair_sched.edges_removed;
    c "sched/priority_penalties" m.m_fair_obs.Fair_sched.penalties;
    c "search/probe_mass" st.probe_mass;
    c "static/conflict_hits" st.conflict_hits;
    let g name v = snap := M.Snapshot.with_gauge !snap name v in
    (* A program constant, exported as a gauge (merged by max) so it stays
       jobs- and resume-invariant. *)
    (match st.prog.Program.facts with
     | Some f -> g "static/invisible_merged" (Static_facts.merged_sites f)
     | None -> ());
    g "search/max_depth" st.max_depth;
    g "search/max_threads" st.max_threads;
    g "search/states" (Hashtbl.length st.states);
    g "time/shard_busy_us" (int_of_float (elapsed st *. 1e6));
    !snap

(* Earliest race reported by any analysis instance so far (by step of the
   completing access; polled after every path — no allocation when clean). *)
let first_race_of st =
  List.fold_left
    (fun acc (i : AH.instance) ->
      match (acc, i.AH.first_race ()) with
      | None, x -> x
      | (Some _ as a), None -> a
      | Some (a : AH.race), Some b -> Some (if b.b_step < a.b_step then b else a))
    None st.analysis

(* Final analysis results of this shard: the report's [analysis] field plus
   the per-analysis counters to splice into the metrics snapshot. *)
let analysis_report st =
  match st.analysis with
  | [] -> (None, [])
  | insts ->
    let combined = AH.combine (List.map (fun (i : AH.instance) -> i.AH.result ()) insts) in
    ( Some
        { Report.lock_order_edges = combined.AH.lock_edges;
          potential_deadlock_cycles = AH.cycles combined.AH.lock_edges },
      combined.AH.counters )

(* The search's report: stats, metrics with the per-analysis counters
   spliced in, analysis results. *)
let report st verdict =
  let analysis, acounters = analysis_report st in
  let metrics =
    List.fold_left (fun m (k, v) -> M.Snapshot.with_counter m k v) (metrics_of st) acounters
  in
  { Report.verdict; stats = stats_of st; metrics; analysis }

(* Move to the next unexplored path: backtrack, or the range's next
   execution. False when no work is left. *)
let advance st = if is_systematic st.cfg then backtrack st else st.next_exec < st.end_exec

(* The DFS stack as a cursor. Frames are deep-copied: the backtracking
   mutates them in place. *)
let cursor_frames st =
  let dec (a : alt) = { CK.c_tid = a.tid; c_alt = a.alt; c_cost = a.cost } in
  Array.init st.nframes (fun i ->
      let fr = st.frames.(i) in
      { CK.c_chosen = dec fr.chosen; c_rest = List.map dec fr.rest; c_sleep = fr.sleep;
        c_width = fr.width })

(* The work of the current item left at a path boundary. *)
let remaining st =
  if is_systematic st.cfg then [ CK.Cursor (cursor_frames st) ]
  else if st.next_exec < st.end_exec then [ CK.Range (st.next_exec, st.end_exec) ]
  else []

let splittable st =
  if is_systematic st.cfg then begin
    let rec any i = i < st.nframes && (st.frames.(i).rest <> [] || any (i + 1)) in
    any 0
  end
  else st.end_exec - st.next_exec >= 2

(* The work left at a boundary, cut in two in DFS order: the stack without
   the untried siblings of its shallowest frame that has some, and a cursor
   that starts at those siblings with the sleep set [backtrack] would give
   them. A range splits in half. *)
let split st =
  if is_systematic st.cfg then begin
    let frames = cursor_frames st in
    let i = Option.get (Array.find_index (fun (f : CK.frame) -> f.CK.c_rest <> []) frames) in
    let f = frames.(i) in
    let next = List.hd f.CK.c_rest in
    let siblings =
      { f with
        CK.c_chosen = next;
        c_rest = List.tl f.CK.c_rest;
        c_sleep = sibling_sleep st.cfg ~chosen:f.CK.c_chosen.CK.c_tid ~next:next.CK.c_tid f.CK.c_sleep }
    in
    frames.(i) <- { f with CK.c_rest = [] };
    [ CK.Cursor frames; CK.Cursor (Array.append (Array.sub frames 0 i) [| siblings |]) ]
  end
  else begin
    let mid = st.next_exec + ((st.end_exec - st.next_exec) / 2) in
    [ CK.Range (st.next_exec, mid); CK.Range (mid, st.end_exec) ]
  end

(* A worker asked to split does so at a path boundary that leaves work to
   split off. *)
let split_wanted st =
  match st.tally with Some t -> Tally.split_asked t && splittable st | None -> false

(* How a path ended, as its [path] event names it and its hash codes it.
   Only a path a stop cut short ends nondeterministically. *)
let path_end_info = function
  | P_terminated -> ("terminated", 0, true)
  | P_deadlock -> ("deadlock", 1, true)
  | P_safety _ -> ("safety", 2, true)
  | P_divergence _ -> ("divergence", 3, true)
  | P_nonterminating -> ("nonterminating", 4, true)
  | P_pruned -> ("pruned", 5, true)
  | P_stopped -> ("stopped", 6, false)

(* A path's term in the digest: its end, step count and schedule hash,
   mixed (a splitmix-style finalizer in native ints) so that the sum of
   many carries no structure of the schedules, taken modulo 2^61 (adding
   0 under {!Report.digest_add}). *)
let path_hash ~end_ ~steps ~schedule =
  let fmix h =
    let h = (h lxor (h lsr 30)) * 0x3F58476D1CE4E5B9 in
    let h = (h lxor (h lsr 27)) * 0x14D049BB133111EB in
    h lxor (h lsr 31)
  in
  Report.digest_add (fmix (fmix (schedule + end_) lxor steps)) 0

let run_loop_body st =
  let cfg = st.cfg in
  let systematic = is_systematic cfg in
  let verdict = ref None in
  let stop at =
    verdict := Some Report.Limits_reached;
    st.stop <- at
  in
  let mark_error () =
    st.first_error_execution <- Some st.executions;
    st.first_error_time <- Some (elapsed st)
  in
  while !verdict = None do
    (* Poll the wall clock, the interrupt flag and the shared budget at
       every path start, so short budgets cannot overshoot by a whole
       path. *)
    if poll st || budget_spent st then stop At_boundary
    else begin
      let outcome, run_ = execute_path st ~systematic in
      st.executions <- st.executions + 1;
      if not systematic then st.next_exec <- st.next_exec + 1;
      (* Knuth probe: this leaf's weight is the product of [1/width] over its
         ancestor frames (systematic), or [1/budget] (sampling). Exact
         fixed-point division, so the sum is jobs-deterministic. *)
      let mass =
        if systematic then top_weight st
        else Obs.Estimator.descend Obs.Estimator.one st.probe_denom
      in
      st.probe_mass <- st.probe_mass + mass;
      (match st.tally with Some t -> Tally.add t ~executions:1 ~mass | None -> ());
      (match st.meters with
       | None -> ()
       | Some m ->
         let ops = Engine.op_counts run_ in
         Array.iteri (fun k n -> if n > 0 then M.add m.m_ops.(k) n) ops;
         M.add m.m_ctx_switches (Engine.context_switches run_);
         M.observe m.m_path_len (Trace.length (Engine.trace run_)));
      if st.analysis_us > 0 then begin
        Obs.Span.record
          ?hist:(Option.map (fun m -> m.m_span_analysis) st.meters)
          ?events:st.span_buf ~phase:"analysis" ~dur_us:st.analysis_us ();
        st.analysis_us <- 0
      end;
      (let end_name, end_, det = path_end_info outcome in
       let steps = Engine.steps run_ and schedule = st.sched land max_int in
       st.path_digest <- Report.digest_add st.path_digest (path_hash ~end_ ~steps ~schedule);
       (* One event per path only where spans are on: a plain stream
          carries the paths as the digest in [run_end]. *)
       match st.span_buf with
       | None -> ()
       | Some buf ->
         Obs.Events.emit buf ~det ~kind:"path"
           (J.Obj
              [ ("end", J.Str end_name);
                ("steps", J.Int steps);
                ("schedule", J.Str (Report.digest_hex schedule)) ]));
      (match outcome with
       | P_terminated | P_pruned -> ()
       | P_deadlock ->
         mark_error ();
         verdict := Some (Report.Deadlock { cex = render_cex run_ })
       | P_safety (tid, failure) ->
         mark_error ();
         verdict := Some (Report.Safety_violation { tid; failure; cex = render_cex run_ })
       | P_divergence kind ->
         mark_error ();
         verdict := Some (Report.Divergence { kind; cex = render_cex ~tail:true run_ })
       | P_nonterminating -> st.nonterminating <- st.nonterminating + 1
       | P_stopped -> stop Mid_path);
      (* An analysis-reported race ends the search like an engine-detected
         error. An engine error on the same path takes precedence (both
         rules are deterministic, so jobs=1 and jobs=N agree); a race beats
         a mere budget stop. *)
      (match !verdict with
       | None | Some Report.Limits_reached ->
         (match first_race_of st with
          | Some race ->
            mark_error ();
            verdict :=
              Some
                (Report.Race
                   { race;
                     cex =
                       { Report.rendered = race.AH.rendered;
                         decisions = race.AH.decisions;
                         length = race.AH.length } })
          | None -> ())
       | Some _ -> ());
      (* Advance first: a budget that runs out on the last path leaves
         nothing to stop. A sampling search whose executions ran out did
         not verify: its count is a budget. *)
      if !verdict = None then begin
        if not (advance st) then begin
          verdict := Some (if systematic then Report.Verified else Report.Limits_reached);
          st.stop <- Ran_out
        end
        else if
          budget_spent st || stopped st
          || (st.slice_end < infinity && Obs.Clock.now () > st.slice_end)
        then stop At_boundary
        else if split_wanted st then stop At_split
      end;
      (* Path boundary: publish this path's event batch. The erroring
         verdicts are themselves deterministic, so the error event is part
         of the [det] slice. *)
      (match (st.events, !verdict) with
       | ( Some buf,
           Some
             (( Report.Safety_violation _ | Report.Deadlock _ | Report.Divergence _
              | Report.Race _ ) as v) ) ->
         Obs.Events.emit buf ~det:true ~kind:"error"
           (J.Obj [ ("verdict", J.Str (Report.verdict_key v)) ])
       | _ -> ());
      match st.events with Some b -> Obs.Events.flush b | None -> ()
    end
  done;
  report st (Option.get !verdict)

(* Install the shard's analysis instances as the engine's step observer for
   the duration of the loop. Cleared on every exit path: a leaked observer
   would bill later searches in this process to these instances. *)
let run_loop st =
  Fun.protect ~finally:(fun () -> release st) @@ fun () ->
  match st.analysis with
  | [] -> run_loop_body st
  | insts ->
    let base =
      match insts with
      | [ i ] -> i.AH.observe
      | _ ->
        fun ~tid ~op ~result ->
          List.iter (fun (i : AH.instance) -> i.AH.observe ~tid ~op ~result) insts
    in
    let observe =
      (* With telemetry on, bill observer time to the per-path "analysis"
         span (two clock reads per observed transition — only when the user
         opted into metrics or span collection). *)
      if Option.is_some st.meters || Option.is_some st.span_buf then
        fun ~tid ~op ~result ->
          let t = Obs.Span.start () in
          base ~tid ~op ~result;
          st.analysis_us <- st.analysis_us + Obs.Span.elapsed_us t
      else base
    in
    Engine.set_observer (Some observe);
    Fun.protect ~finally:(fun () -> Engine.set_observer None) (fun () -> run_loop_body st)

(* Coordinator lifecycle events, shared with the supervisor. [run_start]'s
   data deliberately excludes [jobs] and budget fields: the det slice must be
   identical between a jobs=1 and a jobs=4 run of the same search. *)
let post_run_start (cfg : C.t) (prog : Program.t) =
  match cfg.C.events with
  | None -> ()
  | Some s ->
    Obs.Events.post s ~shard:(-1) ~det:true ~kind:"run_start"
      (J.Obj
         [ ("program", J.Str prog.Program.name);
           ("mode", J.Str (C.mode_name cfg.C.mode));
           ("fair", J.Bool cfg.C.fair);
           ("seed", J.Str (Printf.sprintf "0x%Lx" cfg.C.seed)) ])

let post_run_end (cfg : C.t) (r : Report.t) =
  match cfg.C.events with
  | None -> ()
  | Some s ->
    (* Final totals are jobs-invariant for systematic searches that ran to a
       verdict; a budget/time stop cuts the tree at a nondeterministic point. *)
    let det =
      is_systematic cfg
      && (match r.Report.verdict with Report.Limits_reached -> false | _ -> true)
    in
    Obs.Events.post s ~shard:(-1) ~det ~kind:"run_end"
      (J.Obj
         [ ("verdict", J.Str (Report.verdict_key r.Report.verdict));
           ("executions", J.Int r.Report.stats.Report.executions);
           ("transitions", J.Int r.Report.stats.Report.transitions);
           ("probe_mass", J.Int r.Report.stats.Report.probe_mass);
           ("path_digest", J.Str (Report.digest_hex r.Report.stats.Report.path_digest)) ])

(* The session-free search: the root item in this process, to its end. *)
let run cfg prog =
  post_run_start cfg prog;
  let st = make_state cfg prog in
  load_item st (root cfg);
  let report = run_loop st in
  post_run_end cfg report;
  report

(* One work item of a supervised search. Returns the coverage table
   alongside the report, so the supervisor can union tables rather than sum
   cardinalities, and the work left. An item with no work left is finished
   ([Verified] unless it found an error), whatever stopped it. *)
let run_item ?deadline ?shard ?(slice = slice) ?tick ~tally cfg prog item =
  let st =
    make_state ?deadline ~slice_end:(Obs.Clock.now () +. slice) ~tally ?tick ?shard cfg prog
  in
  load_item st item;
  let r = run_loop st in
  let rest =
    match (r.Report.verdict, st.stop) with
    | Report.Limits_reached, At_boundary -> remaining st
    | Report.Limits_reached, At_split -> split st
    | _ -> []
  in
  let verdict =
    match (r.Report.verdict, st.stop) with
    | Report.Limits_reached, Ran_out -> Report.Verified
    | v, _ -> v
  in
  ({ r with Report.verdict }, st.states, rest)

type replay_outcome =
  | Replayed_failure of Report.counterexample
  | Replayed_no_failure
  | Replay_mismatch of { step : int; tid : int }

let replay prog decisions callback =
  let run = Engine.start prog in
  Fun.protect ~finally:(fun () -> Engine.stop run) @@ fun () ->
  (* First decision that could not be applied (no such thread, its thread
     had nothing pending or was disabled, or its operation offers no such
     alternative): the schedule does not fit this program, e.g. a stale
     repro file after the program changed. *)
  let mismatch = ref None in
  List.iteri
    (fun i (tid, alt) ->
      if !mismatch = None && Engine.failure run = None then begin
        if
          tid >= 0 && tid < Engine.nthreads run
          && B.mem tid (Engine.enabled_set run)
          && alt >= 0 && alt < Engine.alternatives run tid
        then begin
          Engine.step run ~tid ~alt;
          callback run
        end
        else mismatch := Some (i, tid)
      end)
    decisions;
  match Engine.failure run with
  | Some _ ->
    let names = Objects.pp_obj (Engine.store run) in
    let rendered = Format.asprintf "@[<v>%a@]" (Trace.pp ?tail:None ~names) (Engine.trace run) in
    Replayed_failure { Report.rendered; decisions; length = Trace.length (Engine.trace run) }
  | None ->
    (match !mismatch with
     | Some (step, tid) -> Replay_mismatch { step; tid }
     | None -> Replayed_no_failure)
