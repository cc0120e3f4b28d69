(** The state-space explorer.

    Drives {!Engine} executions according to a {!Search_config}: systematic
    modes (DFS, context-bounded) enumerate scheduling decisions depth-first
    with stateless backtracking (each new path re-executes the program from
    its initial state); sampling modes (random walk, round-robin,
    random-priority) run a fixed number of independent executions.

    A path re-establishes its decision prefix in one of three ways:
    - A native path after a backtrack boots the program and
      {!Engine.fast_forward}s it along the previous path's trace to the
      backtrack frame (every systematic step pushes a frame, so frame [i]
      is step [i]), then runs the search loop from there. The scheduler,
      the preemption budget, the last thread and the yield and edge counts
      are derived from the recorded events ({!fast_forward}), starting
      from the nearest search-side snapshot at or below the backtrack
      frame: a native frame with siblings keeps one (a {!Fair_sched.copy}
      and the loop's locals) unless one of the 15 frames below it does, so
      at most 15 events are stepped. The new run adopts the old trace.
    - When the run is {!Engine.restorable} (a ChessLang program on the VM,
      no dynamic analysis), the search keeps one run for the whole search
      and snapshots every frame that still has unexplored siblings: the
      engine state, a {!Fair_sched.copy} and the path's own locals. A
      backtrack restores the target frame's snapshot and re-executes only
      its new decision.
    - An item's first path, and every path of a run with a step observer
      (a dynamic analysis), replays the prefix through the search loop.
    While the loop runs a fiber program with no step observer, the
    thread it stepped offers its next operation to the loop's hook
    ([Runtime.ctx.take]): the step is finished and the next decision made
    there, and a decision for the same thread is taken in place
    ({!Engine.step_offered}), so a fiber parks only to switch threads. The
    explored tree is the same either way.
    A fast-forwarded or restored prefix still counts in [Report.stats]
    (its transitions and yields; its coverage was recorded when it first
    ran), so reports are identical whichever way; only the
    [search/steps/replay] / [search/steps/restored] split and the
    per-step histograms differ.

    Every path that [executions] counts adds a hash of its end, step count
    and schedule to [Report.stats.path_digest]. The search loop folds each
    decision it applies into the path's schedule hash, and a frame keeps
    the hash through its decision, so a restored or fast-forwarded path
    resumes the fold from its frame instead of rehashing its prefix. The
    per-path ["path"] event is emitted only on a stream with spans on
    ({!Fairmc_obs.Events.spans}).

    When [config.fair] is set, scheduling decisions are restricted to the
    schedulable set [T] of Algorithm 1, computed by {!Fair_sched} along every
    path. Fair executions that exceed the livelock bound are reported as
    divergences and classified by their last 500 steps (good-samaritan
    violation vs. fair nontermination, the paper's outcomes 2 and 3).

    The search polls the wall clock, the interrupt flag and the progress
    tick its supervisor hands it at every path start and every 256 steps
    inside a path.

    This module runs the work of one item and keeps no session: resuming,
    checkpoints and progress belong to {!Supervisor}, which runs every
    search, at every fan-out ({!Checker.check}). *)

val run : Search_config.t -> Program.t -> Report.t
(** Run the configured search from its root, in this process, to its end:
    no resume, no checkpoint file ([config.checkpoint] is ignored) and no
    progress ([config.progress] is ignored). The reference the
    supervised search must equal, whatever its fan-out. *)

val good_samaritan_culprit : (int * int * bool) list -> int
(** Pick the culprit thread of a good-samaritan divergence from
    [(tid, times_scheduled, yielded)] entries of the tail window: threads
    that never yield dominate threads that do; more occurrences dominate
    fewer; the lowest tid breaks exact ties, making the classification
    independent of hash-table iteration order. Exposed for tests. *)

val state_hook : (int64 -> Engine.t -> unit) option ref
(** Debug/analysis hook invoked on every state recorded during coverage
    collection (signature + live run). Used by tests that cross-check
    stateless coverage against the stateful ground truth (searches that run
    in this process only — the hook is a plain global). A path that
    restores or fast-forwards its prefix does not revisit the prefix's
    states, so the hook sees each of those once per work item. *)

type prefix = {
  p_fair : Fair_sched.t;
  p_budget : int;  (** the preemption budget left *)
  p_last : int;  (** the thread of the prefix's last step; -1 for none *)
  p_last_yielded : bool;  (** whether that step was a yield *)
  p_yields : int;
  p_edges : Fair_sched.obs;  (** priority-relation updates along the prefix *)
}
(** The search loop's state after a prefix of a path. *)

val fast_forward :
  ?from:int * prefix ->
  Search_config.t ->
  Engine.t ->
  Trace.t ->
  int ->
  cost:(int -> int) ->
  prefix
(** [fast_forward cfg run trace n ~cost] takes the fresh [run] along the
    first [n] events of [trace] ({!Engine.fast_forward}) and derives the
    search loop's state after them from the events alone: the scheduler's
    inputs are each event's enabled set and yield bit, the next event's
    enabled set (the run's for the last) is the state after it, and a
    [Spawn] adds a thread. [cost i] is decision [i]'s preemption cost (its
    frame's). With [~from:(j, s)], [s] is the loop's state after the first
    [j] events, and only events [j .. n-1] are stepped; [s]'s scheduler and
    edge counts are updated in place. What {!run} computes stepping those
    decisions itself; exposed for the differential tests.
    @raise Invalid_argument as {!Engine.fast_forward} does, or if [j] is
    not in [0 .. n]. *)

type replay_outcome =
  | Replayed_failure of Report.counterexample
      (** the schedule ends in a failure; re-rendered counterexample *)
  | Replayed_no_failure  (** applied fully, but no failure at the end *)
  | Replay_mismatch of { step : int; tid : int }
      (** decision [step] (0-based) could not be applied: thread [tid] does
          not exist, had nothing pending or was disabled, or its operation
          offers no such alternative (only [choose n] offers [0 .. n-1]; every
          other operation only 0) — the schedule does not fit this program
          (e.g. a stale repro file) *)

val replay : Program.t -> (int * int) list -> (Engine.t -> unit) -> replay_outcome
(** Re-execute a recorded schedule, invoking the callback after every
    transition. Used to confirm and inspect reported bugs; a mismatch is
    reported explicitly rather than silently truncating the replay. *)

(** {1 Supervised-search seam}

    The entry points below are consumed by {!Supervisor}; they are exposed
    here because the work items ({!Checkpoint.item}) are snapshots of the
    search's own DFS stack. *)

val post_run_start : Search_config.t -> Program.t -> unit
(** Emit the coordinator [run_start] telemetry event (no-op without
    [config.events]). Its data excludes [jobs] and budgets so the
    deterministic event slice is jobs-invariant. *)

val post_run_end : Search_config.t -> Report.t -> unit
(** Emit the coordinator [run_end] telemetry event: verdict key plus final
    execution/transition/probe-mass totals. Deterministic for systematic
    searches that reached a verdict. *)

val is_systematic : Search_config.t -> bool
(** DFS and context-bounded modes; the sampling modes are not. *)

val sampling_count : Search_config.t -> int
(** Executions a sampling mode runs ([n] for [random:n] and [prio:n], 1
    for round-robin); [max_int] for the systematic modes. *)

val root : Search_config.t -> Checkpoint.item
(** The whole search as one work item: the empty cursor (the whole tree),
    or every execution of a sampling mode. *)

val slice : float
(** 1 s: the default [slice] of {!run_item}. *)

val run_item :
  ?deadline:float ->
  ?shard:int ->
  ?slice:float ->
  ?tick:(unit -> unit) ->
  tally:Tally.t ->
  Search_config.t ->
  Program.t ->
  Checkpoint.item ->
  Report.t * (int64, unit) Hashtbl.t * Checkpoint.item list
(** Run one work item of a supervised search. [deadline] overrides the
    config's relative [time_limit] with an absolute timestamp shared by all
    items. Every completed path is added to [tally]'s slot, and
    [max_executions] is checked against the tally's search-wide total
    (instead of the local count) at every path start and end. A sampling
    path weighs [1/count] of the config's whole sampling count, whichever
    item runs it. [shard] tags the item's telemetry events
    ([config.events]); [tick] runs at every poll ([config.progress] is not
    read). Returns the report of the paths explored, the item's coverage
    table (so the caller can union tables rather than sum cardinalities),
    and the work left, in DFS order.

    When the slot's split request ({!Tally.ask_split}) is up at a path
    boundary after the item's first path, and there is work to split off,
    the item stops there and leaves two items: its own stack without the
    untried siblings of its shallowest frame that has some, and a cursor
    that starts at those siblings, with the sleep set backtracking would
    give them. A range leaves its two halves. A budget, deadline or
    interrupt noticed at a path boundary leaves one item: the work not yet
    run. So does the first path boundary after [slice] seconds of running
    ({!slice} by default, [infinity] for never), so that an item returns to
    its supervisor that often however large it is. An item with no work
    left reports [Verified] unless it found an error; one that a stop cut
    short inside a path reports [Limits_reached] and leaves nothing (it did
    not finish: it runs again whole). *)
