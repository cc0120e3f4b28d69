(** The state-space explorer.

    Drives {!Engine} executions according to a {!Search_config}: systematic
    modes (DFS, context-bounded) enumerate scheduling decisions depth-first
    with stateless backtracking (each new path re-executes the program from
    its initial state, replaying the decision prefix); sampling modes
    (random walk, round-robin, random-priority) run a fixed number of
    independent executions.

    When the run is {!Engine.restorable} (a ChessLang program on the VM,
    no dynamic analysis), the search keeps one run for the whole search
    and snapshots every frame that still has unexplored siblings: the
    engine state, a {!Fair_sched.copy} and the path's own locals. A
    backtrack restores the target frame's snapshot and re-executes only its
    new decision. A restored prefix still counts in [Report.stats] (its
    transitions, yields and coverage were recorded when it first ran), so
    reports are identical either way; only the [search/steps/replay] /
    [search/steps/restored] split differs.

    When [config.fair] is set, scheduling decisions are restricted to the
    schedulable set [T] of Algorithm 1, computed by {!Fair_sched} along every
    path. Fair executions that exceed the livelock bound are reported as
    divergences and classified by their last 500 steps (good-samaritan
    violation vs. fair nontermination, the paper's outcomes 2 and 3).

    The search polls the wall clock, the interrupt flag and
    [config.progress] at every path start and every 256 steps inside a
    path. *)

val run : ?resume:Checkpoint.payload -> Search_config.t -> Program.t -> Report.t
(** Run the configured search. With [resume], continue a prior session,
    sequential or parallel: the open regions run in DFS order, each done
    region folds into the totals as the search passes it (coverage table
    included), [max_executions] is reduced by the executions of the done
    regions, and a sampling search's regions are cut or extended to its
    count — an interrupted-then-resumed run reports the same verdict,
    counterexample and statistics as an uninterrupted one, also when the
    resume raises the sampling count. When [config.checkpoint] is set, the
    search snapshots its regions at every path boundary and writes the file
    at most every [checkpoint_interval] seconds, plus exactly once when it
    stops. *)

val good_samaritan_culprit : (int * int * bool) list -> int
(** Pick the culprit thread of a good-samaritan divergence from
    [(tid, times_scheduled, yielded)] entries of the tail window: threads
    that never yield dominate threads that do; more occurrences dominate
    fewer; the lowest tid breaks exact ties, making the classification
    independent of hash-table iteration order. Exposed for tests. *)

val state_hook : (int64 -> Engine.t -> unit) option ref
(** Debug/analysis hook invoked on every state recorded during coverage
    collection (signature + live run). Used by tests that cross-check
    stateless coverage against the stateful ground truth (sequential searches
    only — the hook is a plain global). A restoring search does not revisit
    the states of a restored prefix, so the hook sees each of those once. *)

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

(** {1 Parallel-search seam}

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

val regions : Search_config.t -> Checkpoint.payload option -> Checkpoint.region list
(** The regions a search runs, in DFS order: one open item — the empty
    cursor, or every execution of a sampling mode — for a fresh search; a
    resumed payload's regions otherwise, a sampling search's cut or
    extended to its count. *)

val run_item :
  ?deadline:float ->
  ?shard:int ->
  tally:Tally.t ->
  Search_config.t ->
  Program.t ->
  Checkpoint.item ->
  Report.t * (int64, unit) Hashtbl.t * Checkpoint.item list
(** Run one work item of a parallel search. [deadline] overrides the
    config's relative [time_limit] with an absolute timestamp shared by all
    items. Every completed path is added to [tally]'s slot, and
    [max_executions] is checked against the tally's search-wide total
    (instead of the local count) at every path start and end. A sampling
    path weighs [1/count] of the config's whole sampling count, whichever
    item runs it. [shard] tags the item's telemetry events
    ([config.events]). Returns the report of the paths explored, the
    item's coverage table (so the caller can union tables rather than sum
    cardinalities), and the work left, in DFS order.

    When the slot's split request ({!Tally.ask_split}) is up at a path
    boundary after the item's first path, and there is work to split off,
    the item stops there and leaves two items: its own stack without the
    untried siblings of its shallowest frame that has some, and a cursor
    that starts at those siblings, with the sleep set backtracking would
    give them. A range leaves its two halves. A budget, deadline or
    interrupt noticed at a path boundary leaves one item: the work not yet
    run. So does the first path boundary after about a second of running
    (a constant), so that an item returns to its supervisor about once a
    second however large it is. An item with no work left reports [Verified] unless it found an
    error; one that a stop cut short inside a path reports
    [Limits_reached] and leaves nothing (it did not finish: it runs again
    whole). *)

val reweigh :
  Search_config.t -> Report.stats -> Fairmc_obs.Metrics.Snapshot.t ->
  Report.stats * Fairmc_obs.Metrics.Snapshot.t
(** Totals of a sampling search's done region, reweighed for the config's
    sampling count: every path weighs [1/count], so a resume that raised
    the count reports the probe mass of one uninterrupted run. Systematic
    totals come back unchanged. *)
