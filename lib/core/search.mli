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

val run : ?resume:Checkpoint.seq_state -> Search_config.t -> Program.t -> Report.t
(** Run the configured search. With [resume], continue a prior session from
    its checkpointed path boundary: the DFS stack and coverage table are
    reloaded, a sampling search continues at its next execution index,
    [max_executions] is reduced by the prior session's executions, and the
    prior totals are folded back into the final report — an
    interrupted-then-resumed run reports the same verdict, counterexample
    and statistics as an uninterrupted one, also when the resume raises
    the sampling count. When [config.checkpoint] is set, the search snapshots
    its state at every path boundary and writes the file at most every
    [checkpoint_interval] seconds, plus exactly once when it stops. *)

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
    here because the work-item representation is owned by the search (it is
    a snapshot of its DFS stack). *)

type pdecision = {
  p_tid : int;
  p_alt : int;
  p_cost : int;
  p_sleep : Fairmc_util.Bitset.t;
  p_width : int;
}
(** One locked scheduling decision of a systematic work item: the chosen
    (thread, alternative) pair, its context-switch cost (already charged
    against the preemption budget on replay), the sleep set the sequential
    DFS would carry when entering this child, and the branching factor of
    the node when it was first pushed ([p_width]) — workers fold prefix
    widths into their {!Fairmc_obs.Estimator} probe weights so the merged
    probe mass is bit-identical to the sequential search's. *)

type item =
  | Prefix of pdecision array
      (** a systematic work item: the subtree below a locked prefix
          (backtracking never leaves it) *)
  | Executions of int * int
      (** a sampling work item: executions [lo] to [hi - 1] of the
          search, each drawing from its own (seed, index) generator *)

val expand :
  ?deadline:float ->
  Search_config.t ->
  Program.t ->
  split_depth:int ->
  pdecision array list * bool
(** Sequentially expand the systematic decision tree, cutting every path
    after [split_depth] fresh decisions. Every explored prefix — an internal
    frontier node or a complete shallow path — is returned as one work item,
    in DFS order. The expansion records no statistics and no coverage:
    workers re-execute each item from the initial state, so their merged
    statistics equal the sequential search's exactly. The boolean is true if
    [deadline] cut the expansion short. Enumeration stops early after a work
    item whose shallow outcome is an error (the sequential search could
    never reach the later items). Raises [Invalid_argument] for sampling
    modes. *)

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

val run_item :
  ?deadline:float ->
  ?shard:int ->
  tally:Tally.t ->
  Search_config.t ->
  Program.t ->
  item ->
  Report.t * (int64, unit) Hashtbl.t
(** Run one work item of a parallel search. [deadline] overrides the
    config's relative [time_limit] with an absolute timestamp shared by all
    items. Every completed path is added to [tally]'s slot, and
    [max_executions] is checked against the tally's search-wide total
    (instead of the local count) at every path start and end. A sampling
    path weighs [1/count] of the config's whole sampling count, whichever
    item runs it. [shard] tags the item's telemetry events
    ([config.events]). Returns the report together with the item's coverage
    table so the caller can union tables rather than sum cardinalities.
    A range that ran all its executions to their end without an error
    reports [Verified], like a subtree explored in full. A range that the
    deadline, an interrupt or the budget stopped before its last path
    ended reports [Limits_reached], also when the stop cut that last path
    short (the path still counts as an execution). *)

val reweigh :
  Search_config.t -> Report.stats -> Fairmc_obs.Metrics.Snapshot.t ->
  Report.stats * Fairmc_obs.Metrics.Snapshot.t
(** Prior totals of a sampling search, reweighed for the config's sampling
    count: every path weighs [1/count], so a resume that raised the count
    reports the probe mass of one uninterrupted run. Systematic totals come
    back unchanged. *)
