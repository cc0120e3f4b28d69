(** Parallel search: the schedule space sharded across supervised worker
    processes.

    Stateless model checking re-executes the program from its initial state
    for every schedule, so shards share nothing. The supervisor splits a
    search into work items and forks worker processes that run them and
    answer over the {!Worker} pipe protocol:

    - {b Systematic modes} (DFS, context-bounded): the decision tree is
      expanded sequentially to [config.split_depth] ({!Search.expand}) and
      each frontier prefix becomes a work item. The merged report is
      {e exactly} the sequential one — same verdict, same counterexample,
      same execution/transition/coverage counts — independent of the worker
      count and of timing (errors are resolved by lowest item index in DFS
      order; workers on losing items are killed).
    - {b Sampling modes} (random walk, random priorities): an item is a
      range of execution indices, and execution [i] draws from its own
      ([config.seed], [i]) generator. The same lowest-item rule and merge
      give exactly the sequential report.
    - Round-robin is a single schedule and runs sequentially.

    Policies:

    - {b Budgets}: one search-wide [max_executions], counted in a shared
      {!Tally} at every path start and end, so the total overshoots by at
      most one in-flight path per worker. [time_limit] is one absolute
      deadline for the whole run.
    - {b Timeouts}: [config.item_timeout] bounds each attempt's wall clock;
      on expiry the worker is SIGKILLed and the item requeued. The child's
      own deadline comes only from the remaining global [time_limit] — a
      slow but healthy item is the parent's SIGKILL decision, never a
      spurious [Limits_reached].
    - {b Retries}: a crashed/timed-out/garbled attempt is requeued with
      exponential backoff and deterministic jitter (a pure function of
      (seed, item, attempt)), at most [config.max_retries] times.
    - {b Quarantine}: an item that exhausts its retry budget becomes a
      {!Report.Crash} verdict whose counterexample is the item's schedule
      prefix, replayable to re-enter the crashing subtree.
    - {b Degradation}: when every worker slot dies and none can be
      respawned, the remaining items finish in-process.

    Deterministic fault injection ([config.inject_fault]) fires exactly
    once, on the first attempt of item [fault_seed mod n_items]; retries are
    fault-free, so injected faults leave the verdict unchanged (except with
    a zero retry budget, which surfaces the {!Report.Crash}). See DESIGN.md,
    "Parallel search". *)

val resolve_workers : Search_config.t -> int
(** The fan-out: the larger of [config.jobs] and [config.workers], each
    with [0] and negative values resolved to
    [Domain.recommended_domain_count ()]. *)

val zero_stats : Report.stats
(** All-zero statistics: the merge identity, and the statistics of a
    quarantined item. *)

val run : ?resume:Checkpoint.payload -> Search_config.t -> Program.t -> Report.t
(** Run the configured search: {!Search.run} when [resolve_workers config <=
    1] (and for round-robin), the supervised worker pool otherwise.

    [resume] continues a prior checkpointed session (see {!Checkpoint} and
    DESIGN.md, "Durable sessions"). The payload kind must fit the run shape:
    [Seq] for sequential runs, [Par] for parallel ones — a mismatch (e.g. a
    checkpoint written with a different jobs regime, or split-depth/
    item-count drift of a systematic search) raises {!Checkpoint.Mismatch}.
    When [config.checkpoint] is set, a parallel search records every
    finished work item (throttled by [config.checkpoint_interval]). *)
