(** Parallel search: the schedule space shared out among supervised
    worker processes.

    Stateless model checking re-executes the program from its initial state
    for every schedule, so workers share nothing but their totals. The
    supervisor keeps the search as a list of regions in DFS order — done
    ones, and open work items: DFS cursors ({!Checkpoint.Cursor}) or ranges
    of sampling executions — and forks worker processes that run the items
    and answer over the {!Worker} pipe protocol:

    - {b Splitting}: a search starts from one item, the whole tree or every
      sampling execution. When a worker idles with nothing queued, the
      supervisor raises the split request in a busy worker's {!Tally} slot;
      at its next path boundary that worker hands back what it explored and
      its work left as two items ({!Search.run_item}). Work is cut where it
      is, however uneven the tree.
    - {b Determinism}: every path runs once, and random choices are keyed by
      their execution index or path, so the explored regions merge in DFS
      order into {e exactly} the sequential report — same verdict, same
      counterexample, same execution/transition/coverage counts —
      independent of the worker count and of timing. An error decides the
      verdict only once every region before it is explored; a budget or
      time stop before that reports [Limits_reached] and keeps the erroring
      region open. Round-robin is a single schedule and runs sequentially.

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
      (seed, dispatch number, attempt)), at most [config.max_retries]
      times.
    - {b Quarantine}: an item that exhausts its retry budget becomes a
      {!Report.Crash} verdict whose counterexample is the item's schedule
      prefix, replayable to re-enter the crashing subtree.
    - {b Degradation}: when every worker slot dies and none can be
      respawned, the open items finish in-process.

    Deterministic fault injection ([config.inject_fault]) fires at most
    once, on the first attempt of the item dispatched [fault_seed]-th;
    retries are fault-free, so injected faults leave the verdict unchanged
    (except with a zero retry budget, which surfaces the {!Report.Crash}).
    See DESIGN.md, "Parallel search". *)

val resolve_workers : Search_config.t -> int
(** The fan-out: the larger of [config.jobs] and [config.workers], each
    with [0] and negative values resolved to
    [Domain.recommended_domain_count ()]. *)

val run : ?resume:Checkpoint.payload -> Search_config.t -> Program.t -> Report.t
(** Run the configured search: {!Search.run} when [resolve_workers config <=
    1] (and for round-robin), the supervised worker pool otherwise.

    [resume] continues a prior checkpointed session (see {!Checkpoint} and
    DESIGN.md, "Durable sessions"), written at any fan-out. When
    [config.checkpoint] is set, a parallel search writes its regions as
    they stand after merged answers (throttled by
    [config.checkpoint_interval]) and once when it stops. *)
