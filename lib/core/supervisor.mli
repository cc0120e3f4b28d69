(** Every search's session, and its fan-out: the schedule space shared out
    among supervised worker processes.

    Stateless model checking re-executes the program from its initial state
    for every schedule, so workers share nothing but their totals. The
    supervisor keeps the search as a list of regions in DFS order — done
    ones, and open work items: DFS cursors ({!Checkpoint.Cursor}) or ranges
    of sampling executions — and forks worker processes that run the items
    and answer over the {!Worker} pipe protocol. At a fan-out of one it
    forks nothing: it runs the items in its own process, in DFS order,
    through the same {!Search.run_item} and the same merge. The supervisor
    is the search's only checkpoint writer, resume reader and progress
    sampler, at every fan-out:

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
      region open. Round-robin is a single schedule and runs in process.

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
    - {b Slices}: an item on a worker returns at its first path boundary
      after about a second of running ({!Search.slice}), handing its rest
      back as one item, so a search on one worker relays its events and
      checkpoints as it goes. An item in process is cut into slices only
      when the run checkpoints, at its first path boundary after
      [min Search.slice config.checkpoint_interval]; otherwise it runs
      whole, as one tree walk.
    - {b Degradation}: when every worker slot dies and none can be
      respawned, or the shared {!Tally} cannot be made, {!run} warns, posts
      a [supervisor_fallback] event and finishes the open items
      in-process.

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
(** Run the configured search, driving one {!t} until it ends: in this
    process when [resolve_workers config <= 1] (and for round-robin, one
    execution), on that many worker processes otherwise. A SIGINT or
    SIGTERM caught by {!Checkpoint.install_signal_handlers} stops it.

    [resume] continues a prior checkpointed session (see {!Checkpoint} and
    DESIGN.md, "Durable sessions"), written at any fan-out. When
    [config.checkpoint] is set, the search writes its regions as they
    stand after merged answers (throttled by
    [config.checkpoint_interval]) and once when it stops; a search that
    reached its verdict is written complete. Every save is a
    [checkpoint_save] span and posts a [checkpoint] (or
    [checkpoint_error]) event on [config.events]. *)

(** {1 A search a host steps}

    A host that runs several searches at once in one select loop (chessd)
    holds one {!t} per search and gives each a turn when one of its
    descriptors is readable or its {!next_turn} comes. The host ignores
    SIGPIPE while it drives one: a worker can die mid-write. *)

type t
(** One search on the worker processes forked for it. *)

val start :
  ?resume:Checkpoint.payload ->
  Search_config.t ->
  Program.t ->
  t
(** Start the configured search at fan-out [resolve_workers config], round
    robin included, and fork its workers. Right after the fork, a worker
    closes every descriptor from 3 up but its own two pipe ends: the
    host's and every other worker's. Nothing of the search runs in the
    host's process: a turn raises [Failure] once no worker is left and none
    can be forked. A search that reached its verdict writes no complete
    checkpoint; one stopped before writes its regions. *)

val fds : t -> Unix.file_descr list
(** The descriptors the search waits on: its busy workers' response
    pipes. *)

val next_turn : t -> float
(** When ({!Fairmc_obs.Clock.now}) the search next needs a turn even if no
    descriptor is readable; at most 0.2 s ahead, and in the past before
    the first turn. *)

val step : t -> Unix.file_descr list -> Report.t option
(** A turn: read the ready descriptors among {!fds}, reclaim timed-out
    workers, dispatch, and hand buffered event lines to the stream's
    writer. Returns the report once the search has ended (and on every
    later call). *)

val stop : t -> Report.t
(** End the search now: SIGKILL and reap its workers, write its regions to
    the checkpoint (the running ones stay open) and return its report,
    [Limits_reached] while work was open. A search that had ended returns
    the report it ended with. *)
