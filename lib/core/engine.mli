(** One controlled execution of a program.

    The engine is the stateless-model-checking substrate: it boots the
    program fresh, runs its threads, and exposes the scheduler-facing view
    of the current state — the enabled set, each thread's pending
    operation, and [yield(t)]. The search layer (which owns the fair
    scheduler and the exploration strategy) decides which thread to [step]
    next. Backtracking discards the run and starts a new one, which
    {!fast_forward}s along the discarded run's trace to the backtrack point
    without rebuilding that trace; a fast-forwarded fiber takes its own
    recorded steps in place and parks only where the trace switches
    threads, spawns or ends. A program that offers a capture
    ({!Program.booted}) is not re-executed at all: the search {!capture}s
    states on its stack and {!restore}s one instead.

    One thread table holds fibers (parked continuations) and machine
    threads ({!Program}); the kind matters only where a parked thread is
    resumed and where a run is unwound.

    Exactly one run may be active per process (the engine keeps its ambient
    per-run context in {!Runtime.ctx}); the parallel search forks one worker
    process per engine. A new [start] takes over from an un-[stop]ped
    predecessor — runs do not nest. *)

module B := Fairmc_util.Bitset

type failure =
  | Assertion of string  (** [Sync.check]/[Sync.fail] *)
  | Sync_misuse of string  (** unlock of an unheld mutex, kind confusion, ... *)
  | Resource of string
      (** [Stack_overflow]/[Out_of_memory] raised while stepping a thread —
          trapped into an error verdict with the offending schedule rather
          than tearing down the search *)
  | Uncaught of string  (** any other exception escaping a thread body *)

val pp_failure : Format.formatter -> failure -> unit

type t

type observer = tid:int -> op:Op.t -> result:int -> unit
(** One callback per executed transition: the stepped thread, its operation
    (object ids inside, see {!Op.obj_of}), and the semantic result — the
    child tid for [Spawn], the chosen alternative for [Choose], 0/1 success
    for try/timed operations, 1 otherwise. Invoked after the transition is
    recorded in the trace, so [Trace.decisions (trace t)] at that moment is
    a replayable schedule ending in the observed transition. *)

val set_observer : observer option -> unit
(** Install (or clear) the process's step observer. Captured by each
    subsequent {!start} for the lifetime of that run; when
    unset, stepping pays a single branch (zero-cost contract). The analysis
    layer ({!Search_config.analyses}) is the intended client. *)

val start : Program.t -> t
(** Boot the program: run [boot], create the initial threads, and advance
    each to its first scheduling point. *)

val nthreads : t -> int
val steps : t -> int

val enabled_set : t -> B.t
(** Threads whose pending operation is currently enabled. O(1): the set is
    recomputed once at the end of {!start} and of each {!step}, the only
    points where thread or object state changes, and every caller (the
    search, the trace's [enabled] field, {!deadlocked}) reads that value. *)

val pending : t -> int -> Op.t option
(** Pending operation of a live thread; [None] once finished. *)

val would_yield : t -> int -> bool
(** [yield(t)] of the paper for the current state. *)

val alternatives : t -> int -> int
(** Branching factor of the thread's pending operation ([Choose]). *)

val step : t -> tid:int -> alt:int -> unit
(** Execute one transition of [tid] (which must be enabled): apply its
    pending operation and run it to its next scheduling point. Newly spawned
    threads are advanced to their first scheduling point as part of the
    transition. *)

val fast_forward : t -> Trace.t -> int -> unit
(** [fast_forward t trace n] takes the fresh run [t] along the first [n]
    events of [trace], the trace of an earlier run of the same program, and
    makes [trace], truncated to [n], the run's own: the earlier run must be
    over. Each transition is {!step}'s store update and counters, but
    builds no trace event, makes no yield test and skips the enabled-set
    refresh, which runs once, at the end. A fiber parks only where the
    trace switches threads, spawns or ends: a thread whose next event is its
    own takes it in place when it offers the recorded operation
    ([Runtime.ctx.take]), and runs on. So the run ends in the state,
    counters and trace that stepping the same decisions gives.
    @raise Invalid_argument if [t] has stepped, failed or has a step
    observer (which would miss the transitions), or if the trace does not
    fit the run: an event's thread does not offer the recorded operation,
    that operation is not enabled, or its transition fails or delivers
    another result. That is a program whose boot is not deterministic. *)

val failure : t -> (int * failure) option
(** Safety violation encountered so far, with the offending thread. *)

val all_finished : t -> bool
(** Every thread has returned or raised. O(1): a finished-thread count kept
    up to date as threads end, compared with {!nthreads}. *)

val deadlocked : t -> bool
(** No thread is enabled, yet not all have finished. Under the fair scheduler
    this is a true deadlock (Theorem 3: the schedulable set is empty iff the
    enabled set is). *)

val trace : t -> Trace.t
val store : t -> Objects.t

val state_signature : t -> Fairmc_util.Fnv.t
(** Signature of the current state: sync-object state, per-thread control
    information (pending operation, consecutive-op counter, [Sync.at]
    region), registered [Svar] values, and the program's optional snapshot
    function. Used for coverage measurement and by the stateful ground-truth
    search. Must be called while the run is the active one (before any
    subsequent [start]). *)

val sync_ops : t -> int
(** Synchronization operations executed (Table 1 accounting: everything
    except shared-variable accesses and data choices). *)

val var_ops : t -> int

val op_counts : t -> int array
(** Transitions by operation kind, indexed by {!Op.kind_index}. Owned by the
    run — callers must not mutate it; read after the run ends (the search
    accumulates it into the metrics registry per path). *)

val context_switches : t -> int
(** Transitions whose thread differs from the previous transition's. *)

val stop : t -> unit
(** Mark the run as abandoned. Every parked fiber is unwound: an exception
    private to the engine is raised at its scheduling point, so its handlers
    and finalizers run once (a continuation dropped without being resumed
    would keep its stack forever). Nothing the unwinding does is recorded as
    a failure, and a sync operation performed while unwinding is unwound
    too rather than parked. A machine thread has no stack to unwind. A
    later {!start} does the same for a run it takes over. *)

(** {1 Restoring states}

    A program whose threads are machine threads (the ChessLang VM) may
    offer a capture hook. Then a state of the run can be copied and later
    written back, so a backtracking search resumes from it instead of
    re-executing the prefix from the initial state. *)

type snapshot
(** A state of one run: its program state, object counts, thread table,
    control abstraction, enabled set, step and operation counters, and
    trace length. *)

val restorable : t -> bool
(** The program's threads are machine threads, it offers a capture, and no
    step observer is installed: an observer (dynamic analysis) would miss
    the transitions of a restored prefix, so observed runs keep
    replaying. *)

val capture : t -> snapshot
(** Copy the current state. Cost: the program's state plus O(threads +
    objects + operation kinds) words.
    @raise Invalid_argument unless the run is {!restorable}, live and not
    failed. *)

val restore : t -> snapshot -> unit
(** Return the run to a state {!capture}d from it earlier: write the
    program state, object counts, thread table, counters, enabled set and
    control abstraction back, and truncate the trace to the captured
    length. No thread runs: a machine thread is resumed from its data at
    its next step. Cost: array blits, allocating nothing. A snapshot can be
    restored any number of times.
    @raise Invalid_argument if the run was stopped or taken over. *)
