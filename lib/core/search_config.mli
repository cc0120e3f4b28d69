(** Search strategy configuration.

    Mirrors the experimental setups of the paper's Section 4: systematic
    depth-first search and context-bounded search, each with the fair
    scheduler on or off; unfair searches are depth-bounded and complete each
    pruned path with a random tail (paper §4.2.1); random-walk, round-robin
    and random-priority (Apt–Olderog) schedulers are baselines for the
    discussion in Sections 2 and 5. *)

type mode =
  | Dfs  (** exhaustive DFS over the schedulable set *)
  | Context_bounded of int
      (** DFS over schedules with at most [c] preemptions. A switch away from
          an enabled current thread costs 1 unless it was forced by the fair
          scheduler (such switches are not counted — paper §4). *)
  | Random_walk of int  (** [n] executions with uniform random scheduling *)
  | Round_robin  (** one execution, threads stepped in cyclic tid order *)
  | Priority_random of int
      (** [n] executions of the Apt–Olderog-style scheduler: every thread
          gets a fresh random priority after each step, highest-priority
          enabled thread runs. *)

type fault_kind =
  | Crash  (** the worker process SIGKILLs itself before running the item *)
  | Hang  (** the worker spins forever, exercising the item timeout *)
  | Garble  (** the worker writes a non-frame byte sequence and exits *)
  | Slow_pipe
      (** the worker trickles its response frame through the pipe in small
          delayed chunks, exercising partial-read reassembly *)
  | Save_fail
      (** the supervisor's first checkpoint save attempts fail transiently,
          exercising the save retry/no-clobber path *)

type fault = { fault_kind : fault_kind; fault_seed : int }
(** Deterministic fault injection for the supervised process pool
    ({!Supervisor}): the fault fires at most once, on the first attempt of
    the work item dispatched [fault_seed]-th (counting from 0; a search
    that dispatches fewer items fires none). Because retries are
    fault-free, every injected fault must leave the final verdict unchanged
    (except a budget of zero retries, which surfaces a {!Report.Crash}). *)

(** Each field has one role in the search's identity: {e identity} (it
    shapes the explored tree or the report), {e job} (budgets and fan-out)
    or {e local} (sinks, paths, the checkpoint interval, fault injection).
    {!Checkpoint.config_fields} assigns the roles and names every field, so
    a new field does not compile until it has one (see DESIGN.md, "Search
    identity"). *)
type t = {
  fair : bool;  (** use the fair scheduler of Algorithm 1 *)
  fair_k : int;  (** process every k-th yield (paper §3, final remark) *)
  mode : mode;
  depth_bound : int option;
      (** unfair searches: systematic scheduling choices only below this
          depth; a path cut there runs on under random scheduling until it
          ends, counting the states it sees (paper §4.2.1). The tail draws
          from a generator keyed by [seed] and the path's decisions above
          the bound, so it is the same whichever worker runs it. [None] means
          unbounded (caution: diverges on cyclic state spaces — the problem
          the paper solves). *)
  max_steps : int;
      (** hard per-execution cap; reaching it classifies the execution as
          nonterminating (the Figure 2 measurement) *)
  livelock_bound : int option;
      (** fair searches: an execution reaching this many steps is reported as
          a divergence — the paper's outcomes 2 and 3, told apart by the
          last 500 steps of the path. Defaults to [max_steps] when [None]. *)
  max_executions : int option;
  time_limit : float option;  (** seconds *)
  seed : int64;
      (** keys every random choice: execution [i] of a sampling mode draws
          from a generator seeded by ([seed], [i]), a random tail from one
          seeded by ([seed], its path's decisions above the depth bound) *)
  sleep_sets : bool;  (** sleep-set partial-order reduction (extension) *)
  coverage : bool;  (** record distinct state signatures *)
  jobs : int;
      (** worker processes for the parallel search ({!Supervisor}); the
          same knob as [workers], kept under the [-j] name. The fan-out is
          the larger of the two, each with [0] (or negative) resolved to
          [Domain.recommended_domain_count ()]; a fan-out of 1 runs the
          search in the calling process. *)
  metrics : bool;
      (** collect the full instrument set into {!Report.t.metrics}. Off by
          default: when off, no registry exists and the hot paths pay one
          branch per site (see DESIGN.md, "Observability"). *)
  progress : Fairmc_obs.Progress.t option;
      (** the caller's progress reporter, with its sinks and interval
          ([None] by default). The {!Supervisor} ticks it in the calling
          process, with the executions and probe mass of its {!Tally}
          (prior sessions included) over the wall time of every session:
          once per dispatch turn, and at every poll point (every path
          start and every 256 steps) of an item it runs in process. *)
  events : Fairmc_obs.Events.stream option;
      (** telemetry event stream (schema [fairmc-events/1]): run/path/error/
          checkpoint lifecycle events plus advisory span and estimate
          events. Shards buffer locally and flush at path boundaries; with
          [None] (the default) no event code runs. Not part of the
          checkpoint fingerprint — like budgets, the sink may differ between
          a run and its resume. See DESIGN.md, "Telemetry". *)
  analyses : Analysis_hook.t list;
      (** dynamic analyses run over every explored execution via the
          {!Engine.set_observer} step stream (empty by default — no observer
          installed, no cost). Each parallel shard gets its own instances;
          results are merged deterministically (see DESIGN.md, "Dynamic
          analyses"). A race reported by an analysis ends the search with a
          {!Report.Race} verdict, selected by the same DFS-first-error rule
          as engine-detected errors. *)
  checkpoint : string option;
      (** write a durable-session checkpoint (schema [fairmc-ckpt/3]) to this
          file so an interrupted run can be continued with [--resume]; the
          {!Supervisor} writes it atomically (temp file + rename) when a
          work item returns, throttled by [checkpoint_interval], and always
          once when the search stops (see DESIGN.md, "Durable
          sessions") *)
  checkpoint_interval : float;
      (** minimum seconds between periodic checkpoint writes; [0] writes at
          every path boundary (tests): a search in process returns its item
          at its first path boundary after this (at most a second). Default
          30. *)
  static_por : bool;
      (** ChessLang programs loaded through the static-analysis layer
          (lib/static): merge provably thread-local transitions out of the
          scheduling-point set and attach the static conflict table
          consulted by {!Indep}. Default [true]. Native workloads
          ignore it. Recorded in checkpoint fingerprints: merging changes
          the tree shape, so a session must resume with the same setting. *)
  workers : int;
      (** supervised worker {e processes} for {!Supervisor}: 1 (default)
          runs the search in the calling process, [n > 1] forks [n] crash-isolated
          workers, [0] (or negative) uses
          [Domain.recommended_domain_count ()]; see [jobs] for how the two
          combine. Every strategy reports bit-identically at every fan-out
          (wall time aside), for searches that finish inside their budget;
          an injected fault with retries left changes nothing either. *)
  item_timeout : float option;
      (** supervised runs: wall-clock budget per work-item attempt; on
          expiry the worker is SIGKILLed and the item requeued (counting
          against [max_retries]). [None] (default) never times out. *)
  max_retries : int;
      (** supervised runs: how many times a work item is re-dispatched after
          a worker crash/timeout/protocol error before it is quarantined as
          a {!Report.Crash} verdict. Default 2. *)
  inject_fault : fault option;
      (** deterministic fault injection for tests/CI; [None] (default) in
          production *)
}

val default : t
(** Fair DFS: no depth bound, [max_steps = 20_000], livelock bound 10_000. *)

val fair_dfs : t
val unfair_dfs : depth_bound:int -> t

val describe : t -> string

val validate : t -> (unit, string) result
(** Refuse numbers that would fabricate a verdict: a context bound below 0;
    a sampling count, [fair_k], [max_steps], [livelock_bound] or
    [max_executions] below 1; a depth bound or
    [max_retries] below 0; a time limit that is negative or not finite; an
    item timeout that is not positive. [chess check] reports the error as a
    usage error and chessd refuses the job. *)

val fault_kind_name : fault_kind -> string
(** ["crash"], ["hang"], ["garble"], ["slowpipe"], ["savefail"]. *)

val fault_kinds : fault_kind list
(** Every injectable kind, for test/CI matrices. *)

val fault_name : fault -> string
(** ["<kind>@<seed>"], the inverse of {!fault_of_string}. *)

val fault_of_string : string -> (fault, string) result
(** Parse ["<kind>"] or ["<kind>@<seed>"] (seed defaults to 0) — the
    [--inject-fault] CLI syntax. *)

val mode_name : mode -> string
(** Short mode label (["dfs"], ["cb=2"], …) — used by {!describe} and by the
    telemetry [run_start] event. *)
