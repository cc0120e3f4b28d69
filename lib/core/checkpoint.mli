(** Durable search sessions: checkpoint files and graceful interruption.

    A long stateless-model-checking run is pure re-execution from the initial
    state, so its complete progress is captured by a small amount of control
    state: the search's regions in DFS order. A done region holds the
    accumulated statistics/metrics/coverage/analysis totals of the work it
    covers, its paths' digest ([Report.stats.path_digest]) among them; an
    open region is a work item still to run — a DFS cursor (the
    frame stack, with the untried alternatives and sleep set of every frame)
    or a range of sampling executions. Random choices are keyed by their
    execution index or path, so no generator state is saved. The
    {!Supervisor} writes its regions as they stand, at every fan-out, so
    any checkpoint resumes at any fan-out. This module serializes that
    state to a versioned JSON file
    (schema [fairmc-ckpt/3], written atomically via a temp file + rename)
    and validates it against the requesting configuration on resume, so an
    interrupted [chess check] can continue where it stopped and produce
    bit-identical results (see DESIGN.md, "Durable sessions").

    The checkpoint also owns the process-wide graceful-interrupt flag: a
    SIGINT/SIGTERM handler requests a stop that every search loop observes at
    its existing poll points, letting the run flush a final checkpoint and
    still emit its partial report. *)

module B = Fairmc_util.Bitset

val schema : string
(** ["fairmc-ckpt/3"]: the stats of done regions carry their path digest.
    Files of another schema do not load; the error names their schema and
    says to start the search over. *)

(** {1 Serialized search state} *)

type decision = { c_tid : int; c_alt : int; c_cost : int }
(** One scheduling decision: thread, nondeterministic alternative, and its
    preemption cost (context-bounded search). *)

type frame = {
  c_chosen : decision;  (** the decision the next path takes here *)
  c_rest : decision list;  (** untried siblings, in DFS order *)
  c_sleep : B.t;  (** sleep set of the frame's node *)
  c_width : int;
      (** branching factor of the node when it was first pushed (before any
          siblings were consumed) — the {!Fairmc_obs.Estimator} probe
          weights of resumed paths depend on it *)
}

type item =
  | Cursor of frame array
      (** a systematic work item: the DFS stack at a path boundary.
          Replaying [c_chosen] of each frame reaches the item's next
          unexplored path; backtracking through the [c_rest] lists covers
          the rest of it. The empty cursor is the whole tree. *)
  | Range of int * int
      (** a sampling work item: executions [lo] to [hi - 1] of the search,
          each drawing from its own (seed, index) generator *)

type part = {
  p_stats : Report.stats;
  p_metrics : Fairmc_obs.Metrics.Snapshot.t;  (** kind-tagged *)
  p_states : int64 list;  (** coverage state signatures, sorted *)
  p_edges : Analysis_hook.lock_edge list;  (** lock-order union *)
}
(** The totals of explored work: paths that all ran to their end without
    an error. *)

type region =
  | Done of part
  | Open of item
      (** work not yet explored, or explored only in part: a queued or
          in-flight item, or one whose last path a stop cut short, is
          recorded whole and runs again on resume *)

type payload = {
  regions : region list;
      (** in DFS order (sampling: execution order); adjacent done regions
          are coalesced into one *)
  elapsed : float;  (** wall time consumed by prior sessions *)
  complete : bool;  (** the search reached its verdict; nothing to resume *)
}

type t = { fingerprint : string; payload : payload }

(** {1 Codec and file I/O} *)

val to_json : t -> Fairmc_util.Json.t
val of_json : Fairmc_util.Json.t -> (t, string) result

val save_result : string -> t -> (unit, string) result
(** Atomic (writes [path ^ ".tmp"], then renames over [path]) and hardened:
    EINTR restarts the call and other transient filesystem failures
    ([Sys_error]/[Unix_error]) are retried a few times with short backoff
    ({!Fairmc_util.Retry.transient}). On final failure the stale temp file
    is removed and the {e previous} checkpoint at [path] is left intact —
    a failed save never clobbers the last good one. *)

val save : string -> t -> unit
(** {!save_result}, downgrading a final failure to a stderr warning: the
    search keeps running on the previous checkpoint. *)

val inject_save_failures : int ref
(** Fault injection for tests/CI ([--inject-fault savefail]): the next [n]
    physical save attempts raise a transient [Sys_error]. *)

val load : string -> (t, string) result

(** {1 Search identity}

    One codec over {!Search_config.t} gives both the checkpoint fingerprint
    and the fairmc-job/1 config (see DESIGN.md, "Search identity"). *)

val config_fields : job:bool -> Search_config.t -> (string * Fairmc_util.Json.t) list
(** The config's identity fields — mode (without its sampling count),
    fair, fair_k, depth bound, step and livelock bounds, seed, sleep sets,
    coverage, metrics, analysis names and static POR — in a fixed order.
    With [~job:true], the mode carries its sampling count and the job
    fields follow: [max_executions], [time_limit], [jobs], [workers],
    [item_timeout], [max_retries]. Local fields (the
    progress reporter, the event sink, the checkpoint path and interval,
    fault injection) are never encoded. *)

val config_of_json :
  analysis:(string -> Analysis_hook.t option) -> Fairmc_util.Json.t -> Search_config.t
(** Inverse of [config_fields ~job:true]: reads those members of an object
    (others, such as a [split_depth] from an older job document, are
    ignored) and gives local fields their
    {!Search_config.default}. [analysis] resolves a name; an unknown name
    is an error. Raises {!Codec.Parse}. *)

val fingerprint : Search_config.t -> program:string -> string
(** Canonical rendering of the program name, the scheme that derives
    random choices from the seed (["draws": "path"]: keyed by execution
    index or path) and the identity fields (a compact JSON object). Job
    fields are left out so a resume may extend them, and may run at another
    fan-out. *)

(** {1 Resume validation} *)

val plan_resume : t -> Search_config.t -> program:string -> (payload, string) result
(** Validate [t] against the configuration (fingerprint match, not already
    complete, work items of the mode's kind) and return the payload to hand
    to {!Checker.check}'s [resume] parameter. *)

val zero_stats : Report.stats
(** All-zero statistics: the identity of {!merge_stats}. *)

val merge_stats : prior:Report.stats -> Report.stats -> Report.stats
(** Combine the statistics of explored work, [prior] first in DFS order:
    the regions of a search, whatever its fan-out and its sessions.
    Counters add, path digests add modulo 2^61 ({!Report.digest_add}),
    maxima max, [states] is the larger (each region keeps a
    coverage table of its own: the caller merging them sets the size of
    their union), [first_error_*] are offset into the combined run. *)

(** {1 Graceful interruption} *)

val interrupted : unit -> bool
(** Process-wide flag, polled by every search at every path start and
    every 256 steps, and by the {!Supervisor} loop. *)

val request_interrupt : unit -> unit
val clear_interrupt : unit -> unit

val install_signal_handlers : unit -> unit
(** Route SIGINT and SIGTERM to {!request_interrupt}. A second signal while
    the flag is already set exits immediately with status 130. No-op on
    platforms without these signals. *)

(** {1 Codec building blocks}

    The JSON helpers behind the checkpoint codec, shared with the worker IPC
    protocol ({!Worker}) so reports and snapshots travel between processes
    in exactly the checkpoint wire form. Parsers raise {!Codec.Parse}. *)

module Codec : sig
  exception Parse of string

  val fail : ('a, unit, string, 'b) format4 -> 'a
  val field : Fairmc_util.Json.t -> string -> Fairmc_util.Json.t
  val as_int : string -> Fairmc_util.Json.t -> int
  val as_bool : string -> Fairmc_util.Json.t -> bool
  val as_str : string -> Fairmc_util.Json.t -> string
  val as_arr : string -> Fairmc_util.Json.t -> Fairmc_util.Json.t list
  val as_float : string -> Fairmc_util.Json.t -> float
  val int_f : Fairmc_util.Json.t -> string -> int
  val bool_f : Fairmc_util.Json.t -> string -> bool
  val str_f : Fairmc_util.Json.t -> string -> string
  val arr_f : Fairmc_util.Json.t -> string -> Fairmc_util.Json.t list
  val float_f : Fairmc_util.Json.t -> string -> float
  val int64_to_json : int64 -> Fairmc_util.Json.t
  val int64_of_json : string -> Fairmc_util.Json.t -> int64

  val opt_to_json :
    ('a -> Fairmc_util.Json.t) -> 'a option -> Fairmc_util.Json.t

  val opt_of_json :
    (Fairmc_util.Json.t -> 'a) -> Fairmc_util.Json.t -> 'a option

  val item_to_json : item -> Fairmc_util.Json.t
  val item_of_json : Fairmc_util.Json.t -> item
  val stats_to_json : Report.stats -> Fairmc_util.Json.t
  val stats_of_json : Fairmc_util.Json.t -> Report.stats
  val metrics_to_json : Fairmc_obs.Metrics.Snapshot.t -> Fairmc_util.Json.t

  val metrics_of_json :
    string -> Fairmc_util.Json.t -> Fairmc_obs.Metrics.Snapshot.t

  val states_to_json : int64 list -> Fairmc_util.Json.t
  val states_of_json : string -> Fairmc_util.Json.t -> int64 list
  val edges_to_json : Analysis_hook.lock_edge list -> Fairmc_util.Json.t

  val edges_of_json :
    string -> Fairmc_util.Json.t -> Analysis_hook.lock_edge list
end
