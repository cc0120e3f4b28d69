(** Lightweight metrics registry for the checker's own instrumentation.

    Design constraints (see DESIGN.md, "Observability"):

    - {b Allocation-conscious}: instruments are registered once per search
      (or per shard) and increments are single mutable-field stores — no
      hashing, no boxing, no closures on the hot path. Code that wants
      zero cost when observability is off holds a [meters option] and
      branches once per site; a registry is only ever created when metrics
      were requested.
    - {b Shard-local}: a registry belongs to one shard. The parallel
      search gives each work item its own registry (in its worker process)
      and merges the immutable {!Snapshot}s afterwards, exactly like it
      merges {!Report.stats} — there are no atomics on the instrument
      path.
    - {b Deterministic}: counters and histograms record logical events, so
      for the systematic parallel search their merged values are
      bit-identical for every [jobs] value. Gauges record run-dependent
      facts (peaks, wall times) and merge by [max]. One documented
      exception: the step-classification counters
      ["search/steps/replay"] / ["search/steps/restored"] /
      ["search/steps/fresh"] depend on how the decision tree was sharded (a
      worker replays its locked prefix where the sequential search made
      those decisions fresh or restored them) and on where a resumed
      session started (it replays its checkpointed stack once) — only their
      sum is invariant, and the jobs- and resume-determinism tests fold
      them together. [replay] counts prefix decisions re-executed,
      those a native path fast-forwards along the previous path's trace
      included (see {!Fairmc_core.Engine.fast_forward}); [restored] the
      prefix transitions a restored state skipped (ChessLang on the VM, see
      {!Fairmc_core.Engine.restore}). For the same reason the
      per-scheduling-point histograms (["sched/schedulable_size"],
      ["sched/window/*"]) observe the steps the search loop executes only,
      neither fast-forwarded nor restored ones: they depend on the sharding
      too.

    Naming convention: slash-separated lowercase paths, e.g.
    ["search/steps/replay"], ["sched/yields"], ["engine/op/lock"],
    ["sup/items"]. *)

type t
(** A registry: a set of named instruments. *)

type counter
type gauge
type histogram

val create : unit -> t

val counter : t -> string -> counter
(** Register (or look up) a monotonically increasing counter. *)

val gauge : t -> string -> gauge
val histogram : t -> string -> histogram

val incr : counter -> unit
val add : counter -> int -> unit
val value : counter -> int

val set : gauge -> int -> unit
val set_max : gauge -> int -> unit
(** [set_max g v] is [set g (max v (current value))]. *)

val observe : histogram -> int -> unit
(** Record one sample. Negative samples clamp to 0. Buckets are powers of
    two: bucket [i] counts samples [v] with [2^(i-1) <= v < 2^i] (bucket 0
    counts [v = 0]); count/sum/max are tracked exactly. *)

(** Immutable view of a registry, mergeable across shards. *)
module Snapshot : sig
  type hist = {
    count : int;
    sum : int;
    max : int;
    buckets : (int * int) list;  (** (bucket index, count), sparse, sorted *)
  }

  type entry =
    | Counter of int
    | Gauge of int
    | Histogram of hist

  type t

  val empty : t
  val is_empty : t -> bool

  val entries : t -> (string * entry) list
  (** Sorted by name. *)

  val counters : t -> (string * int) list
  (** Just the counters, sorted by name — the deterministic slice used by
      the jobs-invariance tests. *)

  val find : t -> string -> entry option

  val merge : t -> t -> t
  (** Pointwise: counters add, gauges max, histograms merge bucket-wise
      (count/sum add, max maxes). Associative and commutative, with [empty]
      as identity. A name registered with different kinds on both sides
      raises [Invalid_argument] — shards of one search always agree. *)

  val with_counter : t -> string -> int -> t
  (** Insert-or-replace a derived counter (used to export plain search
      statistics into the snapshot). *)

  val with_gauge : t -> string -> int -> t

  val of_entries : (string * entry) list -> t
  (** Build a snapshot from a raw entry list in any order (later duplicates
      replace earlier ones). Used by the checkpoint codec, which stores
      entries with explicit kind tags because {!to_json} flattens counters
      and gauges to the same representation. *)

  val to_json : t -> Fairmc_util.Json.t
  (** [{ "name": value, ... }] for counters and gauges;
      [{ "count":…, "sum":…, "max":…, "buckets": {"i": n, …} }] for
      histograms. *)

  val pp : Format.formatter -> t -> unit
  (** One instrument per line, for [chess check --stats]. *)
end

val snapshot : t -> Snapshot.t
