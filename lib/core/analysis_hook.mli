(** The seam between the search and the dynamic-analysis layer.

    An analysis is a factory of per-shard {!instance}s. The search creates
    one instance per analysis per shard, announces every fresh engine run to
    it ([exec_start]) and feeds it the step stream through
    {!Engine.set_observer}; at the end of the shard it collects each
    instance's {!result}. Concrete analyses (happens-before races, locksets,
    the lock-order graph) live in [fairmc_analysis]; this module only owns
    the types they communicate through, so the core library does not depend
    on the analysis library. *)

type race = {
  detector : string;  (** ["hb"] or ["lockset"] *)
  obj : Op.obj;  (** the racing shared variable *)
  obj_name : string;
  a_tid : int;  (** earlier access *)
  a_step : int;
  a_op : Op.t;
  b_tid : int;  (** the access that completed the race *)
  b_step : int;
  b_op : Op.t;
  rendered : string;  (** trace of the racing execution up to [b_step] *)
  decisions : (int * int) list;  (** replayable schedule ending at [b_step] *)
  length : int;
}

type lock_edge = {
  e_from : Op.obj;  (** a lock held ... *)
  e_from_name : string;
  e_to : Op.obj;  (** ... while this one was acquired *)
  e_to_name : string;
}

type result = {
  first_race : race option;
  lock_edges : lock_edge list;  (** deduplicated, sorted by (from, to) *)
  counters : (string * int) list;
      (** per-analysis metrics, merged into the search's snapshot
          ([Metrics] naming convention, e.g. ["analysis/hb/races"]) *)
}

type instance = {
  exec_start : Engine.t -> unit;
      (** A fresh execution begins; reset per-execution state. The engine
          handle stays valid until the next [exec_start] and may be used to
          snapshot the trace at detection time ({!snapshot_cex}). *)
  observe : Engine.observer;
  first_race : unit -> race option;
      (** Cheap poll — no allocation; the search checks it after every
          path. *)
  result : unit -> result;
}

type t = { name : string; create : unit -> instance }

val snapshot_cex : Engine.t -> string * (int * int) list * int
(** [(rendered, decisions, length)] of the run's trace as it stands — called
    from inside an observer callback this is exactly the schedule up to and
    including the racing access. Long renderings are cut to the last 400
    events; [decisions] is always complete. *)

val dedup_edges : lock_edge list -> lock_edge list
(** Sort by (from, to) object ids and drop duplicates — the canonical edge
    set, identical however the edges were collected ({!Supervisor} merges
    shard graphs by recomputing this on the concatenation). *)

val cycles : lock_edge list -> (Op.obj * string) list list
(** Strongly connected components with at least two locks, each sorted by
    object id, the component list sorted by its smallest member: the
    lock-order cycles reported as potential deadlocks. Deterministic in the
    edge {e set} (order of the input list does not matter). *)

val combine : result list -> result
(** Merge the results of several instances (or shards): earliest
    [first_race] by [b_step] (ties: listed order), edge sets unioned via
    {!dedup_edges}, counter lists concatenated. *)
