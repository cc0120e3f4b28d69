(** Search results: verdicts, counterexamples, statistics, metrics. *)

type counterexample = {
  rendered : string;  (** pretty-printed trace (tail for divergences) *)
  decisions : (int * int) list;  (** replayable (tid, alt) schedule *)
  length : int;
}

type divergence_kind =
  | Fair_nontermination
      (** a fair infinite execution in the limit — a livelock (paper outcome 3) *)
  | Good_samaritan_violation of int
      (** the tail starves enabled threads while thread [tid] runs without
          yielding (paper outcome 2) *)

type verdict =
  | Verified  (** the search space was exhausted without finding an error *)
  | Safety_violation of { tid : int; failure : Engine.failure; cex : counterexample }
  | Deadlock of { cex : counterexample }
  | Divergence of { kind : divergence_kind; cex : counterexample }
  | Race of { race : Analysis_hook.race; cex : counterexample }
      (** a dynamic analysis ({!Search_config.analyses}) reported a data
          race on this execution; [cex] replays the schedule up to and
          including the racing access *)
  | Crash of { reason : string; cex : counterexample }
      (** a supervised worker process died (or exhausted its retry budget)
          while exploring this subtree; [cex] is the item's schedule prefix,
          replayable to re-enter the crashing subtree deterministically *)
  | Limits_reached
      (** execution/time budget exhausted before completing the search *)

type stats = {
  executions : int;
  transitions : int;
  states : int;  (** distinct state signatures, when coverage is enabled *)
  nonterminating : int;  (** executions that hit the hard step cap *)
  depth_bound_hits : int;  (** paths pruned at the depth bound (Figure 2) *)
  sleep_set_prunes : int;  (** paths cut because sleep sets emptied the node *)
  yields : int;  (** yielding transitions executed across all paths *)
  max_depth : int;
  elapsed : float;
  first_error_execution : int option;
  first_error_time : float option;
  sync_ops_per_exec : int;  (** max over executions — Table 1 accounting *)
  max_threads : int;
  search_elapsed : float;
      (** wall time of the search phase alone (excludes startup work); 0
          when not measured — consumers should fall back to [elapsed] *)
  probe_mass : int;
      (** accumulated {!Fairmc_obs.Estimator} probe mass in fixed point
          ([Estimator.one] = fully explored); summed across shards and
          resumed sessions, jobs-deterministic for systematic searches *)
  path_digest : int;
      (** the paths [executions] counts, order-free: the sum modulo 2^61
          ({!digest_add}) of a hash of each path's end, step count and
          schedule. Merged like [executions], so a search gives the same
          digest at every fan-out and across resume, and two searches that
          explored the same multiset of schedules give the same digest *)
}

type analysis = {
  lock_order_edges : Analysis_hook.lock_edge list;
      (** union over all explored executions (and all shards), canonically
          sorted ({!Analysis_hook.dedup_edges}) *)
  potential_deadlock_cycles : (Op.obj * string) list list;
      (** {!Analysis_hook.cycles} of the merged edge set *)
}

type t = {
  verdict : verdict;
  stats : stats;
  metrics : Fairmc_obs.Metrics.Snapshot.t;
      (** full instrument snapshot; {!Fairmc_obs.Metrics.Snapshot.empty}
          unless [Search_config.metrics] was set *)
  analysis : analysis option;
      (** cross-execution analysis results; [None] unless
          [Search_config.analyses] was non-empty *)
}

val found_error : t -> bool
val verdict_name : verdict -> string

val verdict_key : verdict -> string
(** Canonical short key: ["verified"], ["safety"], ["deadlock"],
    ["livelock"], ["good-samaritan"], ["race"], ["crash"], or ["limits"] — the
    vocabulary of the workload registry's expected verdicts and of
    [chess sweep]. *)

val verdict_keys : string list
(** Every string {!verdict_key} can return. *)

val cex : t -> counterexample option
(** The counterexample, for erroring verdicts. *)

val search_time : stats -> float
(** [search_elapsed] when measured, otherwise [elapsed] — the denominator of
    {!execs_per_sec}. *)

val execs_per_sec : stats -> float
(** Executions per second of the search phase alone. *)

val completion : stats -> float
(** Estimated explored fraction in [0, 1] ({!Fairmc_obs.Estimator}). *)

val est_total : stats -> int option
(** Estimated total executions of the full search; [None] with no probe
    mass. *)

val eta : stats -> float option
(** Estimated seconds remaining at the current rate. *)

val pp : Format.formatter -> t -> unit
val pp_summary : Format.formatter -> t -> unit

val fix_lockgraph_counters :
  Fairmc_obs.Metrics.Snapshot.t -> analysis option -> Fairmc_obs.Metrics.Snapshot.t
(** Overwrite the set-derived ["analysis/lockgraph/*"] counters from a merged
    analysis union (shard merge, checkpoint resume): summing them would
    double-count edges seen on both sides. No-op when the counters are absent
    or no analysis ran. *)

val digest_add : int -> int -> int
(** Sum modulo 2^61: how path hashes accumulate into [path_digest], and
    how digests merge. *)

val digest_hex : int -> string
(** [path_digest] as 16 hex digits: a fixed-width string, since JSON
    readers that parse numbers as doubles (jq) would round it. *)

val digest_of_hex : string -> int option
(** The inverse of {!digest_hex}; [None] for anything it does not
    render. *)

val stats_to_json : stats -> Fairmc_util.Json.t

val schema_version : string
(** ["fairmc-report/2"] — the single source of truth for the report schema
    tag; every emitter and test references this constant. *)

val to_json :
  ?program:string -> ?config:string -> ?lint:Fairmc_util.Json.t -> t ->
  Fairmc_util.Json.t
(** The machine-readable report document ([chess check --json]), schema
    {!schema_version}: schema tag, program/config labels when given, verdict
    (with the replayable decision list of the counterexample, not its
    rendering), [verdict_key], stats (including the search-phase wall time
    and the progress-estimate fields), the metrics snapshot, when
    analyses ran the ["analysis"] object (lock-order edges and potential
    deadlock cycles), and — for ChessLang programs checked with static
    analysis enabled — the ["lint"] summary block the CLI passes in. *)
