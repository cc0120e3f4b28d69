(** A check job as submitted to {!Daemon}: a program reference (built-in
    workload name or ChessLang file path) plus the serializable slice of
    {!Fairmc_core.Search_config.t} — everything that shapes the search, none
    of the runtime plumbing (event sinks, progress callbacks, checkpoint
    paths, fault injection), which the daemon supplies itself.

    Job identity is the checkpoint config fingerprint
    ({!Fairmc_core.Checkpoint.fingerprint}) of the projected config, hashed
    to a short id. Budgets (max executions, time limit) and the execution
    vehicle (jobs/workers) are excluded from the fingerprint by design, so
    duplicate submissions from heavy traffic — even with different budgets —
    dedupe into one running search with many subscribers. *)

type t = {
  js_program : string;  (** built-in name or [*.chess] path *)
  js_mode : Fairmc_core.Search_config.mode;
  js_fair : bool;
  js_fair_k : int;
  js_depth_bound : int option;
  js_random_tail : bool;
  js_max_steps : int;
  js_livelock_bound : int option;
  js_tail_window : int;
  js_max_executions : int option;
  js_time_limit : float option;
  js_seed : int64;
  js_sleep_sets : bool;
  js_coverage : bool;
  js_metrics : bool;
  js_jobs : int;
  js_split_depth : int;
  js_workers : int;
  js_item_timeout : float option;
  js_max_retries : int;
  js_analyses : string list;  (** {!Fairmc_core.Analysis_hook.t} names *)
  js_interp : Fairmc_core.Search_config.interp;
  js_static_por : bool;
}

val schema : string
(** ["fairmc-job/1"]. *)

val of_config : program:string -> Fairmc_core.Search_config.t -> t
(** Project the serializable slice of a full config. *)

val to_config : t -> Fairmc_core.Search_config.t
(** Rebuild a config from the spec ({!Fairmc_core.Search_config.default}
    for everything the spec does not carry). Analysis names resolve against
    the built-in detectors; unknown names are dropped — call {!validate}
    first to reject them. *)

val validate : t -> (unit, string) result
(** Reject specs that cannot faithfully rebuild a config (unknown analysis
    names) or that no search accepts ([js_fair_k < 1]). *)

val resolve :
  t -> (Fairmc_core.Program.t * Fairmc_util.Json.t option, string) result
(** Resolve the program reference exactly as [chess check] would: registry
    lookup for built-ins, parse + (with [js_static_por]) static compile for
    ChessLang files — the returned lint summary is embedded in the final
    report so a subscriber's JSON equals the direct run's. *)

val fingerprint : t -> program_name:string -> string
(** The checkpoint config fingerprint of the projected config;
    [program_name] is the resolved {!Fairmc_core.Program.t} name. *)

val id : t -> program_name:string -> string
(** Job id: ["j" ^ FNV-1a hex] of {!fingerprint}. Filesystem- and
    wire-safe. *)

val to_json : t -> Fairmc_util.Json.t

val of_json : Fairmc_util.Json.t -> t
(** Raises {!Fairmc_core.Checkpoint.Codec.Parse} on malformed input. *)
