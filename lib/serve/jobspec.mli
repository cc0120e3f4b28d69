(** A check job as submitted to {!Daemon}: a program reference (built-in
    workload name or ChessLang file path) and a search configuration. Its
    wire form, schema [fairmc-job/1], carries the config's identity and
    job fields ({!Fairmc_core.Checkpoint.config_fields}); local fields
    (event sinks, progress reporters, checkpoint paths, fault injection)
    are the daemon's own.

    Job identity is the checkpoint config fingerprint
    ({!Fairmc_core.Checkpoint.fingerprint}), hashed to a short id. Job
    fields (budgets and fan-out) are not part of it, so duplicate
    submissions — even with different budgets — dedupe into one running
    search with many subscribers. *)

type t = {
  program : string;  (** built-in name or [*.chess] path *)
  config : Fairmc_core.Search_config.t;
      (** local fields at their {!Fairmc_core.Search_config.default} *)
}

val schema : string
(** ["fairmc-job/1"]. *)

val max_fan_out : int
(** The largest [jobs] or [workers] a job may ask for (256). *)

val of_config : program:string -> Fairmc_core.Search_config.t -> t
(** The spec of a config: its identity and job fields; local fields take
    their defaults. *)

val to_config : t -> Fairmc_core.Search_config.t

val validate : t -> (unit, string) result
(** Reject specs {!Fairmc_core.Search_config.validate} refuses, and
    fan-outs above {!max_fan_out}, which would fork that many worker
    processes. *)

val resolve :
  t -> (Fairmc_core.Program.t * Fairmc_util.Json.t option, string) result
(** Resolve the program reference as [chess check] does: registry lookup
    for built-ins, parse + (with [static_por]) static compile for
    ChessLang files — the returned lint summary is embedded in the final
    report so a subscriber's JSON equals the direct run's. *)

val id : t -> program_name:string -> string
(** Job id: ["j" ^ FNV-1a hex] of the config fingerprint; [program_name]
    is the resolved {!Fairmc_core.Program.t} name. Filesystem- and
    wire-safe. *)

val to_json : t -> Fairmc_util.Json.t

val of_json : Fairmc_util.Json.t -> t
(** Unknown members are ignored, among them the ChessLang backend switch
    older clients send; unknown analysis names are rejected. Raises
    {!Fairmc_core.Checkpoint.Codec.Parse} on malformed input. *)
