(** The [fairmc-jobs/1] wire vocabulary of {!Daemon}.

    Frames ride the fairmc-ipc/1 framing of {!Fairmc_core.Worker} — an
    8-lowercase-hex payload length followed by that many bytes of JSON —
    over a Unix-domain stream socket. Requests flow client→daemon; a
    single request may be answered by a stream of messages (a [Watch]
    yields [Watching], then [Event] frames, then one terminal [Job_done]).
    The runner messages are daemon-internal: each forked job runner ships
    them up its pipe, after its event lines, which travel in raw frames
    (chunks of complete NDJSON lines, see {!Fairmc_obs.Events.create}
    [~chunked]); the daemon appends those to the job's backlog and fans
    them out to subscribers as [Event] messages. *)

val protocol : string
(** ["fairmc-jobs/1"]; embedded in the handshake and checked on decode. *)

type job_state = Queued | Running | Done | Failed

val state_name : job_state -> string
(** ["queued"], ["running"], ["done"], ["failed"]. *)

val state_of_name : string -> job_state
(** Raises {!Fairmc_core.Checkpoint.Codec.Parse} on unknown input. *)

type job_info = {
  ji_id : string;
  ji_program : string;
  ji_state : job_state;
  ji_priority : int;
  ji_attempts : int;
  ji_subscribers : int;
  ji_verdict : string option;
      (** {!Fairmc_core.Report.verdict_key} once done; ["failed"] for
          failed jobs *)
}

type request =
  | Hello  (** mandatory first frame; carries the protocol version *)
  | Submit of { spec : Jobspec.t; priority : int }
  | Jobs
  | Status of string
  | Watch of { job : string; events : bool }
      (** subscribe to a job's completion; with [events], also receive its
          [fairmc-events/1] stream *)
  | Cancel of string
  | Shutdown

type message =
  | Hello_ok of { pid : int; version : string }
  | Submitted of { job : string; state : job_state; deduped : bool }
      (** [deduped] marks a submission that attached to an already-known
          job (same config fingerprint) instead of starting a search *)
  | Job_list of job_info list
  | Job_status of job_info
  | Watching of { job : string; state : job_state }
  | Event of string  (** one raw [fairmc-events/1] NDJSON line, verbatim *)
  | Job_done of {
      job : string;
      verdict : string;  (** {!Fairmc_core.Report.verdict_key} *)
      found_error : bool;
      interrupted : bool;
      rendered : string;  (** the report exactly as [chess check] prints it *)
      report : Fairmc_util.Json.t;  (** the [fairmc-report/2] document *)
    }
  | Cancelled of { job : string }
  | Error_msg of string
  | Bye

type runner_msg =
  | R_done of {
      verdict : string;
      found_error : bool;
      interrupted : bool;
      rendered : string;
      report : Fairmc_util.Json.t;
    }
  | R_failed of string

(** {1 Codecs}

    Parsers raise {!Fairmc_core.Checkpoint.Codec.Parse} on malformed
    input. *)

val request_to_json : request -> Fairmc_util.Json.t
val request_of_json : Fairmc_util.Json.t -> request
val job_info_to_json : job_info -> Fairmc_util.Json.t
val job_info_of_json : Fairmc_util.Json.t -> job_info
val message_to_json : message -> Fairmc_util.Json.t
val message_of_json : Fairmc_util.Json.t -> message
val runner_to_json : runner_msg -> Fairmc_util.Json.t
val runner_of_json : Fairmc_util.Json.t -> runner_msg
