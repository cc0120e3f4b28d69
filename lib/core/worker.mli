(** Worker IPC protocol: length-prefixed JSON frames over pipes.

    The wire vocabulary of the supervised process pool ({!Supervisor}): a
    frame is an 8-lowercase-hex-digit payload length followed by that many
    bytes of JSON. Requests flow parent→child, responses child→parent.
    Reports, stats and metric snapshots reuse the checkpoint codec
    ({!Checkpoint.Codec}) so every serialized form in the system agrees.

    Any framing violation — garbled header, oversized frame, non-JSON
    payload, truncation — surfaces as an [Error]; the supervisor treats it
    like a worker death (requeue, retry, eventually quarantine). *)

val protocol : string
(** ["fairmc-ipc/1"]; embedded in every response and checked on decode. *)

type request =
  | Run of {
      q_index : int;
          (** the item's dispatch number: the supervisor numbers items as it
              first dispatches them *)
      q_attempt : int;  (** 0 on first dispatch; retries increment *)
      q_time_left : float option;
          (** remaining global time budget in seconds, [None] = unlimited.
              The child derives its search deadline from this — never from
              the per-item timeout, which is parent-side only (a slow but
              healthy item must not come back [Limits_reached]). *)
      q_item : Checkpoint.item;  (** the work item to run *)
    }
  | Quit  (** drain and exit 0 *)

type response = {
  r_index : int;
  r_attempt : int;  (** echoed from the request; a mismatch is a protocol error *)
  r_report : Report.t;
  r_states : int64 list;  (** sorted coverage signatures (empty unless coverage) *)
  r_events : string list;
      (** the item's [fairmc-events/1] lines, in order, as the worker's
          stream ({!Fairmc_obs.Events.worker}) rendered them; the parent
          renumbers them onto its own stream ({!Fairmc_obs.Events.relay}).
          The decoder rejects a line that is not
          {!Fairmc_obs.Events.relayable}. *)
}

(** A worker's frame: the work its item left, sent just before the item's
    response when the item stopped at a path boundary (asked to split, or
    stopped by a budget) with work left, then the response. *)
type reply = Rest of Checkpoint.item list | Response of response

(** {1 Codec}

    Parsers raise {!Checkpoint.Codec.Parse} on malformed input. *)

val request_to_json : request -> Fairmc_util.Json.t
val request_of_json : Fairmc_util.Json.t -> request
val response_to_json : response -> Fairmc_util.Json.t
val response_of_json : Fairmc_util.Json.t -> response
val rest_to_json : Checkpoint.item list -> Fairmc_util.Json.t

val reply_of_json : Fairmc_util.Json.t -> reply
(** A [Rest] frame (it has a ["rest"] member) or a response. *)

val report_to_json : Report.t -> Fairmc_util.Json.t
val report_of_json : Fairmc_util.Json.t -> Report.t

(** {1 Framing} *)

val max_frame : int
(** Hard payload-size cap (64 MiB); larger headers are protocol errors. *)

val send : Unix.file_descr -> Fairmc_util.Json.t -> unit
(** Write one frame, restarting on EINTR until complete. *)

val send_text : Unix.file_descr -> string -> unit
(** Write one frame whose payload is [text], already rendered JSON (sent
    as it is, not checked). *)

val add_frame : Buffer.t -> Fairmc_util.Json.t -> unit
(** Append one frame to a buffer, to send several with one
    {!write_string}. *)

val write_string : Unix.file_descr -> string -> unit
(** Write all of a string, restarting on EINTR until complete. *)

val send_slowly :
  ?chunks:int -> ?delay:float -> Unix.file_descr -> Fairmc_util.Json.t -> unit
(** Fault injection ([--inject-fault slowpipe]): the same frame, trickled in
    [chunks] pieces with [delay] seconds between them, to exercise the
    parent's partial-frame reassembly. *)

val recv : Unix.file_descr -> (Fairmc_util.Json.t option, string) result
(** Blocking read of one JSON frame (child side). [Ok None] is a clean EOF
    before any byte of a frame; truncation and garbling are [Error]s. *)

(** {1 Incremental reassembly (parent side)}

    The supervisor feeds each slot's buffer from select-driven single
    [read(2)] calls and extracts complete frames as they arrive, so a slow
    worker never blocks the loop. *)

type inbuf

val inbuf : unit -> inbuf

val feed : inbuf -> Unix.file_descr -> [ `Data of int | `Eof ]
(** One [read(2)] into the buffer. Call when select reports the fd
    readable. *)

val extract : inbuf -> (Fairmc_util.Json.t option, string) result
(** Pop the next complete frame, [Ok None] when more bytes are needed. Call
    in a loop after {!feed}: one readiness wakeup can complete several
    frames. Extracting costs the frame's own bytes, not the buffer's: the
    unread rest moves once per {!feed}. *)
