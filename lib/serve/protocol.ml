(* fairmc-jobs/1: the chessd wire vocabulary. See protocol.mli.

   Frames ride the fairmc-ipc/1 framing from {!Fairmc_core.Worker} (8-hex
   length prefix + JSON payload) over a Unix-domain stream socket; this
   module is only the request/response vocabulary on top of it. *)

module J = Fairmc_util.Json
module CK = Fairmc_core.Checkpoint.Codec

let protocol = "fairmc-jobs/1"

(* ------------------------------------------------------------------ *)
(* Job state, as reported to clients.                                  *)

type job_state = Queued | Running | Done | Failed

let state_name = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Failed -> "failed"

let state_of_name = function
  | "queued" -> Queued
  | "running" -> Running
  | "done" -> Done
  | "failed" -> Failed
  | s -> CK.fail "unknown job state %S" s

type job_info = {
  ji_id : string;
  ji_program : string;
  ji_state : job_state;
  ji_priority : int;
  ji_attempts : int;
  ji_subscribers : int;
  ji_verdict : string option;  (* verdict_key, once done *)
}

(* ------------------------------------------------------------------ *)
(* Client -> server.                                                   *)

type request =
  | Hello
  | Submit of { spec : Jobspec.t; priority : int }
  | Jobs
  | Status of string
  | Watch of { job : string; events : bool }
  | Cancel of string
  | Shutdown

(* ------------------------------------------------------------------ *)
(* Server -> client.                                                   *)

type message =
  | Hello_ok of { pid : int; version : string }
  | Submitted of { job : string; state : job_state; deduped : bool }
  | Job_list of job_info list
  | Job_status of job_info
  | Watching of { job : string; state : job_state }
  | Event of string  (* one raw fairmc-events/1 NDJSON line *)
  | Job_done of {
      job : string;
      verdict : string;  (* Report.verdict_key *)
      found_error : bool;
      interrupted : bool;
      rendered : string;  (* exactly what `chess check` prints *)
      report : J.t;  (* the fairmc-report/2 document *)
    }
  | Cancelled of { job : string }
  | Error_msg of string
  | Bye

(* ------------------------------------------------------------------ *)
(* Codecs. Parsers raise {!Fairmc_core.Checkpoint.Codec.Parse}.        *)

let request_to_json = function
  | Hello -> J.Obj [ ("op", J.Str "hello"); ("protocol", J.Str protocol) ]
  | Submit { spec; priority } ->
    J.Obj
      [ ("op", J.Str "submit");
        ("spec", Jobspec.to_json spec);
        ("priority", J.Int priority) ]
  | Jobs -> J.Obj [ ("op", J.Str "jobs") ]
  | Status job -> J.Obj [ ("op", J.Str "status"); ("job", J.Str job) ]
  | Watch { job; events } ->
    J.Obj [ ("op", J.Str "watch"); ("job", J.Str job); ("events", J.Bool events) ]
  | Cancel job -> J.Obj [ ("op", J.Str "cancel"); ("job", J.Str job) ]
  | Shutdown -> J.Obj [ ("op", J.Str "shutdown") ]

let request_of_json o =
  match CK.str_f o "op" with
  | "hello" ->
    let p = CK.str_f o "protocol" in
    if p <> protocol then CK.fail "protocol mismatch: %S (expected %S)" p protocol;
    Hello
  | "submit" ->
    Submit
      { spec = Jobspec.of_json (CK.field o "spec");
        priority = CK.int_f o "priority" }
  | "jobs" -> Jobs
  | "status" -> Status (CK.str_f o "job")
  | "watch" -> Watch { job = CK.str_f o "job"; events = CK.bool_f o "events" }
  | "cancel" -> Cancel (CK.str_f o "job")
  | "shutdown" -> Shutdown
  | op -> CK.fail "unknown request %S" op

let job_info_to_json i =
  J.Obj
    [ ("id", J.Str i.ji_id);
      ("program", J.Str i.ji_program);
      ("state", J.Str (state_name i.ji_state));
      ("priority", J.Int i.ji_priority);
      ("attempts", J.Int i.ji_attempts);
      ("subscribers", J.Int i.ji_subscribers);
      ("verdict", CK.opt_to_json (fun s -> J.Str s) i.ji_verdict) ]

let job_info_of_json o =
  { ji_id = CK.str_f o "id";
    ji_program = CK.str_f o "program";
    ji_state = state_of_name (CK.str_f o "state");
    ji_priority = CK.int_f o "priority";
    ji_attempts = CK.int_f o "attempts";
    ji_subscribers = CK.int_f o "subscribers";
    ji_verdict = CK.opt_of_json (CK.as_str "verdict") (CK.field o "verdict") }

let message_to_json = function
  | Hello_ok { pid; version } ->
    J.Obj
      [ ("msg", J.Str "hello");
        ("protocol", J.Str protocol);
        ("pid", J.Int pid);
        ("version", J.Str version) ]
  | Submitted { job; state; deduped } ->
    J.Obj
      [ ("msg", J.Str "submitted");
        ("job", J.Str job);
        ("state", J.Str (state_name state));
        ("deduped", J.Bool deduped) ]
  | Job_list l ->
    J.Obj [ ("msg", J.Str "jobs"); ("jobs", J.Arr (List.map job_info_to_json l)) ]
  | Job_status i -> J.Obj [ ("msg", J.Str "status"); ("job", job_info_to_json i) ]
  | Watching { job; state } ->
    J.Obj
      [ ("msg", J.Str "watching");
        ("job", J.Str job);
        ("state", J.Str (state_name state)) ]
  | Event line -> J.Obj [ ("msg", J.Str "event"); ("line", J.Str line) ]
  | Job_done { job; verdict; found_error; interrupted; rendered; report } ->
    J.Obj
      [ ("msg", J.Str "done");
        ("job", J.Str job);
        ("verdict", J.Str verdict);
        ("found_error", J.Bool found_error);
        ("interrupted", J.Bool interrupted);
        ("rendered", J.Str rendered);
        ("report", report) ]
  | Cancelled { job } -> J.Obj [ ("msg", J.Str "cancelled"); ("job", J.Str job) ]
  | Error_msg e -> J.Obj [ ("msg", J.Str "error"); ("error", J.Str e) ]
  | Bye -> J.Obj [ ("msg", J.Str "bye") ]

let message_of_json o =
  match CK.str_f o "msg" with
  | "hello" ->
    let p = CK.str_f o "protocol" in
    if p <> protocol then CK.fail "protocol mismatch: %S (expected %S)" p protocol;
    Hello_ok { pid = CK.int_f o "pid"; version = CK.str_f o "version" }
  | "submitted" ->
    Submitted
      { job = CK.str_f o "job";
        state = state_of_name (CK.str_f o "state");
        deduped = CK.bool_f o "deduped" }
  | "jobs" -> Job_list (List.map job_info_of_json (CK.arr_f o "jobs"))
  | "status" -> Job_status (job_info_of_json (CK.field o "job"))
  | "watching" ->
    Watching { job = CK.str_f o "job"; state = state_of_name (CK.str_f o "state") }
  | "event" -> Event (CK.str_f o "line")
  | "done" ->
    Job_done
      { job = CK.str_f o "job";
        verdict = CK.str_f o "verdict";
        found_error = CK.bool_f o "found_error";
        interrupted = CK.bool_f o "interrupted";
        rendered = CK.str_f o "rendered";
        report = CK.field o "report" }
  | "cancelled" -> Cancelled { job = CK.str_f o "job" }
  | "error" -> Error_msg (CK.str_f o "error")
  | "bye" -> Bye
  | m -> CK.fail "unknown message %S" m
