(* chessd: the checking-as-a-service daemon. See daemon.mli.

   One single-threaded select loop owns everything: the Unix-domain listen
   socket, every client connection, and one pipe per running job. Each
   job runs in a forked runner process, which forks its own supervised
   worker pool in turn. A job's event lines never live in the daemon's
   heap: they go from the runner's pipe to the spool and to the
   subscribers watching at that moment. *)

module J = Fairmc_util.Json
module CK = Fairmc_core.Checkpoint.Codec
module Checkpoint = Fairmc_core.Checkpoint
module C = Fairmc_core.Search_config
module Program = Fairmc_core.Program
module Retry = Fairmc_util.Retry
module Report = Fairmc_core.Report
module Checker = Fairmc_core.Checker
module Worker = Fairmc_core.Worker
module Events = Fairmc_obs.Events
module P = Protocol

type config = {
  socket : string;
  spool : string;
  max_jobs : int;
  max_attempts : int;
  quiet : bool;
}

let default_config =
  { socket = "chessd.sock";
    spool = "chessd-spool";
    max_jobs = 1;
    max_attempts = 3;
    quiet = false }

(* ------------------------------------------------------------------ *)
(* State.                                                              *)

type client = {
  c_fd : Unix.file_descr;
  c_buf : Worker.inbuf;
  mutable c_alive : bool;
}

type job = {
  j_id : string;
  j_spec : Jobspec.t;
  j_program : string;  (* resolved Program.t name, the fingerprint basis *)
  j_seq : int;  (* FIFO tiebreak within a priority band *)
  mutable j_priority : int;
  mutable j_state : P.job_state;
  mutable j_attempts : int;
  mutable j_cancelled : bool;
  mutable j_watchers : (client * bool) list;  (* client, wants event frames *)
  mutable j_result : P.message option;  (* the Job_done, once finished *)
  mutable j_failure : string option;
}

type runner = {
  r_pid : int;
  r_fd : Unix.file_descr;  (* read end of the runner's frame pipe *)
  r_buf : Worker.inbuf;
  r_job : job;
  r_backlog : Unix.file_descr option;  (* <id>.events, opened for appending *)
  mutable r_finished : bool;  (* saw R_done/R_failed; EOF is then benign *)
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  jobs : (string, job) Hashtbl.t;
  mutable queue : job list;  (* queued, unsorted; scheduler picks best *)
  mutable clients : client list;
  mutable runners : runner list;
  mutable seq : int;
  mutable stop : bool;
}

let logf t fmt =
  Printf.ksprintf
    (fun s -> if not t.cfg.quiet then Printf.eprintf "[chessd] %s\n%!" s)
    fmt

(* ------------------------------------------------------------------ *)
(* Spool: <id>.job is the submission, <id>.ckpt the search checkpoint
   the runner maintains, <id>.report the finished result, <id>.events the
   event backlog. A .job with no .report is unfinished work; restart
   requeues it and the runner resumes from the .ckpt, which is what makes
   SIGTERM survivable.                                                   *)

let spool_path t id ext = Filename.concat t.cfg.spool (id ^ ext)

let spool_schema = "fairmc-spool/1"

(* Same durability discipline as Checkpoint.save_result: data reaches the
   disk before the rename publishes it, and the directory entry is synced
   so a crash cannot leave a published-but-empty file. *)
let write_spool path doc =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let oc = Out_channel.open_bin tmp in
  Fun.protect
    ~finally:(fun () -> Out_channel.close oc)
    (fun () ->
      Out_channel.output_string oc (J.to_string ~pretty:true doc);
      Out_channel.output_char oc '\n';
      Out_channel.flush oc;
      Unix.fsync (Unix.descr_of_out_channel oc));
  Sys.rename tmp path;
  match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
  | dirfd ->
    Fun.protect
      ~finally:(fun () -> Unix.close dirfd)
      (fun () -> try Unix.fsync dirfd with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let read_spool path =
  match J.of_string (In_channel.with_open_bin path In_channel.input_all) with
  | Ok doc -> Ok doc
  | Error e -> Error e
  | exception Sys_error e -> Error e

let save_job t job =
  write_spool
    (spool_path t job.j_id ".job")
    (J.Obj
       [ ("schema", J.Str spool_schema);
         ("spec", Jobspec.to_json job.j_spec);
         ("priority", J.Int job.j_priority) ])

let save_report t job msg = write_spool (spool_path t job.j_id ".report") msg

let remove_file path = try Sys.remove path with Sys_error _ -> ()

(* The event backlog is appended to as the runner's chunks arrive, one
   write each, and never fsync'd: it is a record for late subscribers,
   not state a restart depends on. A retried attempt appends to the same
   file. *)
let open_backlog t job =
  match
    Unix.openfile (spool_path t job.j_id ".events")
      [ Unix.O_WRONLY; Unix.O_APPEND; Unix.O_CREAT ] 0o644
  with
  | fd -> Some fd
  | exception Unix.Unix_error (e, _, _) ->
    logf t "job %s: no event backlog: %s" job.j_id (Unix.error_message e);
    None

let close_backlog r =
  Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) r.r_backlog

(* [f] on each complete line of [b.[0 .. stop-1]], in order; returns where
   the first incomplete line starts ([stop] if there is none). *)
let iter_lines b stop f =
  let rec go start i =
    if i >= stop then start
    else if Bytes.unsafe_get b i = '\n' then begin
      f (Bytes.sub_string b start (i - start));
      go (i + 1) (i + 1)
    end
    else go start (i + 1)
  in
  go 0 0

(* ------------------------------------------------------------------ *)
(* Client plumbing. A send that fails (EPIPE, send-timeout on a stuck
   subscriber) drops the client; it must never take the daemon down.    *)

let drop_client t c =
  if c.c_alive then begin
    c.c_alive <- false;
    (try Unix.close c.c_fd with Unix.Unix_error _ -> ());
    t.clients <- List.filter (fun c' -> c' != c) t.clients;
    Hashtbl.iter
      (fun _ job -> job.j_watchers <- List.filter (fun (w, _) -> w != c) job.j_watchers)
      t.jobs
  end

let guarded t c f =
  if c.c_alive then
    try f c.c_fd
    with Unix.Unix_error _ | Sys_error _ ->
      logf t "dropping unresponsive client";
      drop_client t c

let send t c msg = guarded t c (fun fd -> Worker.send fd (P.message_to_json msg))

(* Frames are coalesced into writes of about this size. *)
let write_size = 65536

let add_event out line = Worker.add_frame out (P.message_to_json (P.Event line))

(* Replay [job]'s backlog to [c]: an Event frame per complete line of
   <id>.events, in order, in writes of about [write_size] bytes. *)
let replay_backlog t c job =
  match Unix.openfile (spool_path t job.j_id ".events") [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
    let out = Buffer.create (2 * write_size) in
    let flush () =
      guarded t c (fun fd -> Worker.write_string fd (Buffer.contents out));
      Buffer.clear out
    in
    let rec go data len =
      let data =
        if len < Bytes.length data then data
        else Bytes.extend data 0 (Bytes.length data)  (* one line fills it *)
      in
      match Retry.eintr (fun () -> Unix.read fd data len (Bytes.length data - len)) with
      | 0 -> ()
      | exception Unix.Unix_error (e, _, _) ->
        logf t "job %s: event backlog unreadable: %s" job.j_id (Unix.error_message e)
      | n ->
        let stop = len + n in
        let rest =
          iter_lines data stop (fun line ->
              add_event out line;
              if Buffer.length out >= write_size then flush ())
        in
        Bytes.blit data rest data 0 (stop - rest);
        if c.c_alive then go data (stop - rest)
    in
    go (Bytes.create write_size) 0;
    if Buffer.length out > 0 then flush ()

let job_info (job : job) =
  { P.ji_id = job.j_id;
    ji_program = job.j_program;
    ji_state = job.j_state;
    ji_priority = job.j_priority;
    ji_attempts = job.j_attempts;
    ji_subscribers = List.length job.j_watchers;
    ji_verdict =
      (match job.j_result with
       | Some (P.Job_done d) -> Some d.verdict
       | _ -> (match job.j_failure with Some _ -> Some "failed" | None -> None)) }

(* ------------------------------------------------------------------ *)
(* The runner child: resolve, resume from the spooled checkpoint if one
   fits, run the checker with an event stream that ships every NDJSON
   line up the pipe, and finish with one done/failed frame. The report a
   subscriber receives is built exactly as `chess check` builds it —
   same Report.pp rendering, same Report.to_json document over the
   spec's config (which carries none of the daemon's plumbing), so the
   two are byte-identical up to wall-clock timing fields.               *)

let runner_child t job wfd =
  let send_r m = Worker.send wfd (P.runner_to_json m) in
  match Jobspec.resolve job.j_spec with
  | Error e -> send_r (P.R_failed e)
  | Ok (program, lint) ->
    let base = Jobspec.to_config job.j_spec in
    let ckpt = spool_path t job.j_id ".ckpt" in
    (* Event lines go up the pipe in raw chunks (see Events.create); the
       final frame follows the last of them. *)
    let stream = Events.create ~write:(Worker.send_raw wfd) ~chunked:true () in
    let cfg = { base with C.checkpoint = Some ckpt; events = Some stream } in
    let resume =
      if Sys.file_exists ckpt then
        match Checkpoint.load ckpt with
        | Error _ -> None  (* corrupt or foreign: start over *)
        | Ok c ->
          (match Checkpoint.plan_resume c cfg ~program:program.Program.name with
           | Ok payload -> Some payload
           | Error _ -> None)
      else None
    in
    let result =
      try
        let report = Checker.check ~config:cfg ?resume program in
        P.R_done
          { verdict = Report.verdict_key report.Report.verdict;
            found_error = Report.found_error report;
            interrupted = Checkpoint.interrupted ();
            rendered = Format.asprintf "%a" Report.pp report;
            report =
              Report.to_json ~program:program.Program.name ~config:(C.describe base)
                ?lint report }
      with e -> P.R_failed (Printexc.to_string e)
    in
    Events.sync stream;
    send_r result

let spawn_runner t job =
  let rfd, wfd = Unix.pipe () in
  (* SIGTERM and SIGINT wait, blocked, until the child has the checkpoint
     layer's graceful handlers: one delivered before would run the
     daemon's handler in the child, and the runner would never stop. *)
  let mask = Unix.sigprocmask Unix.SIG_BLOCK [ Sys.sigterm; Sys.sigint ] in
  match Unix.fork () with
  | exception e ->
    ignore (Unix.sigprocmask Unix.SIG_SETMASK mask);
    raise e
  | 0 ->
    Checkpoint.install_signal_handlers ();
    ignore (Unix.sigprocmask Unix.SIG_SETMASK mask);
    (* Child: drop every daemon fd, run. *)
    Unix.close rfd;
    (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
    List.iter (fun c -> try Unix.close c.c_fd with Unix.Unix_error _ -> ()) t.clients;
    List.iter
      (fun r ->
        (try Unix.close r.r_fd with Unix.Unix_error _ -> ());
        close_backlog r)
      t.runners;
    (try runner_child t job wfd
     with e -> (
       try Worker.send wfd (P.runner_to_json (P.R_failed (Printexc.to_string e)))
       with _ -> ()));
    (try Unix.close wfd with Unix.Unix_error _ -> ());
    Stdlib.exit 0
  | pid ->
    ignore (Unix.sigprocmask Unix.SIG_SETMASK mask);
    Unix.close wfd;
    job.j_state <- P.Running;
    t.runners <-
      { r_pid = pid; r_fd = rfd; r_buf = Worker.inbuf (); r_job = job;
        r_backlog = open_backlog t job; r_finished = false }
      :: t.runners;
    logf t "job %s: runner pid %d started (attempt %d)" job.j_id pid
      (job.j_attempts + 1)

(* Highest priority first; FIFO within a band. *)
let schedule t =
  if not t.stop then
    while
      List.length t.runners < t.cfg.max_jobs
      && t.queue <> []
      &&
      (let best =
         List.fold_left
           (fun acc j ->
             match acc with
             | None -> Some j
             | Some b ->
               if j.j_priority > b.j_priority
                  || (j.j_priority = b.j_priority && j.j_seq < b.j_seq)
               then Some j
               else acc)
           None t.queue
       in
       match best with
       | None -> false
       | Some job ->
         t.queue <- List.filter (fun j -> j != job) t.queue;
         spawn_runner t job;
         true)
    do
      ()
    done

(* ------------------------------------------------------------------ *)
(* Job lifecycle.                                                      *)

let requeue t job =
  job.j_state <- P.Queued;
  if not (List.memq job t.queue) then t.queue <- job :: t.queue

let finish_failed t job reason =
  job.j_state <- P.Failed;
  job.j_failure <- Some reason;
  logf t "job %s: failed: %s" job.j_id reason;
  List.iter (fun (c, _) -> send t c (P.Error_msg reason)) job.j_watchers;
  job.j_watchers <- []

let finish_done t job (d : P.runner_msg) =
  match d with
  | P.R_done r ->
    let msg =
      P.Job_done
        { job = job.j_id; verdict = r.verdict; found_error = r.found_error;
          interrupted = false; rendered = r.rendered; report = r.report }
    in
    job.j_state <- P.Done;
    job.j_result <- Some msg;
    (try save_report t job (P.message_to_json msg)
     with e -> logf t "job %s: cannot spool report: %s" job.j_id (Printexc.to_string e));
    remove_file (spool_path t job.j_id ".ckpt");
    logf t "job %s: done (%s)" job.j_id r.verdict;
    List.iter (fun (c, _) -> send t c msg) job.j_watchers;
    job.j_watchers <- []
  | _ -> assert false

let finish_cancelled t job =
  job.j_state <- P.Failed;
  job.j_failure <- Some "cancelled";
  logf t "job %s: cancelled" job.j_id;
  List.iter (fun (c, _) -> send t c (P.Cancelled { job = job.j_id })) job.j_watchers;
  job.j_watchers <- []

(* A runner that ends without a result ends a cancelled job: retrying it
   would run the search the client called off. *)
let runner_attempt_failed t job reason =
  job.j_attempts <- job.j_attempts + 1;
  if job.j_cancelled then finish_cancelled t job
  else if job.j_attempts >= t.cfg.max_attempts then finish_failed t job reason
  else begin
    logf t "job %s: attempt %d failed (%s); requeueing" job.j_id job.j_attempts reason;
    requeue t job
  end

(* A chunk of event lines from a runner: spooled as well as broadcast, so
   a watcher that subscribes after the runner started (or after it
   finished, or after a restart) still gets the stream from its first
   line — the complete slice a direct run would write. Only the live
   event watchers make the daemon split it into lines. *)
let runner_events t r chunk =
  (try Option.iter (fun fd -> Worker.write_string fd chunk) r.r_backlog
   with (Unix.Unix_error _ | Sys_error _) as e ->
     logf t "job %s: cannot append to the event backlog: %s" r.r_job.j_id
       (Printexc.to_string e));
  match List.filter snd r.r_job.j_watchers with
  | [] -> ()
  | watchers ->
    let out = Buffer.create (2 * String.length chunk) in
    ignore
      (iter_lines (Bytes.unsafe_of_string chunk) (String.length chunk) (add_event out));
    let frames = Buffer.contents out in
    List.iter (fun (c, _) -> guarded t c (fun fd -> Worker.write_string fd frames)) watchers

let handle_runner_msg t r = function
  | P.R_done d when d.interrupted ->
    (* The runner checkpointed and stopped early: a cancel, or someone
       signalled it directly. Either way the .ckpt carries the progress. *)
    r.r_finished <- true;
    if r.r_job.j_cancelled then finish_cancelled t r.r_job
    else begin
      logf t "job %s: runner interrupted; requeueing from checkpoint" r.r_job.j_id;
      requeue t r.r_job
    end
  | P.R_done _ as d ->
    r.r_finished <- true;
    finish_done t r.r_job d
  | P.R_failed e ->
    r.r_finished <- true;
    runner_attempt_failed t r.r_job e

let close_runner t r =
  (try Unix.close r.r_fd with Unix.Unix_error _ -> ());
  close_backlog r;
  t.runners <- List.filter (fun r' -> r' != r) t.runners;
  (try ignore (Unix.waitpid [] r.r_pid) with Unix.Unix_error _ -> ());
  if not r.r_finished then
    (* Died without a final frame: crash or kill. The checkpoint (if the
       runner got far enough to write one) limits the rework on retry. *)
    runner_attempt_failed t r.r_job "runner exited without a result"

let handle_runner_readable t r =
  let protocol_error what e =
    logf t "job %s: runner %s error: %s" r.r_job.j_id what e;
    (try Unix.kill r.r_pid Sys.sigkill with Unix.Unix_error _ -> ());
    close_runner t r
  in
  match Worker.feed r.r_buf r.r_fd with
  | `Eof -> close_runner t r
  | `Data _ ->
    let rec drain () =
      match Worker.extract r.r_buf with
      | Ok None -> ()
      | Ok (Some (Worker.Raw chunk)) ->
        (* Whole lines only, so the backlog never holds a partial one. *)
        if chunk = "" || chunk.[String.length chunk - 1] <> '\n' then
          protocol_error "protocol" "event chunk does not end a line"
        else begin
          runner_events t r chunk;
          drain ()
        end
      | Ok (Some (Worker.Json frame)) ->
        (match P.runner_of_json frame with
         | msg -> handle_runner_msg t r msg
         | exception CK.Parse e -> protocol_error "protocol" e);
        if List.memq r t.runners then drain ()
      | Error e -> protocol_error "framing" e
    in
    drain ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

(* ------------------------------------------------------------------ *)
(* Requests.                                                           *)

let submit t c (spec : Jobspec.t) priority =
  match Jobspec.validate spec with
  | Error e -> send t c (P.Error_msg e)
  | Ok () ->
    (match Jobspec.resolve spec with
     | Error e -> send t c (P.Error_msg e)
     | Ok (program, _lint) ->
       let program_name = program.Program.name in
       let id = Jobspec.id spec ~program_name in
       (match Hashtbl.find_opt t.jobs id with
        | Some job ->
          (* Dedup: same fingerprint = same search. A resubmission of a
             failed job gets a fresh budget of attempts. *)
          if job.j_state = P.Failed then begin
            job.j_failure <- None;
            job.j_attempts <- 0;
            job.j_cancelled <- false;
            requeue t job;
            schedule t
          end;
          send t c (P.Submitted { job = id; state = job.j_state; deduped = true })
        | None ->
          let job =
            { j_id = id; j_spec = spec; j_program = program_name; j_seq = t.seq;
              j_priority = priority; j_state = P.Queued; j_attempts = 0;
              j_cancelled = false; j_watchers = []; j_result = None;
              j_failure = None }
          in
          t.seq <- t.seq + 1;
          Hashtbl.replace t.jobs id job;
          (try save_job t job
           with e -> logf t "job %s: cannot spool: %s" id (Printexc.to_string e));
          t.queue <- job :: t.queue;
          logf t "job %s: submitted (%s, priority %d)" id program_name priority;
          send t c (P.Submitted { job = id; state = P.Queued; deduped = false });
          schedule t))

let watch t c id events =
  match Hashtbl.find_opt t.jobs id with
  | None -> send t c (P.Error_msg (Printf.sprintf "unknown job %S" id))
  | Some job ->
    send t c (P.Watching { job = id; state = job.j_state });
    if events then replay_backlog t c job;
    (match (job.j_state, job.j_result, job.j_failure) with
     | P.Done, Some msg, _ -> send t c msg
     | P.Failed, _, Some reason -> send t c (P.Error_msg reason)
     | _ -> job.j_watchers <- (c, events) :: job.j_watchers)

let cancel t c id =
  match Hashtbl.find_opt t.jobs id with
  | None -> send t c (P.Error_msg (Printf.sprintf "unknown job %S" id))
  | Some job ->
    (match job.j_state with
     | P.Queued ->
       t.queue <- List.filter (fun j -> j != job) t.queue;
       finish_cancelled t job;
       send t c (P.Cancelled { job = id })
     | P.Running ->
       job.j_cancelled <- true;
       List.iter
         (fun r ->
           if r.r_job == job then
             try Unix.kill r.r_pid Sys.sigterm with Unix.Unix_error _ -> ())
         t.runners;
       send t c (P.Cancelled { job = id })
     | P.Done | P.Failed -> send t c (P.Cancelled { job = id }))

let handle_request t c = function
  | P.Hello ->
    send t c (P.Hello_ok { pid = Unix.getpid (); version = "1.0.0" })
  | P.Submit { spec; priority } -> submit t c spec priority
  | P.Jobs ->
    let all = Hashtbl.fold (fun _ j acc -> j :: acc) t.jobs [] in
    let all = List.sort (fun a b -> compare a.j_seq b.j_seq) all in
    send t c (P.Job_list (List.map job_info all))
  | P.Status id ->
    (match Hashtbl.find_opt t.jobs id with
     | Some job -> send t c (P.Job_status (job_info job))
     | None -> send t c (P.Error_msg (Printf.sprintf "unknown job %S" id)))
  | P.Watch { job; events } -> watch t c job events
  | P.Cancel id -> cancel t c id
  | P.Shutdown ->
    logf t "shutdown requested";
    send t c P.Bye;
    t.stop <- true

let handle_client_readable t c =
  match Worker.feed c.c_buf c.c_fd with
  | `Eof -> drop_client t c
  | `Data _ ->
    let rec drain () =
      if c.c_alive then
        match Worker.extract c.c_buf with
        | Ok None -> ()
        | Ok (Some (Worker.Raw _)) ->
          send t c (P.Error_msg "bad frame: unexpected raw frame");
          drop_client t c
        | Ok (Some (Worker.Json frame)) ->
          (match P.request_of_json frame with
           | req -> handle_request t c req
           | exception CK.Parse e ->
             (* A malformed request costs the sender its connection, never
                the daemon. *)
             send t c (P.Error_msg ("bad request: " ^ e));
             drop_client t c);
          drain ()
        | Error e ->
          send t c (P.Error_msg ("bad frame: " ^ e));
          drop_client t c
    in
    drain ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let accept_client t =
  match Unix.accept t.listen_fd with
  | fd, _ ->
    (* A subscriber that stops reading must not wedge the select loop: a
       bounded send either completes or costs that client its slot. *)
    (try Unix.setsockopt_float fd Unix.SO_SNDTIMEO 5.0
     with Unix.Unix_error _ | Invalid_argument _ -> ());
    t.clients <- { c_fd = fd; c_buf = Worker.inbuf (); c_alive = true } :: t.clients
  | exception Unix.Unix_error ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
    ()

(* ------------------------------------------------------------------ *)
(* Startup / shutdown.                                                 *)

let scan_spool t =
  match Sys.readdir t.cfg.spool with
  | exception Sys_error _ -> ()
  | entries ->
    Array.sort compare entries;
    Array.iter
      (fun entry ->
        if Filename.check_suffix entry ".job" then begin
          let id = Filename.chop_suffix entry ".job" in
          match read_spool (Filename.concat t.cfg.spool entry) with
          | Error e -> logf t "spool %s: unreadable: %s" entry e
          | Ok doc ->
            (match
               (Jobspec.of_json (CK.field doc "spec"), CK.int_f doc "priority")
             with
             | exception CK.Parse e -> logf t "spool %s: malformed: %s" entry e
             | spec, priority ->
               (* Validated again: the spool may predate a bound. *)
               (match Result.bind (Jobspec.validate spec) (fun () -> Jobspec.resolve spec) with
                | Error e -> logf t "spool %s: refused: %s" entry e
                | Ok (program, _) ->
                  let job =
                    { j_id = id; j_spec = spec; j_program = program.Program.name;
                      j_seq = t.seq; j_priority = priority; j_state = P.Queued;
                      j_attempts = 0; j_cancelled = false; j_watchers = [];
                      j_result = None; j_failure = None }
                  in
                  t.seq <- t.seq + 1;
                  Hashtbl.replace t.jobs id job;
                  let report_file = spool_path t id ".report" in
                  (match read_spool report_file with
                   | Ok doc ->
                     (match P.message_of_json doc with
                      | P.Job_done _ as msg ->
                        job.j_state <- P.Done;
                        job.j_result <- Some msg;
                        logf t "job %s: restored (done)" id
                      | _ | (exception CK.Parse _) ->
                        remove_file report_file;
                        t.queue <- job :: t.queue;
                        logf t "job %s: restored report unreadable; requeued" id)
                   | Error _ ->
                     (* No (readable) report: unfinished. The runner will
                        resume from the .ckpt if one was flushed. *)
                     t.queue <- job :: t.queue;
                     logf t "job %s: restored (queued%s)" id
                       (if Sys.file_exists (spool_path t id ".ckpt") then
                          ", will resume from checkpoint"
                        else ""))))
        end)
      entries

let shutdown t =
  logf t "stopping: %d runner(s), %d client(s)" (List.length t.runners)
    (List.length t.clients);
  (* Runners get the graceful treatment: SIGTERM reaches the checkpoint
     layer's handler, the search flushes a final .ckpt and exits; restart
     picks every unfinished job up from there. *)
  List.iter
    (fun r -> try Unix.kill r.r_pid Sys.sigterm with Unix.Unix_error _ -> ())
    t.runners;
  (* Read each runner to EOF, so its last event chunks reach the backlog;
     close_runner reaps it. *)
  List.iter
    (fun r ->
      let rec drain () =
        if List.memq r t.runners then
          match handle_runner_readable t r with
          | () -> drain ()
          | exception Unix.Unix_error _ -> close_runner t r
      in
      drain ())
    t.runners;
  t.runners <- [];
  List.iter (fun c -> send t c P.Bye) (List.filter (fun c -> c.c_alive) t.clients);
  List.iter (fun c -> try Unix.close c.c_fd with Unix.Unix_error _ -> ()) t.clients;
  t.clients <- [];
  (try Unix.close t.listen_fd with Unix.Unix_error _ -> ());
  remove_file t.cfg.socket

let rec loop t =
  if t.stop then shutdown t
  else begin
    schedule t;
    let fds =
      (t.listen_fd :: List.map (fun c -> c.c_fd) t.clients)
      @ List.map (fun r -> r.r_fd) t.runners
    in
    (match Unix.select fds [] [] 0.5 with
     | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
     | ready, _, _ ->
       List.iter
         (fun fd ->
           if fd = t.listen_fd then accept_client t
           else
             match List.find_opt (fun r -> r.r_fd = fd) t.runners with
             | Some r -> handle_runner_readable t r
             | None ->
               (match
                  List.find_opt (fun c -> c.c_alive && c.c_fd = fd) t.clients
                with
                | Some c -> handle_client_readable t c
                | None -> ()))
         ready);
    loop t
  end

(* The listening socket, published at [path] only once it listens: bound
   under a staging name in the same directory and renamed into place, so a
   client that sees the path is never refused. A staging name too long for
   a socket address binds [path] itself. *)
let listen_at path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let staging =
    Filename.concat (Filename.dirname path)
      (Printf.sprintf ".%s.%d" (Filename.basename path) (Unix.getpid ()))
  in
  (try Unix.unlink staging with Unix.Unix_error _ -> ());
  (match Unix.bind fd (Unix.ADDR_UNIX staging) with
   | () ->
     Unix.listen fd 64;
     Unix.rename staging path
   | exception Unix.Unix_error (Unix.ENAMETOOLONG, _, _) ->
     Unix.bind fd (Unix.ADDR_UNIX path);
     Unix.listen fd 64);
  fd

let run cfg =
  (* Clients come and go mid-write; the daemon must outlive every broken
     pipe. Writes surface EPIPE as an exception instead. *)
  let prev_sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore) with Invalid_argument _ -> None
  in
  Fun.protect
    ~finally:(fun () ->
      match prev_sigpipe with
      | Some h -> (try Sys.set_signal Sys.sigpipe h with Invalid_argument _ -> ())
      | None -> ())
  @@ fun () ->
  if not (Sys.file_exists cfg.spool) then Unix.mkdir cfg.spool 0o755;
  if Sys.file_exists cfg.socket then Sys.remove cfg.socket;
  let listen_fd = listen_at cfg.socket in
  let t =
    { cfg; listen_fd; jobs = Hashtbl.create 64; queue = []; clients = [];
      runners = []; seq = 0; stop = false }
  in
  let stop_signal _ = t.stop <- true in
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_signal)
   with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle stop_signal)
   with Invalid_argument _ -> ());
  scan_spool t;
  logf t "listening on %s (spool %s, %d restored job(s))" cfg.socket cfg.spool
    (Hashtbl.length t.jobs);
  Fun.protect ~finally:(fun () -> if Sys.file_exists cfg.socket then remove_file cfg.socket)
  @@ fun () -> loop t
