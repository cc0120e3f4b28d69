(* chessd: the checking-as-a-service daemon. See daemon.mli.

   One single-threaded select loop owns everything: the Unix-domain listen
   socket, every client connection, and the worker pipes of every running
   job. Each job's search is a {!Fairmc_core.Supervisor.t} that the loop
   steps, on worker processes forked for that job. A job's event lines
   never live in the daemon's heap: they go from its stream to the spool
   and to the subscribers watching at that moment. Nor does a finished
   job's report, which lives in the spool. *)

module J = Fairmc_util.Json
module CK = Fairmc_core.Checkpoint.Codec
module Checkpoint = Fairmc_core.Checkpoint
module C = Fairmc_core.Search_config
module Program = Fairmc_core.Program
module Retry = Fairmc_util.Retry
module Report = Fairmc_core.Report
module Supervisor = Fairmc_core.Supervisor
module Worker = Fairmc_core.Worker
module Events = Fairmc_obs.Events
module Clock = Fairmc_obs.Clock
module P = Protocol

type config = {
  socket : string;
  spool : string;
  max_jobs : int;
  quiet : bool;
}

let default_config =
  { socket = "chessd.sock"; spool = "chessd-spool"; max_jobs = 1; quiet = false }

(* ------------------------------------------------------------------ *)
(* State.                                                              *)

type client = {
  c_fd : Unix.file_descr;
  c_buf : Worker.inbuf;
  mutable c_alive : bool;
}

(* A running job's search, its event stream and its backlog file. *)
type run = {
  r_sup : Supervisor.t;
  r_events : Events.stream;
  r_backlog : Unix.file_descr option;  (* <id>.events, opened for appending *)
  r_lint : J.t option;  (* the program's lint summary, for the report *)
}

type job = {
  j_id : string;
  j_spec : Jobspec.t;
  j_program : string;  (* resolved Program.t name, the fingerprint basis *)
  j_seq : int;  (* FIFO tiebreak within a priority band *)
  mutable j_priority : int;
  mutable j_state : P.job_state;
  mutable j_attempts : int;  (* starts *)
  mutable j_resolved : (Program.t * J.t option) option;
      (* the program and its lint summary, while queued; a running job's
         supervisor holds them *)
  mutable j_run : run option;  (* while running *)
  mutable j_watchers : (client * bool) list;  (* client, wants event frames *)
  mutable j_verdict : string option;  (* once done; the report is spooled *)
  mutable j_failure : string option;
}

type t = {
  cfg : config;
  listen_fd : Unix.file_descr;
  jobs : (string, job) Hashtbl.t;
  mutable queue : job list;  (* queued, unsorted; scheduler picks best *)
  mutable clients : client list;
  mutable running : job list;
  mutable seq : int;
  mutable stop : bool;
}

let logf t fmt =
  Printf.ksprintf
    (fun s -> if not t.cfg.quiet then Printf.eprintf "[chessd] %s\n%!" s)
    fmt

(* ------------------------------------------------------------------ *)
(* Spool: <id>.job is the submission, <id>.ckpt the search checkpoint
   the job's supervisor maintains, <id>.report the finished result,
   <id>.events the event backlog. A .job with no .report is unfinished
   work; restart requeues it and the search resumes from the .ckpt, which
   is what makes SIGTERM survivable.                                     *)

let spool_path t id ext = Filename.concat t.cfg.spool (id ^ ext)

let spool_schema = "fairmc-spool/1"

(* The checkpoint files' durability discipline: data reaches the disk
   before the rename publishes it, and the directory entry is synced so a
   crash cannot leave a published-but-empty file. *)
let write_spool path text =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let oc = Out_channel.open_bin tmp in
  Fun.protect
    ~finally:(fun () -> Out_channel.close oc)
    (fun () ->
      Out_channel.output_string oc text;
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
    (J.to_string ~pretty:true
       (J.Obj
          [ ("schema", J.Str spool_schema);
            ("spec", Jobspec.to_json job.j_spec);
            ("priority", J.Int job.j_priority) ])
    ^ "\n")

let remove_file path = try Sys.remove path with Sys_error _ -> ()
let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* A finished job's <id>.report is its Job_done frame's payload, spooled
   as sent and sent as spooled, so the daemon holds no report. It begins
   as [P.message_to_json] renders a Job_done (message, job, verdict), so a
   restart reads the verdict from its first bytes. *)
let report_head id =
  let s = J.to_string (J.Obj [ ("msg", J.Str "done"); ("job", J.Str id); ("verdict", J.Str "") ]) in
  String.sub s 0 (String.length s - 2)  (* up to the verdict's opening quote *)

let spooled_verdict t id =
  let head = report_head id in
  match
    In_channel.with_open_bin (spool_path t id ".report") (fun ic ->
        In_channel.really_input_string ic (String.length head + 64))
  with
  | Some s when String.starts_with ~prefix:head s ->
    let from = String.length head in
    Option.map (fun q -> String.sub s from (q - from)) (String.index_from_opt s from '"')
  | Some _ | None | (exception Sys_error _) -> None

(* The event backlog is appended to as the job's chunks arrive, one write
   each, and never fsync'd: it is a record for late subscribers, not state
   a restart depends on. A later start of the job appends to the same
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
    close_quietly c.c_fd;
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
      (match (job.j_verdict, job.j_failure) with
       | (Some _ as v), _ -> v
       | None, Some _ -> Some "failed"
       | None, None -> None) }

(* ------------------------------------------------------------------ *)
(* Job lifecycle.                                                      *)

let requeue t job =
  job.j_state <- P.Queued;
  if not (List.memq job t.queue) then t.queue <- job :: t.queue

let end_run t job run =
  Events.sync run.r_events;
  Option.iter close_quietly run.r_backlog;
  job.j_run <- None;
  t.running <- List.filter (fun j -> j != job) t.running

(* Stop a running job's search where it is: its workers are killed and its
   regions go to <id>.ckpt, which a later start resumes from. *)
let stop_run t job =
  Option.iter
    (fun run ->
      (try ignore (Supervisor.stop run.r_sup)
       with e -> logf t "job %s: stopping: %s" job.j_id (Printexc.to_string e));
      end_run t job run)
    job.j_run

let finish_failed t job reason =
  job.j_state <- P.Failed;
  job.j_failure <- Some reason;
  logf t "job %s: failed: %s" job.j_id reason;
  List.iter (fun (c, _) -> send t c (P.Error_msg reason)) job.j_watchers;
  job.j_watchers <- []

let finish_cancelled t job =
  job.j_state <- P.Failed;
  job.j_failure <- Some "cancelled";
  job.j_resolved <- None;
  logf t "job %s: cancelled" job.j_id;
  List.iter (fun (c, _) -> send t c (P.Cancelled { job = job.j_id })) job.j_watchers;
  job.j_watchers <- []

(* The report is built exactly as `chess check` builds it: the same
   Report.pp rendering, the same Report.to_json document over the spec's
   config (which carries none of the daemon's plumbing), so the two are
   byte-identical up to wall-clock timing fields. It reaches the spool
   before any watcher. *)
let finish_done t job run (report : Report.t) =
  end_run t job run;
  let verdict = Report.verdict_key report.Report.verdict in
  let text =
    J.to_string
      (P.message_to_json
         (P.Job_done
            { job = job.j_id;
              verdict;
              found_error = Report.found_error report;
              interrupted = false;
              rendered = Format.asprintf "%a" Report.pp report;
              report =
                Report.to_json ~program:job.j_program
                  ~config:(C.describe (Jobspec.to_config job.j_spec))
                  ?lint:run.r_lint report }))
  in
  (try write_spool (spool_path t job.j_id ".report") text
   with e -> logf t "job %s: cannot spool report: %s" job.j_id (Printexc.to_string e));
  remove_file (spool_path t job.j_id ".ckpt");
  job.j_state <- P.Done;
  job.j_verdict <- Some verdict;
  logf t "job %s: done (%s)" job.j_id verdict;
  List.iter (fun (c, _) -> guarded t c (fun fd -> Worker.send_text fd text)) job.j_watchers;
  job.j_watchers <- []

(* A chunk of a running job's event lines: spooled as well as broadcast,
   so a watcher that subscribes later (after the job finished, or after a
   restart) still gets the stream from its first line — the complete
   slice a direct run would write. Only the live event watchers make the
   daemon split it into lines. *)
let job_events t job backlog chunk =
  (try Option.iter (fun fd -> Worker.write_string fd chunk) backlog
   with (Unix.Unix_error _ | Sys_error _) as e ->
     logf t "job %s: cannot append to the event backlog: %s" job.j_id (Printexc.to_string e));
  match List.filter snd job.j_watchers with
  | [] -> ()
  | watchers ->
    let out = Buffer.create (2 * String.length chunk) in
    ignore (iter_lines (Bytes.unsafe_of_string chunk) (String.length chunk) (add_event out));
    let frames = Buffer.contents out in
    List.iter (fun (c, _) -> guarded t c (fun fd -> Worker.write_string fd frames)) watchers

(* The daemon's own descriptors, which a worker it forks closes. Other
   jobs' worker pipes the supervisors close themselves. *)
let held_fds t =
  (t.listen_fd :: List.map (fun c -> c.c_fd) t.clients)
  @ List.concat_map
      (fun j -> match j.j_run with Some r -> Option.to_list r.r_backlog | None -> [])
      t.running

(* Start a queued job: resume from the spooled checkpoint if one fits, and
   run the search on worker processes forked for it. *)
let start_job t job =
  job.j_attempts <- job.j_attempts + 1;
  match job.j_resolved with
  | None -> finish_failed t job "the job's program is not resolved"
  | Some (program, lint) ->
    job.j_resolved <- None;
    let ckpt = spool_path t job.j_id ".ckpt" in
    let backlog = open_backlog t job in
    let events = Events.create ~write:(job_events t job backlog) ~chunked:true () in
    let cfg = { (Jobspec.to_config job.j_spec) with C.checkpoint = Some ckpt; events = Some events } in
    let resume =
      match Checkpoint.load ckpt with
      | Error _ -> None (* none, corrupt or foreign: start over *)
      | Ok c -> Result.to_option (Checkpoint.plan_resume c cfg ~program:program.Program.name)
    in
    (match
       Supervisor.start ?resume ~inherited:(fun () -> Option.to_list backlog @ held_fds t) cfg
         program
     with
     | sup ->
       job.j_state <- P.Running;
       job.j_run <- Some { r_sup = sup; r_events = events; r_backlog = backlog; r_lint = lint };
       t.running <- job :: t.running;
       logf t "job %s: started (start %d%s)" job.j_id job.j_attempts
         (if resume = None then "" else ", resuming from its checkpoint")
     | exception e ->
       Option.iter close_quietly backlog;
       finish_failed t job (Printexc.to_string e))

(* Highest priority first; FIFO within a band. *)
let schedule t =
  if not t.stop then
    while
      List.length t.running < t.cfg.max_jobs
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
         start_job t job;
         true)
    do
      ()
    done

(* A turn of a running job's search. An exception fails that job, never
   the daemon. *)
let drive t job ready =
  Option.iter
    (fun run ->
      match Supervisor.step run.r_sup ready with
      | None -> ()
      | Some report -> finish_done t job run report
      | exception e ->
        stop_run t job;
        finish_failed t job (Printexc.to_string e))
    job.j_run

(* A done job's report that cannot be read runs the job again, as a
   restart does. *)
let rerun t job =
  match Jobspec.resolve job.j_spec with
  | Error e -> finish_failed t job e
  | Ok resolved ->
    job.j_resolved <- Some resolved;
    job.j_verdict <- None;
    requeue t job;
    schedule t

(* ------------------------------------------------------------------ *)
(* Requests.                                                           *)

let submit t c (spec : Jobspec.t) priority =
  match Jobspec.validate spec with
  | Error e -> send t c (P.Error_msg e)
  | Ok () ->
    (match Jobspec.resolve spec with
     | Error e -> send t c (P.Error_msg e)
     | Ok ((program, _) as resolved) ->
       let program_name = program.Program.name in
       let id = Jobspec.id spec ~program_name in
       (match Hashtbl.find_opt t.jobs id with
        | Some job ->
          (* Dedup: same fingerprint = same search. A resubmission of a
             failed or cancelled job runs it again. *)
          if job.j_state = P.Failed then begin
            job.j_failure <- None;
            job.j_resolved <- Some resolved;
            requeue t job;
            schedule t
          end;
          send t c (P.Submitted { job = id; state = job.j_state; deduped = true })
        | None ->
          let job =
            { j_id = id; j_spec = spec; j_program = program_name; j_seq = t.seq;
              j_priority = priority; j_state = P.Queued; j_attempts = 0;
              j_resolved = Some resolved; j_run = None; j_watchers = [];
              j_verdict = None; j_failure = None }
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
    (match (job.j_state, job.j_failure) with
     | P.Done, _ ->
       (match In_channel.with_open_bin (spool_path t id ".report") In_channel.input_all with
        | text -> guarded t c (fun fd -> Worker.send_text fd text)
        | exception Sys_error e ->
          logf t "job %s: report unreadable (%s); requeued" id e;
          job.j_watchers <- (c, events) :: job.j_watchers;
          rerun t job)
     | P.Failed, Some reason -> send t c (P.Error_msg reason)
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
       stop_run t job;
       finish_cancelled t job;
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
        | Ok (Some frame) ->
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
                | Ok ((program, _) as resolved) ->
                  let job =
                    { j_id = id; j_spec = spec; j_program = program.Program.name;
                      j_seq = t.seq; j_priority = priority; j_state = P.Queued;
                      j_attempts = 0; j_resolved = None; j_run = None; j_watchers = [];
                      j_verdict = None; j_failure = None }
                  in
                  t.seq <- t.seq + 1;
                  Hashtbl.replace t.jobs id job;
                  let report_file = spool_path t id ".report" in
                  (match spooled_verdict t id with
                   | Some verdict ->
                     job.j_state <- P.Done;
                     job.j_verdict <- Some verdict;
                     logf t "job %s: restored (done)" id
                   | None ->
                     (* No (readable) report: unfinished. The search will
                        resume from the .ckpt if one was flushed. *)
                     job.j_resolved <- Some resolved;
                     t.queue <- job :: t.queue;
                     if Sys.file_exists report_file then begin
                       remove_file report_file;
                       logf t "job %s: restored report unreadable; requeued" id
                     end
                     else
                       logf t "job %s: restored (queued%s)" id
                         (if Sys.file_exists (spool_path t id ".ckpt") then
                            ", will resume from checkpoint"
                          else ""))))
        end)
      entries

let shutdown t =
  logf t "stopping: %d job(s) running, %d client(s)" (List.length t.running)
    (List.length t.clients);
  (* Each running search stops where it is: its workers are killed and its
     regions go to <id>.ckpt, so a restart picks the job up from there. *)
  List.iter (stop_run t) t.running;
  List.iter (fun c -> send t c P.Bye) (List.filter (fun c -> c.c_alive) t.clients);
  List.iter (fun c -> close_quietly c.c_fd) t.clients;
  t.clients <- [];
  close_quietly t.listen_fd;
  remove_file t.cfg.socket

let rec loop t =
  if t.stop then shutdown t
  else begin
    schedule t;
    let sups = List.filter_map (fun j -> Option.map (fun r -> (j, r.r_sup)) j.j_run) t.running in
    let fds =
      (t.listen_fd :: List.map (fun c -> c.c_fd) t.clients)
      @ List.concat_map (fun (_, sup) -> Supervisor.fds sup) sups
    in
    let wait =
      List.fold_left
        (fun acc (_, sup) -> Float.min acc (Supervisor.next_turn sup -. Clock.now ()))
        0.5 sups
    in
    (match Unix.select fds [] [] (Float.max 0. wait) with
     | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
     | ready, _, _ ->
       (* Every job's share of the ready descriptors is taken before any
          job has its turn: a turn closes pipes, and forks workers whose
          pipes may reuse the numbers. *)
       let turns =
         List.map
           (fun (job, sup) -> (job, sup, List.filter (fun fd -> List.mem fd ready) (Supervisor.fds sup)))
           sups
       in
       let now = Clock.now () in
       List.iter
         (fun (job, sup, mine) -> if mine <> [] || Supervisor.next_turn sup <= now then drive t job mine)
         turns;
       List.iter
         (fun fd ->
           match List.find_opt (fun c -> c.c_alive && c.c_fd = fd) t.clients with
           | Some c -> handle_client_readable t c
           | None -> ())
         ready;
       (* New connections last, so that no accepted socket takes the number
          of a client dropped in this turn while [ready] still names it. *)
       if List.mem t.listen_fd ready then accept_client t);
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
      running = []; seq = 0; stop = false }
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
