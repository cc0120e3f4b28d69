(** chessd: a checking-as-a-service daemon.

    A single-threaded select loop on a Unix-domain socket accepts
    [fairmc-jobs/1] frames ({!Protocol}, on the fairmc-ipc/1 framing of
    {!Fairmc_core.Worker}), keeps a priority queue of submitted jobs, and
    supervises the running ones itself: each job's search is a
    {!Fairmc_core.Supervisor.t} that the loop steps, on worker processes
    forked for that job (one for a sequential job). Worker crashes are the
    supervisor's to retry and quarantine; an exception while driving a job
    fails that job with an error reply, never the daemon.

    {b Identity and dedup.} A job's identity is its config fingerprint
    ({!Jobspec.id}): a resubmission of an already-known search — whatever
    its budgets — attaches to the existing job rather than starting a
    second search; every watcher of that id receives the same final
    report.

    {b Durability.} Each job is spooled as [<id>.job]; its supervisor
    maintains [<id>.ckpt] (schema [fairmc-ckpt/2]) from the work items
    that return to it, about once a second, and the finished result is
    published as
    [<id>.report], the [Job_done] frame's payload, which the daemon serves
    from the spool rather than its heap. On SIGTERM, and on cancel, the
    daemon stops the job's search at once: its workers are killed and its
    regions written to the checkpoint. A restarted daemon requeues every
    [.job] without a readable [.report] and resumes it from the spooled
    checkpoint.

    {b Fidelity.} The daemon builds a job's report exactly as [chess check]
    does, over the spec's own config (none of the daemon's plumbing), so
    the report a subscriber receives is byte-identical to the direct run's
    up to wall-clock timing fields; streamed event frames are the search's
    own [fairmc-events/1] NDJSON lines, verbatim. *)

type config = {
  socket : string;  (** Unix-domain socket path; replaced if present *)
  spool : string;  (** spool directory; created if missing *)
  max_jobs : int;  (** jobs running at once *)
  quiet : bool;  (** suppress the stderr log *)
}

val default_config : config
(** [chessd.sock], [chessd-spool], one job at a time, logging on. *)

val run : config -> unit
(** Serve until SIGTERM/SIGINT or a [Shutdown] request, then stop the
    running searches (each checkpointed), notify clients, and remove the
    socket. Blocks. *)
