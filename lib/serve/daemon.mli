(** chessd: a checking-as-a-service daemon.

    A single-threaded select loop on a Unix-domain socket accepts
    [fairmc-jobs/1] frames ({!Protocol}, on the fairmc-ipc/1 framing of
    {!Fairmc_core.Worker}), keeps a priority queue of submitted jobs, and
    runs each job in a forked runner process, which forks its own
    supervised worker pool ({!Fairmc_core.Supervisor}) in turn.

    {b Identity and dedup.} A job's identity is its config fingerprint
    ({!Jobspec.id}): a resubmission of an already-known search — whatever
    its budgets — attaches to the existing job rather than starting a
    second search; every watcher of that id receives the same final
    report.

    {b Durability.} Each job is spooled as [<id>.job]; the runner
    maintains [<id>.ckpt] (schema [fairmc-ckpt/2]) through the standard
    checkpoint machinery, and the finished result is published as
    [<id>.report]. On SIGTERM the daemon forwards the signal to its
    runners — the checkpoint layer's graceful handler flushes a final
    checkpoint — and a restarted daemon requeues every [.job] without a
    [.report], resuming from the spooled checkpoint.

    {b Fidelity.} The runner builds its report exactly as [chess check]
    does, over the spec's own config (none of the daemon's plumbing), so
    the report a subscriber receives is byte-identical to the direct run's
    up to wall-clock timing fields; streamed event frames are the runner's
    own [fairmc-events/1] NDJSON lines, verbatim. *)

type config = {
  socket : string;  (** Unix-domain socket path; replaced if present *)
  spool : string;  (** spool directory; created if missing *)
  max_jobs : int;  (** concurrent runner processes *)
  max_attempts : int;
      (** runner crashes/failures per job before it is marked failed;
          graceful interruptions (cancel, external SIGTERM) do not count *)
  quiet : bool;  (** suppress the stderr log *)
}

val default_config : config
(** [chessd.sock], [chessd-spool], one runner, three attempts, logging
    on. *)

val run : config -> unit
(** Serve until SIGTERM/SIGINT or a [Shutdown] request, then stop runners
    gracefully, notify clients, and remove the socket. Blocks. *)
