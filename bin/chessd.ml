(* chessd — the checking-as-a-service daemon.

   Serves fairmc-jobs/1 over a Unix-domain socket: `chess submit` queues
   check jobs here, duplicate submissions dedupe into one running search,
   and `chess watch-job` streams progress and the final report. Jobs are
   spooled with durable checkpoints, so a SIGTERM'd daemon resumes its
   unfinished work on restart. *)

open Cmdliner
module Daemon = Fairmc_serve.Daemon

let socket =
  Arg.(value & opt string Daemon.default_config.socket
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket to listen on; an existing file at PATH is \
                 replaced.")

let spool =
  Arg.(value & opt string Daemon.default_config.spool
       & info [ "spool" ] ~docv:"DIR"
           ~doc:"Spool directory (created if missing): one $(i,id).job per \
                 submission, $(i,id).ckpt while it runs (schema fairmc-ckpt/3), \
                 $(i,id).report once done. On restart every .job without a \
                 .report is requeued and resumes from its checkpoint.")

let max_jobs =
  Arg.(value & opt int Daemon.default_config.max_jobs
       & info [ "max-jobs" ] ~docv:"N"
           ~doc:"Jobs to run at once, each on worker processes of its own; \
                 further jobs wait in the priority queue.")

let quiet = Arg.(value & flag & info [ "q"; "quiet" ] ~doc:"Suppress the stderr log.")

let main =
  let doc = "checking-as-a-service daemon for the fair stateless model checker" in
  let man =
    [ `S Manpage.s_description;
      `P "Accepts check-job submissions over a Unix-domain socket (protocol \
          fairmc-jobs/1), runs each through the same engine as $(b,chess \
          check) on crash-isolated worker processes that it forks and \
          supervises for that job (as $(b,chess check --workers) does; one \
          worker for a sequential job), and streams progress events and the \
          final report to every subscriber. A worker that crashes costs a \
          retry of its work item ($(b,--max-retries) of the job), not the \
          job.";
      `P "Job identity is the configuration fingerprint also used by \
          checkpoint resume: submitting the same program and strategy twice \
          — even with different budgets — attaches the second caller to the \
          first search instead of starting another.";
      `P "SIGTERM (or a client $(i,shutdown) request) stops gracefully: \
          every running search is stopped where it is and its checkpoint \
          written, and a restarted daemon picks every unfinished job up \
          where it left off. A work item returns to the daemon about once \
          a second, so the checkpoint is never far behind.";
      `S Manpage.s_exit_status;
      `P "0 on a clean shutdown; 1 on startup errors (unusable socket or \
          spool)." ]
  in
  let run socket spool max_jobs quiet =
    try Daemon.run { Daemon.socket; spool; max_jobs; quiet } with
    | Unix.Unix_error (err, fn, arg) ->
      Format.eprintf "chessd: %s: %s (%s)@." fn (Unix.error_message err) arg;
      exit 1
    | Sys_error m ->
      Format.eprintf "chessd: %s@." m;
      exit 1
  in
  Cmd.v
    (Cmd.info "chessd" ~doc ~man ~version:"1.0.0")
    Term.(const run $ socket $ spool $ max_jobs $ quiet)

let () = exit (Cmd.eval main)
