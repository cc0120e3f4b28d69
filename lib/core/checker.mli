(** Top-level model-checking interface (the "CHESS" entry point).

    Typical use:
    {[
      let prog = Program.of_threads ~name:"fig3" (fun () ->
        let x = Sync.int_var ~name:"x" 0 in
        [ (fun () -> Sync.Svar.set x 1);
          (fun () ->
            while Sync.Svar.get x <> 1 do
              Sync.yield ()
            done) ])
      in
      let report = Checker.check prog in
      Format.printf "%a@." Report.pp report
    ]}

    The checker determines whether the program is fair-terminating and
    satisfies its embedded assertions; if not, it produces a counterexample
    execution (finite for safety violations and deadlocks, a divergence
    prefix for liveness violations) — the problem statement of Section 2. *)

val check : ?config:Search_config.t -> ?resume:Checkpoint.payload -> Program.t -> Report.t
(** Run the search under {!Supervisor.run}. Defaults to fair depth-first
    search. With [config.jobs] or [config.workers] above 1 the search runs
    on supervised worker processes; otherwise in this process. Either way
    the supervisor keeps its session: checkpoints, progress, and [resume],
    which continues a prior checkpointed session written at any fan-out —
    obtain the payload from {!Checkpoint.load} + {!Checkpoint.plan_resume}.
    {!Search.run} is the session-free reference it equals. *)

val check_all :
  configs:(string * Search_config.t) list -> Program.t -> (string * Report.t) list
(** Run several strategies in sequence (e.g. iterative context bounding:
    cb=0, 1, 2, ...), returning each report. Stops early when an error is
    found. *)

val iterative_context_bound :
  ?fair:bool -> ?max_bound:int -> ?base:Search_config.t -> Program.t -> Report.t
(** Iterative context bounding (Musuvathi & Qadeer, PLDI 2007), with the
    fair scheduler enabled by default: search with 0 preemptions, then 1,
    ... up to [max_bound] (default 2), returning the first error or the last
    report. *)
