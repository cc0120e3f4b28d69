(** Shared context between the engine and the {!Sync} user API.

    Threads under test communicate with the engine by performing the
    {!extension-Sched} effect at every visible operation; the engine parks
    the continuation and later resumes it with the operation's result (or,
    fast-forwarding, takes it in place: [take]). The mutable context below
    carries side-band data (spawn bodies, results, state-snapshot hooks) for
    the current execution. It is plain process state: a process runs at
    most one engine at a time, and exactly one of {engine, one thread}
    executes at any instant. Parallel search forks worker processes
    ({!Supervisor}), each with its own copy. *)

type _ Effect.t +=
  | Sched : Op.t -> int Effect.t
        (** Performed by a thread at each scheduling point. The integer reply
            encodes the operation result: 0/1 for booleans, the chosen
            alternative for [Choose]. *)

exception Assertion_failure of string
(** Raised by [Sync.check]; reported as a safety violation with the trace. *)

type ctx = {
  mutable store : Objects.t option;
      (** Sync-object store of the execution being built or run. *)
  mutable in_thread : bool;
      (** True while control is inside a thread under test (effects are
          handled). *)
  mutable current_tid : int;
  mutable spawn_body : (unit -> unit) option;
      (** Set by [Sync.spawn] immediately before performing [Spawn]; captured
          by the engine's handler at park time (so interleaved spawns cannot
          clobber each other). *)
  mutable spawn_result : int;
      (** Tid of the most recently created thread; read by [Sync.spawn]
          immediately after its effect returns, before any other thread can
          run. *)
  mutable snapshotters : (Fairmc_util.Fnv.t -> Fairmc_util.Fnv.t) list;
      (** State-signature contributions registered during [boot] (e.g. by
          [Sync.Svar.create ~hash]); folded into every state signature. *)
  regions : (int, int) Hashtbl.t;
      (** Per-thread control-region registers (see [Sync.at]): a manual
          control abstraction hashed into state signatures, the analogue of
          the paper's hand-written state extraction (§4.2.1). Cleared by
          [reset]. *)
  mutable take : (Op.t -> int) option;
      (** Set by [Engine.fast_forward] during its loop, else [None]. Offered
          the running thread's operation by [Sync.sched], it returns the
          result of the thread's next recorded transition, taken in place,
          or -1: perform {!extension-Sched} and park. It never raises. *)
}

val ctx : ctx
(** The process's context. *)

val get_store : unit -> Objects.t
(** @raise Failure outside [boot]/execution. *)

val reset : Objects.t -> ctx
(** Install a fresh store in {!ctx}, clear all side-band state, and return
    the context (engine use). *)
