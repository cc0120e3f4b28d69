(** Programs under test.

    A program is a recipe for (re-)creating its initial state: [boot] is
    called once per execution, allocates every synchronization object and all
    user data fresh, and returns the initial threads. This is the
    stateless-model-checking contract: re-running [boot] must produce an
    identical initial state, and threads must be deterministic apart from
    scheduling and explicit [Sync.choose] operations.

    A {e fiber} is an OCaml function whose every {!Sync} operation performs
    an effect, at which the engine parks its continuation. A {e machine
    thread} is plain data in a program that interprets it (the ChessLang
    VM), which the engine runs to its next scheduling point with one call. *)

type machine = {
  nthreads : int;  (** Its threads, tids [0 .. nthreads - 1]. *)
  run : int -> int -> Op.t option;
      (** [run tid result] runs machine thread [tid], handing it [result]
          (the result of the operation it parked on, as {!Sync} would
          return it; ignored on the thread's first run), to its next
          scheduling point. [Some op] is the operation it parks on, [None]
          says that it halted. The program returns the same [Some] value
          for the same scheduling point, so a park allocates nothing. A
          runtime error raises as in a fiber ([Sync.fail]'s exception). *)
}

type booted = {
  threads : (unit -> unit) list;
      (** Initial fibers, in thread-id order starting at 0. More may be
          created during execution with [Sync.spawn]. Empty when [machine]
          is given. *)
  machine : machine option;  (** Initial threads as machine threads. *)
  snapshot : (unit -> Fairmc_util.Fnv.t) option;
      (** Optional user-supplied state abstraction, combined by the engine
          with the generic scheduling state to form state signatures for
          coverage measurement (paper §4.2.1 did this manually for two
          programs; programs written in ChessLang get it for free). *)
  capture : (unit -> unit -> unit) option;
      (** Optional copy of a machine program's own state, taken while every
          live thread is parked: [capture ()] copies it, and calling the
          result writes the copy back (any number of times). The search
          then restores a state on backtrack instead of re-executing its
          prefix (see {!Engine.capture}). Only read with a [machine], which
          must spawn no threads and register no synchronization objects
          after [boot]. *)
}

type t = {
  name : string;
  boot : unit -> booted;
  facts : Static_facts.t option;
      (** Static conflict facts, attached by the static-analysis layer
          (lib/static) for ChessLang programs; [None] for native
          workloads. When present, {!Search} feeds them to
          {!Indep.independent}. *)
}

val make : name:string -> ?facts:Static_facts.t -> (unit -> booted) -> t

val of_threads : name:string -> ?snapshot:(unit -> Fairmc_util.Fnv.t) -> (unit -> (unit -> unit) list) -> t
(** Convenience wrapper when boot only builds fiber bodies. *)

val with_facts : t -> Static_facts.t -> t
