(** Programs under test.

    A program is a recipe for (re-)creating its initial state: [boot] is
    called once per execution, allocates every synchronization object and all
    user data fresh, and returns the bodies of the initial threads. Thread
    bodies interact with the scheduler exclusively through {!Sync}. This is
    the stateless-model-checking contract: re-running [boot] must produce an
    identical initial state, and thread bodies must be deterministic apart
    from scheduling and explicit [Sync.choose] operations. *)

type restore = unit -> int -> unit -> unit
(** A captured program state. Calling it writes the state back into the
    live program (any number of times) and returns [resume]: [resume tid]
    is a fresh body for thread [tid], parked at the capture, that performs
    the same pending operation again and then continues exactly as the
    captured thread would have. *)

type booted = {
  threads : (unit -> unit) list;
      (** Initial threads, in thread-id order starting at 0. More threads may
          be created during execution with [Sync.spawn]. *)
  snapshot : (unit -> Fairmc_util.Fnv.t) option;
      (** Optional user-supplied state abstraction, combined by the engine
          with the generic scheduling state to form state signatures for
          coverage measurement (paper §4.2.1 did this manually for two
          programs; programs written in ChessLang get it for free). *)
  capture : (unit -> restore) option;
      (** Optional copy of the program's own state, taken while every live
          thread is parked. Offered by programs whose state is plain data
          (the ChessLang VM): the search then restores a state on backtrack
          instead of re-executing its prefix (see {!Engine.capture}). The
          program must spawn no threads and register no synchronization
          objects after [boot]. *)
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
(** Convenience wrapper when boot only builds thread bodies. *)

val with_facts : t -> Static_facts.t -> t
