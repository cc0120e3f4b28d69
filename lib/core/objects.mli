(** Per-execution store of synchronization objects.

    The engine owns the *scheduling-relevant* state of every mutex,
    semaphore, and event so that it can decide [enabled(t)] for each parked
    thread; user data (queue contents etc.) stays in ordinary OCaml values on
    the user side. A fresh store is created for every execution boot; a
    search that restores program state on backtrack writes the counts back
    with {!restore_counts}. *)

type kind =
  | Mutex
  | Semaphore
  | Manual_event  (** stays set until reset *)
  | Auto_event  (** a successful wait atomically resets it *)
  | Var  (** shared variable: only an interleaving point, carries no state *)

type t

val create : unit -> t

val register : t -> ?name:string -> kind -> init:int -> Op.obj
(** Allocate an object. [init] is the initial semaphore count (semaphores),
    or 0/1 for unset/set (events); ignored for mutexes and vars. The default
    name is derived from the kind and the assigned id. *)

val name : t -> Op.obj -> string
val kind : t -> Op.obj -> kind
val count : t -> Op.obj -> int

(** {1 Misuse of the API by the program under test} *)

exception Sync_error of string
(** Raised (inside the offending thread) on unlock of a mutex not held by the
    caller, event ops on a semaphore, etc. Reported as a safety violation. *)

(** {1 Scheduling semantics} *)

val enabled : t -> finished:(int -> bool) -> Op.t -> bool
(** Whether a thread whose pending operation is [op] is enabled.
    [finished tid] reports completed threads (for [Join]). *)

val would_yield : t -> Op.t -> bool
(** [yield(t)] of the paper: executing the pending operation from the current
    state results in a yield. True for explicit yields and sleeps, and for
    timed operations that would time out. *)

val execute : t -> self:int -> Op.t -> bool
(** Apply the state change of [op] (which must be enabled) on behalf of
    thread [self]; the boolean is the operation's result (success of try/timed
    variants; [true] for operations without a meaningful result).
    @raise Sync_error on API misuse. *)

val holder : t -> Op.obj -> int option
(** Current owner of a mutex. *)

val signature : t -> Fairmc_util.Fnv.t -> Fairmc_util.Fnv.t
(** Fold the scheduling-relevant state into a state-signature hash. *)

val save_counts : t -> int array
(** A copy of every object's mutable count, in id order: the whole
    scheduling-relevant state of the store. *)

val restore_counts : t -> int array -> unit
(** Write counts taken by {!save_counts} back into the same store.
    @raise Invalid_argument if the store has registered objects since. *)

val pp_obj : t -> Format.formatter -> Op.obj -> unit
