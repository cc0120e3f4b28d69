(** The synchronization API for programs under test.

    This is the moral equivalent of the Win32 surface CHESS instruments:
    mutexes (with try- and timed- variants), semaphores, manual- and
    auto-reset events, interlocked shared variables, [yield]/[sleep], thread
    creation and join, and a demonic data choice. Every call is a scheduling
    point: the calling thread may be preempted there, and the checker
    explores the alternatives.

    Creation functions ([Mutex.create], [Svar.create], ...) may only be
    called from a program's [boot] function or from a running thread; all
    other operations only from a running thread.

    Yield inference (paper §4): [yield], [sleep], and every [timed_*]
    operation that times out count as yields for the fair scheduler.

    Every scheduling point goes through one function, exposed as
    {!Raw.sched}: the one site that performs {!Runtime.extension-Sched}.
    During a fast-forward it first offers the operation to
    [Runtime.ctx.take], and a thread whose next recorded transition is
    taken there runs on without parking. *)

val yield : unit -> unit
(** Explicit processor yield. Signals the fair scheduler that the caller
    cannot make progress — the good-samaritan contract. *)

val sleep : unit -> unit
(** Sleep for a finite duration; semantically identical to {!yield} (the
    checker abstracts time), kept separate for trace readability. *)

val spawn : (unit -> unit) -> int
(** Create a thread; returns its tid. The child runs up to its first
    scheduling point as part of the creation transition. *)

val join : int -> unit
(** Block until thread [tid] has finished. *)

val self : unit -> int

val choose : int -> int
(** [choose n] demonically picks a value in [\[0, n)]: the checker explores
    every alternative. Use for nondeterministic test inputs. *)

val at : int -> unit
(** [at region] tags the calling thread as being in control region [region].
    Not a scheduling point — it only refines state signatures, which
    otherwise identify a thread's control location by its pending operation
    alone. Needed when two control points with different futures share the
    same pending operation and data (the manual state-abstraction effort the
    paper describes in §4.2.1). *)

val check : bool -> string -> unit
(** [check cond msg] reports a safety violation (with the failing trace) if
    [cond] is false. *)

val fail : string -> 'a
(** Unconditional safety violation. *)

module Mutex : sig
  type t

  val create : ?name:string -> unit -> t
  val lock : t -> unit
  val try_lock : t -> bool
  val timed_lock : t -> bool
  (** Acquire with a finite timeout: never blocks; failure is a yield. *)

  val unlock : t -> unit
  val id : t -> Op.obj
end

module Semaphore : sig
  type t

  val create : ?name:string -> int -> t
  val wait : t -> unit
  val try_wait : t -> bool
  val timed_wait : t -> bool
  val post : t -> unit
  val id : t -> Op.obj
end

module Event : sig
  type t

  val create : ?name:string -> ?auto:bool -> ?initial:bool -> unit -> t
  (** [auto] (default false): a successful wait atomically resets the event
      (Win32 auto-reset semantics). *)

  val wait : t -> unit
  val timed_wait : t -> bool
  val set : t -> unit
  val reset : t -> unit
  val id : t -> Op.obj
end

module Svar : sig
  type 'a t
  (** A shared variable. Every access is a scheduling point, which is how the
      checker interleaves data races on "volatile" state. Plain OCaml values
      captured by thread closures are invisible to the scheduler — shared
      state must live in [Svar]s (or behind a mutex). *)

  val create : ?name:string -> ?hash:(Fairmc_util.Fnv.t -> 'a -> Fairmc_util.Fnv.t) -> 'a -> 'a t
  (** [hash] registers the variable's value into state signatures, enabling
      state-coverage measurement without a manual snapshot function. *)

  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit

  val update : 'a t -> ('a -> 'a) -> 'a
  (** Interlocked read-modify-write; returns the previous value. *)

  val cas : 'a t -> expected:'a -> 'a -> bool
  (** Interlocked compare-and-swap (structural equality on [expected]). *)

  val incr : int t -> int
  (** Interlocked increment; returns the previous value. *)

  val id : 'a t -> Op.obj
end

module Raw : sig
  (** Low-level access for interpreters built on the engine: register bare
      scheduling-point objects (the ChessLang VM) and perform operations
      directly from a fiber (the AST interpreter the tests keep). Ordinary
      programs should use the typed API. *)

  val var : ?name:string -> unit -> Op.obj
  (** A bare shared-variable identity: a scheduling point with no storage. *)

  val sched : Op.t -> int
  (** Perform one operation; the result encodes try/timed success (0/1) or
      the chosen alternative for [Choose]. *)
end

val int_var : ?name:string -> int -> int Svar.t
(** An [int] shared variable whose value participates in state signatures. *)

val bool_var : ?name:string -> bool -> bool Svar.t
