(** Visible operations of threads under test.

    Every scheduling point in a program corresponds to exactly one [Op.t]: a
    thread runs uninterrupted between two operations, and the engine only
    context-switches at operation boundaries. The operation a parked thread
    is *about to* execute (its pending operation) determines both
    [enabled(t)] and [yield(t)] in the sense of the paper (Section 3). *)

type obj = int
(** Index of a synchronization object in the per-execution store. *)

type t =
  | Lock of obj  (** blocking mutex acquire; enabled iff the mutex is free *)
  | Try_lock of obj  (** non-blocking acquire; always enabled, returns success *)
  | Timed_lock of obj
      (** acquire with a finite timeout; always enabled. When the mutex is
          unavailable the operation "times out" (returns [false]) and counts
          as a yield, per CHESS's inference of yielding operations (§4). *)
  | Unlock of obj
  | Sem_wait of obj  (** P; enabled iff the count is positive *)
  | Sem_try_wait of obj  (** always enabled, returns success *)
  | Sem_timed_wait of obj  (** always enabled; timing out yields *)
  | Sem_post of obj  (** V; always enabled *)
  | Ev_wait of obj  (** enabled iff the event is set; auto-reset events consume *)
  | Ev_timed_wait of obj  (** always enabled; timing out yields *)
  | Ev_set of obj
  | Ev_reset of obj
  | Var_read of obj  (** shared-variable read; always enabled *)
  | Var_write of obj
  | Var_rmw of obj  (** interlocked read-modify-write (CAS, increment, ...) *)
  | Yield  (** explicit processor yield; always enabled, always a yield *)
  | Sleep  (** sleep with finite duration; always enabled, always a yield *)
  | Join of int  (** join on thread [tid]; enabled iff that thread finished *)
  | Spawn  (** thread creation; always enabled *)
  | Choose of int
      (** [Choose n]: nondeterministic data choice among [n] alternatives;
          always enabled. The demonic scheduler branches on the value. *)

val equal : t -> t -> bool
(** Structural equality without the polymorphic compare (a C call), for the
    engine's per-transition bookkeeping. *)

val obj_of : t -> obj option
(** The synchronization object the operation touches, if any. Two operations
    on distinct objects are independent (used by sleep-set POR). *)

val alternatives : t -> int
(** Number of data alternatives: [n] for [Choose n], 1 otherwise. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** {1 Kind indexing}

    Dense constructor indices for per-op-kind transition accounting: the
    engine keeps an [int array] of length [n_kinds] and bumps
    [kind_index op] on every step, so counting costs one array store. *)

val n_kinds : int
val kind_index : t -> int
val kind_name : int -> string
(** Lowercase stable name ("lock", "trylock", ..., "choose"); raises
    [Invalid_argument] outside [0, n_kinds). *)

val to_json : t -> Fairmc_util.Json.t
(** Wire form for the worker IPC protocol: [["<kind>", obj]] for operations
    carrying an object/tid/arity, a bare kind string otherwise. *)

val of_json : Fairmc_util.Json.t -> (t, string) result
(** Inverse of {!to_json}. *)
