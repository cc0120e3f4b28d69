(** Executions as recorded event sequences.

    A trace is what the checker shows the user when it finds a bug, and what
    the replay machinery consumes to reproduce one deterministically. *)

type event = {
  step : int;
  tid : int;
  op : Op.t;
  alt : int;  (** chosen alternative for [Choose] operations, 0 otherwise *)
  result : bool;  (** result delivered to the thread (try/timed ops) *)
  yielded : bool;  (** whether this transition was a yield *)
  enabled : Fairmc_util.Bitset.t;
      (** threads enabled in the state this transition was taken from; gives
          traces exactly the [enabled]/[sched]/[yield] labelling the paper's
          LTL properties are stated over *)
}

type t

val create : unit -> t
val push : t -> event -> unit
val length : t -> int

val truncate : t -> int -> unit
(** [truncate t n] keeps the first [n] events (a restored search state
    resumes its trace there). @raise Invalid_argument if [n > length t]. *)

val get : t -> int -> event
val events : t -> event list
val last_n : t -> int -> event list
val decisions : t -> (int * int) list
(** The (tid, alt) sequence — a replayable schedule. *)

val pp_event : names:(Format.formatter -> Op.obj -> unit) -> Format.formatter -> event -> unit
val pp : ?tail:int -> names:(Format.formatter -> Op.obj -> unit) -> Format.formatter -> t -> unit
