(** Throttled search-progress reporting.

    A [Progress.t] belongs to the process that coordinates a search (the
    sequential search itself, or the supervisor of a parallel one). At most
    one emission happens per interval, and the sample closure is only
    evaluated when an emission is actually due — ticking costs one clock
    read. *)

type sample = {
  executions : int;  (** completed executions so far (search-wide) *)
  elapsed : float;  (** seconds since the search started *)
  jobs : int;  (** worker count of the search that emitted *)
  phase : string;  (** ["search"] (or a mode-specific label) *)
  completion : float option;
      (** estimated explored fraction in [0, 1] ({!Estimator}); [None]
          before the first probe or when estimation is off *)
  est_total : int option;  (** estimated total executions of the full search *)
  eta : float option;  (** estimated seconds remaining *)
}

val estimate : executions:int -> mass:int -> elapsed:float -> jobs:int -> sample
(** The ["search"] sample of a search that has completed [executions]
    paths of probe [mass] in [elapsed] seconds, with the {!Estimator}'s
    completion, total and ETA (all [None] while [mass = 0]). The
    sequential search and the supervisor both report through it. *)

type sink = sample -> unit

type t

val create : ?interval:float -> sinks:sink list -> unit -> t
(** [interval] defaults to 1 second; 0 emits on every tick. *)

val tick : t -> (unit -> sample) -> unit
(** Emit to every sink if at least [interval] has passed since the last
    emission. *)

val force : t -> (unit -> sample) -> unit
(** Emit unconditionally (end-of-search line). *)

val stderr_sink : sink
(** One line per emission:
    [[fairmc] phase=search execs=12345 (4821/s) elapsed=2.6s ~37.5% eta=4s]
    (the estimate tail only when an estimate exists). *)
