(** Deterministic random number generator (splitmix64).

    The model checker must be reproducible: every random schedule is derived
    from a seed recorded in the report, so a failing execution can be
    replayed. The stdlib [Random] state is deliberately not used. *)

type t

val make : int64 -> t

val mix : int64 -> int -> int64
(** [mix key x] derives a new key from [key] and [x] (one splitmix64 step);
    distinct [x] give unrelated keys. The search keys each random choice by
    where it is made: execution [i] of a sampling search draws from
    [make (mix seed i)], so no draw depends on which process made the ones
    before it. *)

val next_int64 : t -> int64

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. @raise Invalid_argument if
    [bound <= 0]. *)

val bool : t -> bool
