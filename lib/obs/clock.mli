(** The one wall clock of the checker.

    Every elapsed-time computation in the search stack funnels through this
    module so that (a) timestamps are comparable across layers and (b) the
    clock is monotonic-ish: [Unix.gettimeofday] can step backwards under NTP
    adjustment, which previously could make [elapsed] negative or deadline
    checks flap; [now] clamps against the last value handed out in this
    process. *)

val now : unit -> float
(** Seconds since the epoch, never decreasing within a process. *)

val elapsed : since:float -> float
(** [elapsed ~since] is [max 0. (now () -. since)]. *)
