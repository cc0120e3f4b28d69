(** Search-wide totals shared by the processes of a parallel search.

    One memory mapping, created by the supervisor before its first fork, so
    every worker process inherits it. Each process owns one slot — an
    execution count and an {!Fairmc_obs.Estimator} probe mass — and writes
    only that slot; readers sum every slot. A slot also holds a split
    request, which the supervisor raises and the slot's worker reads at
    its path boundaries. Counting a path costs two
    stores and a sum over the slots, never a system call. {!Search} checks
    [max_executions] against {!executions} at every path start and end, so
    a parallel search overshoots its budget by at most one in-flight path
    per worker. *)

type t
(** A view of the mapping that writes through one slot. *)

val create : slots:int -> t
(** A zeroed shared mapping of [slots] slots, viewed through slot 0. The
    backing temporary file is unlinked before this returns. *)

val slot : t -> int -> t
(** The same mapping, viewed through another slot. *)

val add : t -> executions:int -> mass:int -> unit
(** Add to this view's slot. *)

val executions : t -> int
(** Executions summed over every slot. *)

val mass : t -> int
(** Probe mass summed over every slot. *)

val ask_split : t -> bool -> unit
(** Raise (or clear) this view's split request: its worker should hand
    back part of its item at its next path boundary. *)

val split_asked : t -> bool
(** This view's split request. Reading it costs one load. *)
