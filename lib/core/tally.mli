(** Search-wide totals of a supervised search, shared by its processes.

    One memory mapping, created by the supervisor before its first fork, so
    every worker process inherits it ({!shared}); a search that forks no
    worker keeps its slots in ordinary memory ({!create}). Each process
    owns one slot — an
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
(** [slots] zeroed slots in this process's memory, viewed through slot 0:
    no process forked after this sees its writes. *)

val shared : slots:int -> t
(** [slots] zeroed slots in a shared mapping, viewed through slot 0: a
    process forked after this writes and reads the same cells. The backing
    temporary file is unlinked before this returns; [Sys_error] or
    [Unix.Unix_error] when it cannot be made. *)

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
