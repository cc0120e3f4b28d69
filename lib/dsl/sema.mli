(** Static checks and name resolution for ChessLang.

    Rejects programs before execution: unknown or duplicated names, kind
    confusion (locking a semaphore), assignments to undeclared variables,
    more than one effectful primitive (trylock/timedlock/timedwait/semtry/
    choose) in a single statement (a statement is one atomic transition, so
    it can carry at most one scheduler interaction), synchronization or
    choice inside [atomic] blocks, more threads than a thread-id bitset
    holds ({!Fairmc_util.Bitset.max_capacity}[ + 1]), and more global
    storage than {!max_global_slots}. *)

type gkind =
  | Scalar
  | Array of int  (** size *)
  | Mutex
  | Sem of int  (** initial count *)
  | Event of bool  (** auto-reset? *)

type info = {
  kinds : (string * gkind) list;  (** declaration order *)
  thread_locals : (string * string list) list;  (** thread name -> locals *)
}

exception Error of string * Ast.pos

val max_global_slots : int
(** Global slots a program may declare in all: one per scalar, one per
    array element. Every execution allocates them and every restorable
    search state copies them, so the bound keeps both small; the first
    declaration that crosses it is the error. *)

val check : Ast.program -> info
(** @raise Error on any static violation. *)

val effectful : Ast.expr -> Ast.expr option
(** The unique effectful primitive of an expression, if any (post-[check]
    there is at most one per statement). *)

val effectful_list : Ast.expr -> Ast.expr list
(** Every effectful primitive of an expression, in evaluation order
    (pre-[check] there may be several; [check] rejects more than one per
    statement). *)

val globals_read : info -> thread:string -> Ast.expr -> string list
(** Global scalars/arrays read by an expression, in evaluation order. *)
