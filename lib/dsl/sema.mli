(** Static checks and name resolution for ChessLang.

    Rejects programs before execution: unknown or duplicated names, kind
    confusion (locking a semaphore), assignments to undeclared variables,
    more than one effectful primitive (trylock/timedlock/timedwait/semtry/
    choose) in a single statement (a statement is one atomic transition, so
    it can carry at most one scheduler interaction), synchronization or
    choice inside [atomic] blocks, and more threads than a thread-id bitset
    holds ({!Fairmc_util.Bitset.max_capacity}[ + 1]). *)

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
