(** The statement → engine-operation rule, shared by the bytecode VM and
    its AST-walking test oracle (test/oracle).

    One ChessLang statement is one transition. This module decides, in
    terms of declaration names, which engine operation that transition
    performs — {!Compile} maps the result to compile-time indices,
    the oracle to runtime objects. Keeping the rule in one place makes
    the backends observably equivalent by construction, and gives the
    static-analysis layer (lib/static) the exact operation/footprint
    semantics the engine will execute. *)

val no_invisible : string -> bool
(** The default [invisible] predicate: nothing is invisible. *)

type t =
  | A_lock of string
  | A_try_lock of string
  | A_timed_lock of string
  | A_unlock of string
  | A_sem_wait of string
  | A_sem_timed_wait of string
  | A_sem_post of string
  | A_ev_wait of string
  | A_ev_timed_wait of string
  | A_ev_set of string
  | A_ev_reset of string
  | A_var_read of string
  | A_var_write of string
  | A_var_rmw of string
  | A_choose of int
  | A_yield
  | A_sleep

val of_stmt :
  Sema.info ->
  thread:string ->
  is_local:(string -> bool) ->
  ?invisible:(string -> bool) ->
  Ast.stmt ->
  t option
(** The single engine operation of the statement's transition, or [None]
    for silent statements. [invisible] (default: nothing) names globals
    proven thread-local by the static-analysis layer: they are dropped
    from the derivation, so transitions touching only them become
    silent — transition merging. *)

(** {2 Access footprints} *)

type footprint = {
  fp_reads : string list;  (** globals the transition may read *)
  fp_writes : string list;  (** globals it may write *)
  fp_syncs : string list;  (** sync objects it touches (incl. primitives) *)
}

val footprint : Sema.info -> thread:string -> Ast.stmt -> footprint
(** May-access sets of the statement's transition. [If]/[While]
    contribute their condition only (branch bodies are later
    transitions); [Atomic] contributes its whole block. Lists may
    contain duplicates. *)
