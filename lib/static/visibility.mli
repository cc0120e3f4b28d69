(** Visibility analysis for transition merging (static POR).

    Proves globals thread-local (accessed by at most one thread): their
    reads and writes commute with everything another thread can do, so
    the compiler can stop emitting SCHED suspensions for them —
    {!Fairmc_dsl.Compile.compile}'s [invisible] hook. A bytecode-CFG
    veto keeps any loop from becoming entirely silent through merging
    (which would trade a fair-scheduler livelock verdict for a
    silent-fuel runtime error). The same footprints feed the
    {!Fairmc_core.Static_facts} conflict table consulted by sleep-set
    POR. *)

module Ast := Fairmc_dsl.Ast
module Sema := Fairmc_dsl.Sema

type result = {
  invisible : string list;  (** merged globals, sorted *)
  vetoed : string list;  (** candidates kept visible by the silent-loop veto *)
  merged_sites : int;  (** SCHED sites removed by merging *)
  facts : Fairmc_core.Static_facts.t;
}

val analyze : Ast.program -> result
(** @raise Sema.Error on static errors. *)

val transitions : Ast.block -> Ast.stmt list
(** Every statement of the block that is its own transition, in source
    order: If/While branch bodies included (each inner statement runs
    as a later transition), Atomic bodies not (one transition). Shared
    with the lint pass. *)

val access_map : Sema.info -> (string * Ast.block) list -> (string, Set.Make(String).t) Hashtbl.t
(** name -> accessing thread names, over each thread's transitions. *)
