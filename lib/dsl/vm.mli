(** Bytecode VM for ChessLang: its execution backend.

    Executes {!Compile} bytecode, fused into superinstructions by {!Fuse}
    when a program is loaded, with an int-array operand stack and flat
    frames (one pc + an int-array of local slots per thread). Preserves
    every observable of the AST-walking interpreter it replaced, which
    lives on in test/oracle as the differential oracle — identical [Op.t]
    transition streams per schedule, silent-fuel accounting, runtime-error
    messages, counterexamples, and checkpoint/resume behavior — while
    re-executing schedules several times faster.

    Its programs offer a capture ({!Fairmc_core.Program.booted}): the
    global slots and each thread's pc, locals and init flags are copied,
    and a restored thread restarts at its SCHED instruction (where it
    parked with an empty operand stack), performs the same operation
    again and parks. The search therefore restores states on backtrack
    instead of replaying prefixes.

    State snapshots hash the flat representation directly (FNV over the
    global slot array, then each thread's pc and local slots; a parked
    thread's pc is the canonical one, as fusion keeps it), which is
    both faster than walking AST machine state and induces the same
    state partition: a bytecode pc determines the whole continuation, as
    control flow is structured. *)

val silent_fuel : int
(** Silent (non-scheduling) steps a thread may take between two scheduling
    points, and steps an atomic block may take, before the run fails with
    a runtime error. *)

val compile : ?invisible:(string -> bool) -> Ast.program -> Fairmc_core.Program.t
(** [invisible] names globals proven thread-local by the static-analysis
    layer; statements touching only them compile to FUEL instead of SCHED
    (transition merging). @raise Sema.Error on static errors. *)

val compile_inspect :
  ?invisible:(string -> bool) ->
  Ast.program -> Fairmc_core.Program.t * (unit -> (string * int) list)
(** [compile_inspect prog] also returns a dump of the most recent boot's
    final store — globals (array cells as ["a\[i\]"]) then initialized
    locals (["thread.name"]) — for differential testing against the
    AST oracle's [compile_inspect]. *)
