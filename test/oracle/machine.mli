(** The AST-walking ChessLang interpreter, kept as the test oracle of the
    bytecode VM ({!Fairmc_dsl.Vm}): compiles a checked program to an engine
    {!Fairmc_core.Program.t}.

    Execution model: one statement = one transition. Before executing a
    statement, the interpreter computes the single engine operation the
    statement corresponds to (a lock, an event wait, a shared-variable
    access, a demonic choice — or nothing, for statements touching only
    locals, which run silently inside the preceding transition). Expression
    evaluation is atomic within the transition.

    Because thread control state is an explicit frame stack of statement
    labels, the interpreter supplies an exact state snapshot: globals, every
    thread's program counter stack and locals. ChessLang programs therefore
    get precise state-coverage measurement for free, where native workloads
    need manual abstraction (paper §4.2.1). *)

val compile :
  ?invisible:(string -> bool) -> Fairmc_dsl.Ast.program -> Fairmc_core.Program.t
(** [invisible] names globals proven thread-local by the static-analysis
    layer; statements touching only them run silently (transition
    merging) — the same rule the bytecode backend applies, via
    {!Fairmc_dsl.Stmt_op}. @raise Fairmc_dsl.Sema.Error on static errors. *)

val compile_inspect :
  ?invisible:(string -> bool) ->
  Fairmc_dsl.Ast.program -> Fairmc_core.Program.t * (unit -> (string * int) list)
(** [compile_inspect prog] also returns a dump of the most recent boot's
    final store — globals (array cells as ["a\[i\]"]) then initialized
    locals (["thread.name"]) — for differential testing against
    {!Fairmc_dsl.Vm.compile_inspect}. Silent steps are bounded by
    {!Fairmc_dsl.Vm.silent_fuel}, so both backends fail identically. *)
