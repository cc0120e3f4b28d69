(** Static analysis for ChessLang: lint diagnostics and visibility-based
    transition merging (static POR).

    {!Lint} finds defects before a single schedule runs; {!Visibility}
    proves globals thread-local so the compiler can stop emitting SCHED
    suspensions for them and feeds the {!Fairmc_core.Static_facts}
    conflict table consulted by sleep-set POR; {!Cfg} is the shared
    bytecode control-flow graph. *)

module Cfg = Cfg
module Visibility = Visibility
module Lint = Lint

module D = Fairmc_dsl

let analyze = Visibility.analyze

(** Compile with transition merging: run the visibility analysis, feed
    its invisible set to the compiler, and attach the conflict facts to
    the resulting program. Drop-in for {!Fairmc_dsl.compile} (which is
    the merging-off path). *)
let compile ast =
  let r = Visibility.analyze ast in
  let invisible n = List.mem n r.Visibility.invisible in
  Fairmc_core.Program.with_facts (D.compile ~invisible ast) r.Visibility.facts

let load_string ?name src = compile (D.Parser.parse_string ?name src)
let load_file path = compile (D.Parser.parse_file path)

let lint_string ?name src = Lint.run ?file:name (D.Parser.parse_string ?name src)
let lint_file path = Lint.run ~file:path (D.Parser.parse_file path)
