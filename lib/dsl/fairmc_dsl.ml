(** ChessLang — a small concurrent language frontend for the fair stateless
    model checker. See {!Ast} for the syntax and {!Compile}/{!Vm} for the
    bytecode execution backend. *)

module Ast = Ast
module Token = Token
module Lexer = Lexer
module Parser = Parser
module Sema = Sema
module Stmt_op = Stmt_op
module Compile = Compile
module Fuse = Fuse
module Vm = Vm

let compile = Vm.compile

(** [load_string src] parses, checks, and compiles a ChessLang program. *)
let load_string ?name src = compile (Parser.parse_string ?name src)

let load_file path = compile (Parser.parse_file path)
