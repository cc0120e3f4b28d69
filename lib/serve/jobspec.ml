(* A check job as submitted to chessd: a program reference plus a config,
   whose identity and job fields travel as fairmc-job/1. See jobspec.mli. *)

module C = Fairmc_core.Search_config
module CK = Fairmc_core.Checkpoint
module AH = Fairmc_core.Analysis_hook
module J = Fairmc_util.Json
module Fnv = Fairmc_util.Fnv
module W = Fairmc_workloads
module D = Fairmc_dsl

let schema = "fairmc-job/1"

type t = { program : string; config : C.t }

(* The three dynamic analyses, keyed by their AH.name — the names the
   config codec writes. *)
let known_analyses =
  [ Fairmc_analysis.Hb_race.analysis;
    Fairmc_analysis.Lockset.analysis;
    Fairmc_analysis.Lock_graph.analysis ]

let find_analysis analyses n = List.find_opt (fun (a : AH.t) -> a.AH.name = n) analyses

let to_json t =
  J.Obj
    (("schema", J.Str schema) :: ("program", J.Str t.program)
     :: CK.config_fields ~job:true t.config)

let of_json o =
  let s = CK.Codec.str_f o "schema" in
  if s <> schema then CK.Codec.fail "unsupported job schema %S (expected %S)" s schema;
  { program = CK.Codec.str_f o "program";
    config = CK.config_of_json ~analysis:(find_analysis known_analyses) o }

(* Through the codec, so a spec holds exactly what the wire carries: local
   fields take their defaults. *)
let of_config ~program (cfg : C.t) =
  { program;
    config =
      CK.config_of_json ~analysis:(find_analysis cfg.C.analyses)
        (J.Obj (CK.config_fields ~job:true cfg)) }

let to_config t = t.config

let max_fan_out = 256

let validate { config = c; _ } =
  Result.bind (C.validate c) (fun () ->
      if c.C.jobs > max_fan_out || c.C.workers > max_fan_out then
        Error
          (Printf.sprintf "jobs and workers must be at most %d, got %d and %d" max_fan_out
             c.C.jobs c.C.workers)
      else Ok ())

(* ------------------------------------------------------------------ *)
(* Program resolution, shared with the chess check CLI.               *)

let resolve t =
  let name = t.program in
  if Filename.check_suffix name ".chess" then
    match
      let ast = D.Parser.parse_file name in
      if t.config.C.static_por then
        ( Fairmc_static.compile ast,
          Some (Fairmc_static.Lint.summary_json (Fairmc_static.Lint.run ast)) )
      else (D.compile ast, None)
    with
    | result -> Ok result
    | exception D.Parser.Error (msg, pos) ->
      Error (Format.asprintf "%s: syntax error: %s (%a)" name msg D.Ast.pp_pos pos)
    | exception D.Lexer.Error (msg, pos) ->
      Error (Format.asprintf "%s: lexical error: %s (%a)" name msg D.Ast.pp_pos pos)
    | exception D.Sema.Error (msg, pos) ->
      Error (Format.asprintf "%s: error: %s (%a)" name msg D.Ast.pp_pos pos)
    | exception Sys_error e -> Error e
  else
    match W.Registry.find name with
    | Some e -> Ok (e.W.Registry.program, None)
    | None -> Error (Printf.sprintf "unknown program %S; try `chess list`" name)

let id t ~program_name =
  Printf.sprintf "j%s"
    (Fnv.to_hex (Fnv.string Fnv.init (CK.fingerprint t.config ~program:program_name)))
