(* A check job as submitted to chessd: a program reference plus the
   serializable slice of {!Search_config.t}. See jobspec.mli. *)

module C = Fairmc_core.Search_config
module CK = Fairmc_core.Checkpoint.Codec
module Checkpoint = Fairmc_core.Checkpoint
module Program = Fairmc_core.Program
module AH = Fairmc_core.Analysis_hook
module J = Fairmc_util.Json
module Fnv = Fairmc_util.Fnv
module W = Fairmc_workloads
module D = Fairmc_dsl

let schema = "fairmc-job/1"

type t = {
  js_program : string;
  js_mode : C.mode;
  js_fair : bool;
  js_fair_k : int;
  js_depth_bound : int option;
  js_random_tail : bool;
  js_max_steps : int;
  js_livelock_bound : int option;
  js_tail_window : int;
  js_max_executions : int option;
  js_time_limit : float option;
  js_seed : int64;
  js_sleep_sets : bool;
  js_coverage : bool;
  js_metrics : bool;
  js_jobs : int;
  js_split_depth : int;
  js_workers : int;
  js_item_timeout : float option;
  js_max_retries : int;
  js_analyses : string list;
  js_interp : C.interp;
  js_static_por : bool;
}

(* ------------------------------------------------------------------ *)
(* Search_config projection.                                           *)

(* The three dynamic analyses, keyed by their AH.name — the same strings
   the config fingerprint embeds, so a job spec round-trips through the
   fingerprint unchanged. *)
let known_analyses =
  [ Fairmc_analysis.Hb_race.analysis;
    Fairmc_analysis.Lockset.analysis;
    Fairmc_analysis.Lock_graph.analysis ]

let analysis_of_name n =
  List.find_opt (fun (a : AH.t) -> a.AH.name = n) known_analyses

let of_config ~program (cfg : C.t) =
  { js_program = program;
    js_mode = cfg.C.mode;
    js_fair = cfg.C.fair;
    js_fair_k = cfg.C.fair_k;
    js_depth_bound = cfg.C.depth_bound;
    js_random_tail = cfg.C.random_tail;
    js_max_steps = cfg.C.max_steps;
    js_livelock_bound = cfg.C.livelock_bound;
    js_tail_window = cfg.C.tail_window;
    js_max_executions = cfg.C.max_executions;
    js_time_limit = cfg.C.time_limit;
    js_seed = cfg.C.seed;
    js_sleep_sets = cfg.C.sleep_sets;
    js_coverage = cfg.C.coverage;
    js_metrics = cfg.C.metrics;
    js_jobs = cfg.C.jobs;
    js_split_depth = cfg.C.split_depth;
    js_workers = cfg.C.workers;
    js_item_timeout = cfg.C.item_timeout;
    js_max_retries = cfg.C.max_retries;
    js_analyses = List.map (fun (a : AH.t) -> a.AH.name) cfg.C.analyses;
    js_interp = cfg.C.interp;
    js_static_por = cfg.C.static_por }

let to_config t =
  let analyses = List.filter_map analysis_of_name t.js_analyses in
  { C.default with
    C.mode = t.js_mode;
    fair = t.js_fair;
    fair_k = t.js_fair_k;
    depth_bound = t.js_depth_bound;
    random_tail = t.js_random_tail;
    max_steps = t.js_max_steps;
    livelock_bound = t.js_livelock_bound;
    tail_window = t.js_tail_window;
    max_executions = t.js_max_executions;
    time_limit = t.js_time_limit;
    seed = t.js_seed;
    sleep_sets = t.js_sleep_sets;
    coverage = t.js_coverage;
    metrics = t.js_metrics;
    jobs = t.js_jobs;
    split_depth = t.js_split_depth;
    workers = t.js_workers;
    item_timeout = t.js_item_timeout;
    max_retries = t.js_max_retries;
    analyses;
    interp = t.js_interp;
    static_por = t.js_static_por }

let validate t =
  if t.js_fair_k < 1 then Error (Printf.sprintf "fair_k must be >= 1, got %d" t.js_fair_k)
  else
    match List.filter (fun n -> analysis_of_name n = None) t.js_analyses with
    | [] -> Ok ()
    | l -> Error (Printf.sprintf "unknown analyses: %s" (String.concat ", " l))

(* ------------------------------------------------------------------ *)
(* Program resolution (mirrors the chess check CLI).                   *)

let resolve t =
  let name = t.js_program in
  if Filename.check_suffix name ".chess" then
    match
      let ast = D.Parser.parse_file name in
      if t.js_static_por then
        ( Fairmc_static.compile ~backend:(D.backend_of_interp t.js_interp) ast,
          Some (Fairmc_static.Lint.summary_json (Fairmc_static.Lint.run ast)) )
      else (D.compile ~backend:(D.backend_of_interp t.js_interp) ast, None)
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

(* ------------------------------------------------------------------ *)
(* Identity.                                                           *)

let fingerprint t ~program_name =
  Checkpoint.fingerprint (to_config t) ~program:program_name

let id t ~program_name =
  Printf.sprintf "j%s" (Fnv.to_hex (Fnv.string Fnv.init (fingerprint t ~program_name)))

(* ------------------------------------------------------------------ *)
(* JSON codec. Parsers raise {!Checkpoint.Codec.Parse}.                *)

let mode_to_json = function
  | C.Dfs -> J.Str "dfs"
  | C.Round_robin -> J.Str "rr"
  | C.Context_bounded n -> J.Arr [ J.Str "cb"; J.Int n ]
  | C.Random_walk n -> J.Arr [ J.Str "random"; J.Int n ]
  | C.Priority_random n -> J.Arr [ J.Str "prio"; J.Int n ]

let mode_of_json = function
  | J.Str "dfs" -> C.Dfs
  | J.Str "rr" -> C.Round_robin
  | J.Arr [ J.Str "cb"; J.Int n ] -> C.Context_bounded n
  | J.Arr [ J.Str "random"; J.Int n ] -> C.Random_walk n
  | J.Arr [ J.Str "prio"; J.Int n ] -> C.Priority_random n
  | _ -> CK.fail "bad search mode"

let to_json t =
  J.Obj
    [ ("schema", J.Str schema);
      ("program", J.Str t.js_program);
      ("mode", mode_to_json t.js_mode);
      ("fair", J.Bool t.js_fair);
      ("fair_k", J.Int t.js_fair_k);
      ("depth_bound", CK.opt_to_json (fun i -> J.Int i) t.js_depth_bound);
      ("random_tail", J.Bool t.js_random_tail);
      ("max_steps", J.Int t.js_max_steps);
      ("livelock_bound", CK.opt_to_json (fun i -> J.Int i) t.js_livelock_bound);
      ("tail_window", J.Int t.js_tail_window);
      ("max_executions", CK.opt_to_json (fun i -> J.Int i) t.js_max_executions);
      ("time_limit", CK.opt_to_json (fun f -> J.Float f) t.js_time_limit);
      ("seed", CK.int64_to_json t.js_seed);
      ("sleep_sets", J.Bool t.js_sleep_sets);
      ("coverage", J.Bool t.js_coverage);
      ("metrics", J.Bool t.js_metrics);
      ("jobs", J.Int t.js_jobs);
      ("split_depth", J.Int t.js_split_depth);
      ("workers", J.Int t.js_workers);
      ("item_timeout", CK.opt_to_json (fun f -> J.Float f) t.js_item_timeout);
      ("max_retries", J.Int t.js_max_retries);
      ("analyses", J.Arr (List.map (fun n -> J.Str n) t.js_analyses));
      ("interp", J.Str (C.interp_name t.js_interp));
      ("static_por", J.Bool t.js_static_por) ]

let of_json o =
  let s = CK.str_f o "schema" in
  if s <> schema then CK.fail "unsupported job schema %S (expected %S)" s schema;
  { js_program = CK.str_f o "program";
    js_mode = mode_of_json (CK.field o "mode");
    js_fair = CK.bool_f o "fair";
    js_fair_k = CK.int_f o "fair_k";
    js_depth_bound = CK.opt_of_json (CK.as_int "depth_bound") (CK.field o "depth_bound");
    js_random_tail = CK.bool_f o "random_tail";
    js_max_steps = CK.int_f o "max_steps";
    js_livelock_bound =
      CK.opt_of_json (CK.as_int "livelock_bound") (CK.field o "livelock_bound");
    js_tail_window = CK.int_f o "tail_window";
    js_max_executions =
      CK.opt_of_json (CK.as_int "max_executions") (CK.field o "max_executions");
    js_time_limit = CK.opt_of_json (CK.as_float "time_limit") (CK.field o "time_limit");
    js_seed = CK.int64_of_json "seed" (CK.field o "seed");
    js_sleep_sets = CK.bool_f o "sleep_sets";
    js_coverage = CK.bool_f o "coverage";
    js_metrics = CK.bool_f o "metrics";
    js_jobs = CK.int_f o "jobs";
    js_split_depth = CK.int_f o "split_depth";
    js_workers = CK.int_f o "workers";
    js_item_timeout =
      CK.opt_of_json (CK.as_float "item_timeout") (CK.field o "item_timeout");
    js_max_retries = CK.int_f o "max_retries";
    js_analyses =
      List.map
        (function J.Str n -> n | _ -> CK.fail "bad analysis name")
        (CK.arr_f o "analyses");
    js_interp =
      (match CK.str_f o "interp" with
       | "vm" -> C.Vm
       | "ast" -> C.Ast
       | i -> CK.fail "unknown interp %S" i);
    js_static_por = CK.bool_f o "static_por" }
