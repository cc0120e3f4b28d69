(* Durable search sessions. See checkpoint.mli and DESIGN.md ("Durable
   sessions") for the model; the short version: a checkpoint is the complete
   control state of the search at a path boundary, everything else is
   recomputed by re-execution. *)

module B = Fairmc_util.Bitset
module Json = Fairmc_util.Json
module MS = Fairmc_obs.Metrics.Snapshot
module AH = Analysis_hook
module C = Search_config

let schema = "fairmc-ckpt/2"

type decision = { c_tid : int; c_alt : int; c_cost : int }
type frame = { c_chosen : decision; c_rest : decision list; c_sleep : B.t; c_width : int }
type item = Cursor of frame array | Range of int * int

type part = {
  p_stats : Report.stats;
  p_metrics : MS.t;
  p_states : int64 list;
  p_edges : AH.lock_edge list;
}

type region = Done of part | Open of item
type payload = { regions : region list; elapsed : float; complete : bool }
type t = { fingerprint : string; payload : payload }

(* ------------------------------------------------------------------ *)
(* JSON codec.                                                         *)

exception Parse of string

let fail fmt = Printf.ksprintf (fun s -> raise (Parse s)) fmt

let field obj name =
  match obj with
  | Json.Obj l ->
    (match List.assoc_opt name l with
     | Some v -> v
     | None -> fail "missing field %S" name)
  | _ -> fail "expected an object for field %S" name

let as_int name = function Json.Int i -> i | _ -> fail "field %S: expected int" name
let as_bool name = function Json.Bool b -> b | _ -> fail "field %S: expected bool" name
let as_str name = function Json.Str s -> s | _ -> fail "field %S: expected string" name
let as_arr name = function Json.Arr l -> l | _ -> fail "field %S: expected array" name

let as_float name = function
  | Json.Float f -> f
  | Json.Int i -> float_of_int i
  | _ -> fail "field %S: expected number" name

let int_f o name = as_int name (field o name)
let bool_f o name = as_bool name (field o name)
let str_f o name = as_str name (field o name)
let arr_f o name = as_arr name (field o name)
let float_f o name = as_float name (field o name)

let opt_field o name =
  match o with Json.Obj l -> List.assoc_opt name l | _ -> None

(* int64 values (the seed, state signatures) do not fit a JSON double, so
   they travel as decimal strings. *)
let int64_to_json v = Json.Str (Int64.to_string v)

let int64_of_json name = function
  | Json.Str s ->
    (try Int64.of_string s with Failure _ -> fail "field %S: bad int64 %S" name s)
  | _ -> fail "field %S: expected int64 string" name

let opt_to_json f = function None -> Json.Null | Some v -> f v
let opt_of_json f = function Json.Null -> None | v -> Some (f v)

(* ------------------------------------------------------------------ *)
(* Search identity: one codec over Search_config.t.                    *)

(* A mode's sampling count is a budget: the fingerprint leaves it out. *)
let mode_to_json ~samples = function
  | C.Dfs -> Json.Str "dfs"
  | C.Round_robin -> Json.Str "rr"
  | C.Context_bounded n -> Json.Arr [ Json.Str "cb"; Json.Int n ]
  | C.Random_walk n when samples -> Json.Arr [ Json.Str "random"; Json.Int n ]
  | C.Random_walk _ -> Json.Str "random"
  | C.Priority_random n when samples -> Json.Arr [ Json.Str "prio"; Json.Int n ]
  | C.Priority_random _ -> Json.Str "prio"

let mode_of_json = function
  | Json.Str "dfs" -> C.Dfs
  | Json.Str "rr" -> C.Round_robin
  | Json.Arr [ Json.Str "cb"; Json.Int n ] -> C.Context_bounded n
  | Json.Arr [ Json.Str "random"; Json.Int n ] -> C.Random_walk n
  | Json.Arr [ Json.Str "prio"; Json.Int n ] -> C.Priority_random n
  | _ -> fail "bad search mode"

(* Every field has one role. Identity fields shape the explored tree or
   the report a deduped subscriber receives; job fields are budgets and
   fan-out, which a resume may extend and a deduped submission may
   differ in; local fields (sinks, paths, the checkpoint interval, fault
   injection) are never encoded. The pattern names every field, with no
   wildcard: a new field does not compile (warning 9) until it is given a
   role here, and [config_of_json] builds the record without [with], so it
   must be decoded too. *)
let config_fields ~job (cfg : C.t) =
  let { C.mode; fair; fair_k; depth_bound; max_steps; livelock_bound; seed;
        sleep_sets; coverage; metrics; analyses; static_por;
        (* job *)
        max_executions; time_limit; jobs; workers; item_timeout; max_retries;
        (* local *)
        progress = _; events = _; checkpoint = _; checkpoint_interval = _;
        inject_fault = _ } =
    cfg
  in
  let int_opt = opt_to_json (fun i -> Json.Int i) in
  let float_opt = opt_to_json (fun f -> Json.Float f) in
  let identity =
    [ ("mode", mode_to_json ~samples:job mode);
      ("fair", Json.Bool fair);
      ("fair_k", Json.Int fair_k);
      ("depth_bound", int_opt depth_bound);
      ("max_steps", Json.Int max_steps);
      ("livelock_bound", int_opt livelock_bound);
      ("seed", int64_to_json seed);
      ("sleep_sets", Json.Bool sleep_sets);
      ("coverage", Json.Bool coverage);
      ("metrics", Json.Bool metrics);
      ("analyses", Json.Arr (List.map (fun (a : AH.t) -> Json.Str a.AH.name) analyses));
      ("static_por", Json.Bool static_por) ]
  in
  if not job then identity
  else
    identity
    @ [ ("max_executions", int_opt max_executions);
        ("time_limit", float_opt time_limit);
        ("jobs", Json.Int jobs);
        ("workers", Json.Int workers);
        ("item_timeout", float_opt item_timeout);
        ("max_retries", Json.Int max_retries) ]

let config_of_json ~analysis o =
  let int_opt name = opt_of_json (as_int name) (field o name) in
  let float_opt name = opt_of_json (as_float name) (field o name) in
  let analysis_of = function
    | Json.Str n ->
      (match analysis n with Some a -> a | None -> fail "unknown analysis %S" n)
    | _ -> fail "field \"analyses\": expected names"
  in
  let d = C.default in
  { C.mode = mode_of_json (field o "mode");
    fair = bool_f o "fair";
    fair_k = int_f o "fair_k";
    depth_bound = int_opt "depth_bound";
    max_steps = int_f o "max_steps";
    livelock_bound = int_opt "livelock_bound";
    seed = int64_of_json "seed" (field o "seed");
    sleep_sets = bool_f o "sleep_sets";
    coverage = bool_f o "coverage";
    metrics = bool_f o "metrics";
    analyses = List.map analysis_of (arr_f o "analyses");
    static_por = bool_f o "static_por";
    max_executions = int_opt "max_executions";
    time_limit = float_opt "time_limit";
    jobs = int_f o "jobs";
    workers = int_f o "workers";
    item_timeout = float_opt "item_timeout";
    max_retries = int_f o "max_retries";
    progress = d.progress;
    events = d.events;
    checkpoint = d.checkpoint;
    checkpoint_interval = d.checkpoint_interval;
    inject_fault = d.inject_fault }

(* The program name, the scheme that derives random choices from the seed,
   and the identity fields, as one compact JSON object: canonical, since
   the field order is fixed. Under the "path" scheme each random choice is
   keyed by its execution index or its path's decisions. A fingerprint
   without the member belongs to a search that drew from one stream per
   process or work item, whose checkpoint must not resume here. *)
let fingerprint cfg ~program =
  Json.to_string
    (Json.Obj
       (("program", Json.Str program) :: ("draws", Json.Str "path")
       :: config_fields ~job:false cfg))

(* Report.stats — own codec (Report.stats_to_json emits derived fields and
   has no parser). *)
let stats_to_json (s : Report.stats) =
  Json.Obj
    [ ("executions", Json.Int s.Report.executions);
      ("transitions", Json.Int s.transitions);
      ("states", Json.Int s.states);
      ("nonterminating", Json.Int s.nonterminating);
      ("depth_bound_hits", Json.Int s.depth_bound_hits);
      ("sleep_set_prunes", Json.Int s.sleep_set_prunes);
      ("yields", Json.Int s.yields);
      ("max_depth", Json.Int s.max_depth);
      ("elapsed", Json.Float s.elapsed);
      ("first_error_execution", opt_to_json (fun i -> Json.Int i) s.first_error_execution);
      ("first_error_time", opt_to_json (fun f -> Json.Float f) s.first_error_time);
      ("sync_ops_per_exec", Json.Int s.sync_ops_per_exec);
      ("max_threads", Json.Int s.max_threads);
      ("search_elapsed", Json.Float s.search_elapsed);
      ("probe_mass", Json.Int s.probe_mass) ]

let stats_of_json o =
  { Report.executions = int_f o "executions";
    transitions = int_f o "transitions";
    states = int_f o "states";
    nonterminating = int_f o "nonterminating";
    depth_bound_hits = int_f o "depth_bound_hits";
    sleep_set_prunes = int_f o "sleep_set_prunes";
    yields = int_f o "yields";
    max_depth = int_f o "max_depth";
    elapsed = float_f o "elapsed";
    first_error_execution = opt_of_json (as_int "first_error_execution") (field o "first_error_execution");
    first_error_time = opt_of_json (as_float "first_error_time") (field o "first_error_time");
    sync_ops_per_exec = int_f o "sync_ops_per_exec";
    max_threads = int_f o "max_threads";
    search_elapsed = float_f o "search_elapsed";
    probe_mass = int_f o "probe_mass" }

(* Metrics entries carry an explicit kind tag: Snapshot.to_json flattens
   counters and gauges to the same representation, which cannot be parsed
   back. *)
let entry_to_json (name, e) =
  match e with
  | MS.Counter v -> Json.Arr [ Json.Str name; Json.Str "c"; Json.Int v ]
  | MS.Gauge v -> Json.Arr [ Json.Str name; Json.Str "g"; Json.Int v ]
  | MS.Histogram h ->
    Json.Arr
      [ Json.Str name; Json.Str "h";
        Json.Obj
          [ ("count", Json.Int h.MS.count);
            ("sum", Json.Int h.sum);
            ("max", Json.Int h.max);
            ("buckets",
             Json.Arr
               (List.map (fun (i, n) -> Json.Arr [ Json.Int i; Json.Int n ]) h.buckets)) ] ]

let entry_of_json = function
  | Json.Arr [ Json.Str name; Json.Str "c"; Json.Int v ] -> (name, MS.Counter v)
  | Json.Arr [ Json.Str name; Json.Str "g"; Json.Int v ] -> (name, MS.Gauge v)
  | Json.Arr [ Json.Str name; Json.Str "h"; o ] ->
    let buckets =
      List.map
        (function
          | Json.Arr [ Json.Int i; Json.Int n ] -> (i, n)
          | _ -> fail "histogram %S: bad bucket" name)
        (arr_f o "buckets")
    in
    ( name,
      MS.Histogram
        { MS.count = int_f o "count"; sum = int_f o "sum"; max = int_f o "max"; buckets } )
  | _ -> fail "bad metrics entry"

let metrics_to_json m = Json.Arr (List.map entry_to_json (MS.entries m))
let metrics_of_json name v = MS.of_entries (List.map entry_of_json (as_arr name v))

let decision_to_json d = Json.Arr [ Json.Int d.c_tid; Json.Int d.c_alt; Json.Int d.c_cost ]

let decision_of_json = function
  | Json.Arr [ Json.Int t; Json.Int a; Json.Int c ] -> { c_tid = t; c_alt = a; c_cost = c }
  | _ -> fail "bad decision"

let frame_to_json f =
  Json.Obj
    [ ("chosen", decision_to_json f.c_chosen);
      ("rest", Json.Arr (List.map decision_to_json f.c_rest));
      ("sleep", Json.Int (B.to_int f.c_sleep));
      ("width", Json.Int f.c_width) ]

let frame_of_json o =
  { c_chosen = decision_of_json (field o "chosen");
    c_rest = List.map decision_of_json (arr_f o "rest");
    c_sleep = B.unsafe_of_int (int_f o "sleep");
    c_width = int_f o "width" }

let states_to_json l = Json.Arr (List.map int64_to_json l)
let states_of_json name v = List.map (int64_of_json name) (as_arr name v)

let edge_to_json (e : AH.lock_edge) =
  Json.Arr
    [ Json.Int e.AH.e_from; Json.Str e.e_from_name; Json.Int e.e_to; Json.Str e.e_to_name ]

let edge_of_json = function
  | Json.Arr [ Json.Int f; Json.Str fn; Json.Int t; Json.Str tn ] ->
    { AH.e_from = f; e_from_name = fn; e_to = t; e_to_name = tn }
  | _ -> fail "bad lock edge"

let edges_to_json l = Json.Arr (List.map edge_to_json l)
let edges_of_json name v = List.map edge_of_json (as_arr name v)

let item_to_json = function
  | Cursor frames -> Json.Obj [ ("cursor", Json.Arr (Array.to_list (Array.map frame_to_json frames))) ]
  | Range (lo, hi) -> Json.Obj [ ("range", Json.Arr [ Json.Int lo; Json.Int hi ]) ]

let item_of_json o =
  match (opt_field o "cursor", opt_field o "range") with
  | Some v, None -> Cursor (Array.of_list (List.map frame_of_json (as_arr "cursor" v)))
  | None, Some (Json.Arr [ Json.Int lo; Json.Int hi ]) when 0 <= lo && lo < hi -> Range (lo, hi)
  | _ -> fail "bad work item"

let region_to_json = function
  | Done p ->
    Json.Obj
      [ ( "done",
          Json.Obj
            [ ("stats", stats_to_json p.p_stats);
              ("metrics", metrics_to_json p.p_metrics);
              ("states", states_to_json p.p_states);
              ("edges", edges_to_json p.p_edges) ] ) ]
  | Open item -> item_to_json item

let region_of_json o =
  match opt_field o "done" with
  | Some d ->
    Done
      { p_stats = stats_of_json (field d "stats");
        p_metrics = metrics_of_json "metrics" (field d "metrics");
        p_states = states_of_json "states" (field d "states");
        p_edges = edges_of_json "edges" (field d "edges") }
  | None -> Open (item_of_json o)

let payload_to_json p =
  Json.Obj
    [ ("regions", Json.Arr (List.map region_to_json p.regions));
      ("elapsed", Json.Float p.elapsed);
      ("complete", Json.Bool p.complete) ]

let payload_of_json o =
  { regions = List.map region_of_json (arr_f o "regions");
    elapsed = float_f o "elapsed";
    complete = bool_f o "complete" }

let to_json t =
  Json.Obj
    [ ("schema", Json.Str schema);
      ("fingerprint", Json.Str t.fingerprint);
      ("payload", payload_to_json t.payload) ]

let of_json j =
  try
    let s = str_f j "schema" in
    if s <> schema then
      fail "unsupported checkpoint schema %S (expected %S): start the search over" s schema;
    Ok { fingerprint = str_f j "fingerprint"; payload = payload_of_json (field j "payload") }
  with Parse msg -> Error msg

(* ------------------------------------------------------------------ *)
(* File I/O.                                                           *)

(* Deterministic fault injection ([--inject-fault savefail]): the next [n]
   physical save attempts fail as if the filesystem were transiently
   unhappy. Tests and CI use it to drive the retry path below. *)
let inject_save_failures = ref 0

(* fsync a directory so a just-renamed entry survives a crash. Some
   filesystems refuse fsync on a directory fd (EINVAL et al.); durability
   then degrades to the rename's own guarantees, which is the best
   available. *)
let fsync_dir dir =
  match Unix.openfile dir [ Unix.O_RDONLY ] 0 with
  | exception Unix.Unix_error _ -> ()
  | fd ->
    (try Fairmc_util.Retry.eintr (fun () -> Unix.fsync fd)
     with Unix.Unix_error _ -> ());
    (try Unix.close fd with Unix.Unix_error _ -> ())

let save_result path t =
  (* Serialize once, outside the retry loop: an encoding bug is not
     transient and must propagate, not be retried. *)
  let doc = to_json t in
  (* The temp suffix is pid-unique: two processes spooling checkpoints into
     the same directory (two chessd daemons, a supervised run next to a
     manual one) must never truncate each other's in-flight temp file. *)
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let attempt () =
    if !inject_save_failures > 0 then begin
      decr inject_save_failures;
      raise (Sys_error (tmp ^ ": injected transient save failure"))
    end;
    (* Write, flush, fsync, then rename: without the fsync a crash shortly
       after "success" can leave [path] pointing at a truncated or empty
       file — rename orders metadata, not data. *)
    let oc = Out_channel.open_bin tmp in
    Fun.protect
      ~finally:(fun () -> try Out_channel.close oc with Sys_error _ -> ())
      (fun () ->
        Out_channel.output_string oc (Json.to_string ~pretty:true doc);
        Out_channel.output_char oc '\n';
        Out_channel.flush oc;
        Fairmc_util.Retry.eintr (fun () ->
            Unix.fsync (Unix.descr_of_out_channel oc)));
    Sys.rename tmp path;
    fsync_dir (Filename.dirname path)
  in
  let retryable = function Sys_error _ | Unix.Unix_error _ -> true | _ -> false in
  match Fairmc_util.Retry.transient ~attempts:4 ~base_delay:0.005 ~retryable attempt with
  | Ok () -> Ok ()
  | Error e ->
    (* The rename never ran (or failed), so the previous checkpoint at
       [path] is intact; just drop the stale temp file. *)
    (try Sys.remove tmp with Sys_error _ -> ());
    Error
      (match e with
       | Sys_error m -> m
       | Unix.Unix_error (err, fn, arg) ->
         Printf.sprintf "%s(%s): %s" fn arg (Unix.error_message err)
       | e -> Printexc.to_string e)

let save path t =
  match save_result path t with
  | Ok () -> ()
  | Error msg ->
    Printf.eprintf "fairmc: checkpoint save failed: %s (keeping the previous checkpoint)\n%!"
      msg

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | contents ->
    (match Json.of_string contents with
     | Error e -> Error (Printf.sprintf "not a JSON document: %s" e)
     | Ok j -> of_json j)

(* ------------------------------------------------------------------ *)
(* Resume validation.                                                  *)

let plan_resume t (cfg : C.t) ~program =
  let fp = fingerprint cfg ~program in
  let systematic = match cfg.C.mode with C.Dfs | C.Context_bounded _ -> true | _ -> false in
  let fits = function
    | Done _ -> true
    | Open (Cursor _) -> systematic
    | Open (Range _) -> not systematic
  in
  if t.fingerprint <> fp then
    Error
      (Printf.sprintf
         "config fingerprint mismatch\n  checkpoint: %s\n  requested:  %s" t.fingerprint fp)
  else if t.payload.complete then Error "checkpoint records a completed search; nothing to resume"
  else if not (List.for_all fits t.payload.regions) then
    Error "checkpoint work items do not fit the search mode"
  else Ok t.payload

let zero_stats =
  { Report.executions = 0;
    transitions = 0;
    states = 0;
    nonterminating = 0;
    depth_bound_hits = 0;
    sleep_set_prunes = 0;
    yields = 0;
    max_depth = 0;
    elapsed = 0.;
    first_error_execution = None;
    first_error_time = None;
    sync_ops_per_exec = 0;
    max_threads = 0;
    search_elapsed = 0.;
    probe_mass = 0 }

let merge_stats ~(prior : Report.stats) (d : Report.stats) =
  { Report.executions = prior.Report.executions + d.Report.executions;
    transitions = prior.transitions + d.transitions;
    (* A resumed session preloads the coverage table, so its [states] is
       already the union; a caller merging separate tables sets the union's
       size itself. *)
    states = max prior.states d.states;
    nonterminating = prior.nonterminating + d.nonterminating;
    depth_bound_hits = prior.depth_bound_hits + d.depth_bound_hits;
    sleep_set_prunes = prior.sleep_set_prunes + d.sleep_set_prunes;
    yields = prior.yields + d.yields;
    max_depth = max prior.max_depth d.max_depth;
    elapsed = prior.elapsed +. d.elapsed;
    first_error_execution =
      (match prior.first_error_execution with
       | Some _ as e -> e
       | None -> Option.map (fun e -> prior.executions + e) d.first_error_execution);
    first_error_time =
      (match prior.first_error_time with
       | Some _ as t -> t
       | None -> Option.map (fun t -> prior.elapsed +. t) d.first_error_time);
    sync_ops_per_exec = max prior.sync_ops_per_exec d.sync_ops_per_exec;
    max_threads = max prior.max_threads d.max_threads;
    search_elapsed = prior.search_elapsed +. d.search_elapsed;
    (* Regions and sessions explore disjoint parts of the tree, so probe
       masses add exactly like executions. *)
    probe_mass = prior.probe_mass + d.probe_mass }

(* ------------------------------------------------------------------ *)
(* Graceful interruption.                                              *)

let interrupt_flag = Atomic.make false
let interrupted () = Atomic.get interrupt_flag
let request_interrupt () = Atomic.set interrupt_flag true
let clear_interrupt () = Atomic.set interrupt_flag false

let install_signal_handlers () =
  let handle _ =
    (* Second signal: the user really means it. 130 = 128 + SIGINT. *)
    if Atomic.get interrupt_flag then Stdlib.exit 130 else Atomic.set interrupt_flag true
  in
  List.iter
    (fun s -> try Sys.set_signal s (Sys.Signal_handle handle) with Invalid_argument _ -> ())
    [ Sys.sigint; Sys.sigterm ]

(* ------------------------------------------------------------------ *)
(* Codec building blocks, shared with the worker IPC protocol.         *)

module Codec = struct
  exception Parse = Parse

  let fail = fail
  let field = field
  let as_int = as_int
  let as_bool = as_bool
  let as_str = as_str
  let as_arr = as_arr
  let as_float = as_float
  let int_f = int_f
  let bool_f = bool_f
  let str_f = str_f
  let arr_f = arr_f
  let float_f = float_f
  let int64_to_json = int64_to_json
  let int64_of_json = int64_of_json
  let opt_to_json = opt_to_json
  let opt_of_json = opt_of_json
  let item_to_json = item_to_json
  let item_of_json = item_of_json
  let stats_to_json = stats_to_json
  let stats_of_json = stats_of_json
  let metrics_to_json = metrics_to_json
  let metrics_of_json = metrics_of_json
  let states_to_json = states_to_json
  let states_of_json = states_of_json
  let edges_to_json = edges_to_json
  let edges_of_json = edges_of_json
end
