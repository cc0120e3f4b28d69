type mode =
  | Dfs
  | Context_bounded of int
  | Random_walk of int
  | Round_robin
  | Priority_random of int

type fault_kind = Crash | Hang | Garble | Slow_pipe | Save_fail
type fault = { fault_kind : fault_kind; fault_seed : int }

type t = {
  fair : bool;
  fair_k : int;
  mode : mode;
  depth_bound : int option;
  max_steps : int;
  livelock_bound : int option;
  max_executions : int option;
  time_limit : float option;
  seed : int64;
  sleep_sets : bool;
  coverage : bool;
  jobs : int;
  metrics : bool;
  progress : Fairmc_obs.Progress.t option;
  events : Fairmc_obs.Events.stream option;
  analyses : Analysis_hook.t list;
  checkpoint : string option;
  checkpoint_interval : float;
  static_por : bool;
  workers : int;
  item_timeout : float option;
  max_retries : int;
  inject_fault : fault option;
}

let default =
  { fair = true;
    fair_k = 1;
    mode = Dfs;
    depth_bound = None;
    max_steps = 20_000;
    livelock_bound = Some 10_000;
    max_executions = None;
    time_limit = None;
    seed = 0x5EEDL;
    sleep_sets = false;
    coverage = false;
    jobs = 1;
    metrics = false;
    progress = None;
    events = None;
    analyses = [];
    checkpoint = None;
    checkpoint_interval = 30.0;
    static_por = true;
    workers = 1;
    item_timeout = None;
    max_retries = 2;
    inject_fault = None }

let fair_dfs = default

let unfair_dfs ~depth_bound =
  { default with fair = false; depth_bound = Some depth_bound; livelock_bound = None }

let fault_kind_name = function
  | Crash -> "crash"
  | Hang -> "hang"
  | Garble -> "garble"
  | Slow_pipe -> "slowpipe"
  | Save_fail -> "savefail"

let fault_kinds = [ Crash; Hang; Garble; Slow_pipe; Save_fail ]

let fault_name { fault_kind; fault_seed } =
  Printf.sprintf "%s@%d" (fault_kind_name fault_kind) fault_seed

(* "<kind>" or "<kind>@<seed>"; the seed picks which dispatch the fault
   fires on (the one numbered [seed], first attempt only). *)
let fault_of_string s =
  let kind_of = function
    | "crash" -> Some Crash
    | "hang" -> Some Hang
    | "garble" -> Some Garble
    | "slowpipe" | "slow-pipe" -> Some Slow_pipe
    | "savefail" | "save-fail" -> Some Save_fail
    | _ -> None
  in
  let kind_s, seed_s =
    match String.index_opt s '@' with
    | None -> (s, None)
    | Some i ->
      (String.sub s 0 i, Some (String.sub s (i + 1) (String.length s - i - 1)))
  in
  match kind_of (String.lowercase_ascii kind_s) with
  | None ->
    Error
      (Printf.sprintf "unknown fault kind %S (crash | hang | garble | slowpipe | savefail)"
         kind_s)
  | Some fault_kind ->
    (match seed_s with
     | None -> Ok { fault_kind; fault_seed = 0 }
     | Some s ->
       (match int_of_string_opt s with
        | Some fault_seed when fault_seed >= 0 -> Ok { fault_kind; fault_seed }
        | _ -> Error "fault seed must be a non-negative integer"))

(* The ranges outside which a number fabricates a verdict: a negative
   context bound prunes every path, a zero step or livelock bound ends
   every path before its first step, a zero budget runs no search. *)
let validate t =
  let ints =
    (match t.mode with
     | Context_bounded c -> [ ("the context bound", 0, Some c) ]
     | Random_walk n | Priority_random n -> [ ("the sampling count", 1, Some n) ]
     | Dfs | Round_robin -> [])
    @ [ ("fair_k", 1, Some t.fair_k);
        ("max_steps", 1, Some t.max_steps);
        ("livelock_bound", 1, t.livelock_bound);
        ("max_executions", 1, t.max_executions);
        ("depth_bound", 0, t.depth_bound);
        ("max_retries", 0, Some t.max_retries) ]
  in
  let bad_int =
    List.find_map
      (fun (what, least, v) ->
        match v with
        | Some n when n < least -> Some (Printf.sprintf "%s must be >= %d, got %d" what least n)
        | _ -> None)
      ints
  in
  let bad_float =
    match (t.time_limit, t.item_timeout) with
    | Some l, _ when not (Float.is_finite l && l >= 0.) ->
      Some (Printf.sprintf "time_limit must be finite and >= 0, got %g" l)
    | _, Some l when not (l > 0.) -> Some (Printf.sprintf "item_timeout must be > 0, got %g" l)
    | _ -> None
  in
  match (bad_int, bad_float) with
  | Some e, _ | None, Some e -> Error e
  | None, None -> Ok ()

let mode_name = function
  | Dfs -> "dfs"
  | Context_bounded c -> Printf.sprintf "cb=%d" c
  | Random_walk n -> Printf.sprintf "random(%d)" n
  | Round_robin -> "round-robin"
  | Priority_random n -> Printf.sprintf "prio-random(%d)" n

let describe t =
  Printf.sprintf "%s%s%s%s%s"
    (mode_name t.mode)
    (if t.fair then " fair" else " unfair")
    (match t.depth_bound with Some d -> Printf.sprintf " db=%d" d | None -> "")
    ((if t.sleep_sets then " +sleepsets" else "")
     ^ if t.static_por then "" else " -staticpor")
    ((match t.analyses with
      | [] -> ""
      | l -> " +" ^ String.concat "+" (List.map (fun (a : Analysis_hook.t) -> a.name) l))
     ^
     (if t.jobs = 1 then ""
      else if t.jobs <= 0 then " jobs=auto"
      else Printf.sprintf " jobs=%d" t.jobs)
     ^
     if t.workers = 1 then ""
     else if t.workers <= 0 then " workers=auto"
     else Printf.sprintf " workers=%d" t.workers)
