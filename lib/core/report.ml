module Json = Fairmc_util.Json

type counterexample = {
  rendered : string;
  decisions : (int * int) list;
  length : int;
}

type divergence_kind =
  | Fair_nontermination
  | Good_samaritan_violation of int

type verdict =
  | Verified
  | Safety_violation of { tid : int; failure : Engine.failure; cex : counterexample }
  | Deadlock of { cex : counterexample }
  | Divergence of { kind : divergence_kind; cex : counterexample }
  | Race of { race : Analysis_hook.race; cex : counterexample }
  | Crash of { reason : string; cex : counterexample }
  | Limits_reached

type stats = {
  executions : int;
  transitions : int;
  states : int;
  nonterminating : int;
  depth_bound_hits : int;
  sleep_set_prunes : int;
  yields : int;
  max_depth : int;
  elapsed : float;
  first_error_execution : int option;
  first_error_time : float option;
  sync_ops_per_exec : int;
  max_threads : int;
  search_elapsed : float;
  probe_mass : int;
  path_digest : int;
}

type analysis = {
  lock_order_edges : Analysis_hook.lock_edge list;
  potential_deadlock_cycles : (Op.obj * string) list list;
}

type t = {
  verdict : verdict;
  stats : stats;
  metrics : Fairmc_obs.Metrics.Snapshot.t;
  analysis : analysis option;
}

let found_error t =
  match t.verdict with
  | Safety_violation _ | Deadlock _ | Divergence _ | Race _ | Crash _ -> true
  | Verified | Limits_reached -> false

let verdict_name = function
  | Verified -> "verified"
  | Safety_violation _ -> "safety violation"
  | Deadlock _ -> "deadlock"
  | Divergence { kind = Fair_nontermination; _ } -> "livelock (fair nontermination)"
  | Divergence { kind = Good_samaritan_violation t; _ } ->
    Printf.sprintf "good-samaritan violation (thread %d)" t
  | Race { race; _ } -> Printf.sprintf "data race (%s) on %s" race.detector race.obj_name
  | Crash { reason; _ } -> Printf.sprintf "worker crash (%s)" reason
  | Limits_reached -> "limits reached"

(* The canonical short keys: exactly the EXPECTED column of `chess list` and
   the verdict selector of `chess sweep`. A round-trip test keeps the
   registry's expectation strings in sync with this function. *)
let verdict_key = function
  | Verified -> "verified"
  | Safety_violation _ -> "safety"
  | Deadlock _ -> "deadlock"
  | Divergence { kind = Fair_nontermination; _ } -> "livelock"
  | Divergence { kind = Good_samaritan_violation _; _ } -> "good-samaritan"
  | Race _ -> "race"
  | Crash _ -> "crash"
  | Limits_reached -> "limits"

let verdict_keys =
  [ "verified"; "safety"; "deadlock"; "livelock"; "good-samaritan"; "race"; "crash"; "limits" ]

let cex t =
  match t.verdict with
  | Safety_violation { cex; _ } | Deadlock { cex } | Divergence { cex; _ }
  | Race { cex; _ } | Crash { cex; _ } -> Some cex
  | Verified | Limits_reached -> None

(* Wall time of the search phase alone: the span-derived [search_elapsed]
   excludes startup work (program loading) that
   [elapsed] includes, so short runs are not inflated. Falls back to
   [elapsed] for stats that predate the field (old checkpoints). *)
let search_time s = if s.search_elapsed > 0. then s.search_elapsed else s.elapsed

let execs_per_sec s =
  let t = search_time s in
  if t > 0. then float_of_int s.executions /. t else 0.

let completion s = Fairmc_obs.Estimator.completion ~mass:s.probe_mass

let est_total s =
  Fairmc_obs.Estimator.est_total ~mass:s.probe_mass ~executions:s.executions

let eta s = Fairmc_obs.Estimator.eta ~mass:s.probe_mass ~elapsed:(search_time s)

let digest_add a b = (a + b) land ((1 lsl 61) - 1)
let digest_hex d = Printf.sprintf "%016x" d

let digest_of_hex s =
  match int_of_string_opt ("0x" ^ s) with
  | Some d when String.length s = 16 && digest_add d 0 = d -> Some d
  | _ -> None

(* The lock-graph counters are set-derived, so summing them across shards
   (or across a resumed session and its checkpointed prefix) would
   double-count shared edges; overwrite them from the merged union, keeping
   the counter slice jobs- and interruption-invariant like every other
   counter. *)
let fix_lockgraph_counters metrics analysis =
  let module MS = Fairmc_obs.Metrics.Snapshot in
  match analysis with
  | Some (a : analysis) when MS.find metrics "analysis/lockgraph/edges" <> None ->
    let m =
      MS.with_counter metrics "analysis/lockgraph/edges" (List.length a.lock_order_edges)
    in
    MS.with_counter m "analysis/lockgraph/cycles" (List.length a.potential_deadlock_cycles)
  | Some _ | None -> metrics

let pp_stats ppf s =
  Format.fprintf ppf
    "executions: %d, transitions: %d%s%s%s%s, max depth: %d, elapsed: %.3fs"
    s.executions s.transitions
    (if s.states > 0 then Printf.sprintf ", states: %d" s.states else "")
    (if s.nonterminating > 0 then Printf.sprintf ", nonterminating: %d" s.nonterminating else "")
    (if s.depth_bound_hits > 0 then Printf.sprintf ", depth-bound hits: %d" s.depth_bound_hits
     else "")
    (if s.sleep_set_prunes > 0 then Printf.sprintf ", sleep-set prunes: %d" s.sleep_set_prunes
     else "")
    s.max_depth s.elapsed

let pp_summary ppf t =
  Format.fprintf ppf "%s (%a, %.0f execs/s)" (verdict_name t.verdict) pp_stats t.stats
    (execs_per_sec t.stats)

let pp_cycle ppf cycle =
  let names = List.map snd cycle in
  Format.fprintf ppf "%s"
    (String.concat " -> " (names @ [ List.nth names 0 ]))

let pp ppf t =
  Format.fprintf ppf "@[<v>result: %s@,%a@]" (verdict_name t.verdict) pp_stats t.stats;
  let cex =
    match t.verdict with
    | Safety_violation { cex; failure; tid } ->
      Format.fprintf ppf "@,thread %d: %a" tid Engine.pp_failure failure;
      Some cex
    | Race { race; cex } ->
      Format.fprintf ppf
        "@,%s detector: thread %d %s (step %d) races with thread %d %s (step %d) on %s"
        race.detector race.a_tid (Op.to_string race.a_op) race.a_step race.b_tid
        (Op.to_string race.b_op) race.b_step race.obj_name;
      Some cex
    | Crash { reason; cex } ->
      Format.fprintf ppf "@,worker crash: %s" reason;
      Some cex
    | Deadlock { cex } | Divergence { cex; _ } -> Some cex
    | Verified | Limits_reached -> None
  in
  (match t.analysis with
   | Some { potential_deadlock_cycles = (_ :: _ as cycles); _ } ->
     Format.fprintf ppf "@,@[<v>potential deadlocks (lock-order cycles):%a@]"
       (fun ppf -> List.iter (Format.fprintf ppf "@,  %a" pp_cycle))
       cycles
   | Some _ | None -> ());
  match cex with
  | None -> ()
  | Some cex -> Format.fprintf ppf "@,@[<v>counterexample (%d steps):@,%s@]" cex.length cex.rendered

(* ------------------------------------------------------------------ *)
(* JSON export.                                                        *)

let opt_int = function None -> Json.Null | Some i -> Json.Int i
let opt_float = function None -> Json.Null | Some f -> Json.Float f

let stats_to_json s =
  Json.Obj
    [ ("executions", Json.Int s.executions);
      ("transitions", Json.Int s.transitions);
      ("states", Json.Int s.states);
      ("nonterminating", Json.Int s.nonterminating);
      ("depth_bound_hits", Json.Int s.depth_bound_hits);
      ("sleep_set_prunes", Json.Int s.sleep_set_prunes);
      ("yields", Json.Int s.yields);
      ("max_depth", Json.Int s.max_depth);
      ("elapsed_seconds", Json.Float s.elapsed);
      ("executions_per_second", Json.Float (execs_per_sec s));
      ("first_error_execution", opt_int s.first_error_execution);
      ("first_error_seconds", opt_float s.first_error_time);
      ("sync_ops_per_exec", Json.Int s.sync_ops_per_exec);
      ("max_threads", Json.Int s.max_threads);
      ("search_elapsed_seconds", Json.Float (search_time s));
      ("probe_mass", Json.Int s.probe_mass);
      ("path_digest", Json.Str (digest_hex s.path_digest));
      ("completion", Json.Float (completion s));
      ("estimated_total_executions", opt_int (est_total s));
      ("eta_seconds", opt_float (eta s)) ]

let cex_to_json (c : counterexample) =
  Json.Obj
    [ ("length", Json.Int c.length);
      ("decisions",
       Json.Arr (List.map (fun (tid, alt) -> Json.Arr [ Json.Int tid; Json.Int alt ]) c.decisions)) ]

let verdict_to_json v =
  let kind, extra =
    match v with
    | Verified -> ("verified", [])
    | Limits_reached -> ("limits_reached", [])
    | Safety_violation { tid; failure; cex } ->
      ( "safety_violation",
        [ ("tid", Json.Int tid);
          ("failure", Json.Str (Format.asprintf "%a" Engine.pp_failure failure));
          ("counterexample", cex_to_json cex) ] )
    | Deadlock { cex } -> ("deadlock", [ ("counterexample", cex_to_json cex) ])
    | Crash { reason; cex } ->
      ("crash", [ ("reason", Json.Str reason); ("counterexample", cex_to_json cex) ])
    | Race { race; cex } ->
      ( "race",
        [ ("detector", Json.Str race.detector);
          ("object", Json.Obj [ ("id", Json.Int race.obj); ("name", Json.Str race.obj_name) ]);
          ("first",
           Json.Obj
             [ ("tid", Json.Int race.a_tid);
               ("step", Json.Int race.a_step);
               ("op", Json.Str (Op.to_string race.a_op)) ]);
          ("second",
           Json.Obj
             [ ("tid", Json.Int race.b_tid);
               ("step", Json.Int race.b_step);
               ("op", Json.Str (Op.to_string race.b_op)) ]);
          ("counterexample", cex_to_json cex) ] )
    | Divergence { kind; cex } ->
      ( "divergence",
        [ ("divergence_kind",
           match kind with
           | Fair_nontermination -> Json.Str "fair_nontermination"
           | Good_samaritan_violation t ->
             Json.Obj [ ("good_samaritan_violation", Json.Int t) ]);
          ("counterexample", cex_to_json cex) ] )
  in
  Json.Obj (("kind", Json.Str kind) :: extra)

let analysis_to_json (a : analysis) =
  let obj_json (id, name) = Json.Obj [ ("id", Json.Int id); ("name", Json.Str name) ] in
  Json.Obj
    [ ("lock_order_edges",
       Json.Arr
         (List.map
            (fun (e : Analysis_hook.lock_edge) ->
              Json.Obj
                [ ("from", obj_json (e.e_from, e.e_from_name));
                  ("to", obj_json (e.e_to, e.e_to_name)) ])
            a.lock_order_edges));
      ("potential_deadlock_cycles",
       Json.Arr
         (List.map (fun c -> Json.Arr (List.map obj_json c)) a.potential_deadlock_cycles)) ]

(* Schema history: /1 — initial; /2 — adds the "race" verdict kind, the
   top-level "analysis" object (when analyses ran), "verdict_key", and
   (additively, PR 7) the search-phase wall time and progress-estimate
   fields in "stats", and later "path_digest" there too. The single source
   of truth for the tag is [schema_version]; nothing else in the tree
   spells the string out. *)
let schema_version = "fairmc-report/2"

let to_json ?program ?config ?lint t =
  let opt_str name v = match v with None -> [] | Some s -> [ (name, Json.Str s) ] in
  Json.Obj
    ([ ("schema", Json.Str schema_version) ]
     @ opt_str "program" program
     @ opt_str "config" config
     @ [ ("verdict", verdict_to_json t.verdict);
         ("verdict_key", Json.Str (verdict_key t.verdict));
         ("stats", stats_to_json t.stats);
         ("metrics", Fairmc_obs.Metrics.Snapshot.to_json t.metrics) ]
     @ (match t.analysis with
        | None -> []
        | Some a -> [ ("analysis", analysis_to_json a) ])
     (* Static-analysis summary (count + per-rule kinds), attached by the
        CLI when a ChessLang program runs with static analysis enabled. *)
     @ (match lint with None -> [] | Some j -> [ ("lint", j) ]))
