(* The correctness gate: a verdict must equal its known answer and its
   counterexample must replay. Search.replay yields [Replayed_failure] only
   for failures the engine records (safety violations); a deadlock replays
   to a state where every thread is disabled (Theorem 3), and a divergence
   prefix must apply in full without reaching a failure. *)

open Fairmc_core

(* [key] is the {!Report.verdict_key} the schedule was reported under. *)
let replay_problem prog ~key decisions =
  let deadlocked = ref false in
  let outcome =
    Search.replay prog decisions (fun run -> deadlocked := Engine.deadlocked run)
  in
  match (key, outcome) with
  | _, Search.Replay_mismatch { step; tid } ->
    Some (Printf.sprintf "counterexample does not replay (step %d, thread %d)" step tid)
  | "safety", Search.Replayed_failure _ -> None
  | "safety", _ -> Some "safety counterexample does not replay to its failure"
  | "deadlock", Search.Replayed_no_failure when !deadlocked || decisions = [] -> None
  | "deadlock", _ -> Some "deadlock counterexample does not replay to a deadlock"
  | ("livelock" | "good-samaritan"), Search.Replayed_failure _ ->
    Some "divergence counterexample replays to a failure"
  | _ -> None

let problems ~label ~expected prog (report : Report.t) =
  let key = Report.verdict_key report.Report.verdict in
  (if key = expected then []
   else [ Printf.sprintf "%s: verdict %s, expected %s" label key expected ])
  @
  match Option.bind (Report.cex report) (fun c -> replay_problem prog ~key c.Report.decisions) with
  | None -> []
  | Some p -> [ Printf.sprintf "%s: %s" label p ]
