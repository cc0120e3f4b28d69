(* The paper's Figure 8: a data-parallel promise library whose optimized
   await caches the completion flag in a local and forgets to re-read it.
   Every loop iteration sleeps — a yield — so the resulting infinite
   execution is *fair*: exactly the class of bug (a livelock) that only fair
   stateless model checking detects (outcome 3 of Section 2).

   Run with: dune exec examples/promise_livelock.exe *)

open Fairmc_core
module W = Fairmc_workloads

let () =
  let config = { Search_config.default with livelock_bound = Some 800 } in
  (* The buggy library. *)
  let buggy = W.Promise.program W.Promise.Stale_cache in
  Format.printf "checking %s ...@." buggy.Program.name;
  (match (Checker.check ~config buggy).verdict with
   | Report.Divergence { kind = Report.Fair_nontermination; cex } ->
     Format.printf "livelock found (fair nontermination) — the consumer spins forever:@.";
     let lines = String.split_on_char '\n' cex.rendered in
     List.iteri (fun i l -> if i < 6 then print_endline l) lines
   | v -> Format.printf "unexpected verdict: %s@." (Report.verdict_name v));
  Format.printf "@.";
  (* The corrected library (re-reads the flag): verified. *)
  let fixed = W.Promise.program W.Promise.Spin_then_sleep in
  Format.printf "checking %s ...@." fixed.Program.name;
  Format.printf "%a@.@." Report.pp_summary (Checker.check ~config fixed);
  (* The library in its intended data-parallel shape. *)
  let pipeline = W.Promise.pipeline_program ~width:2 W.Promise.Blocking in
  Format.printf "checking %s ...@." pipeline.Program.name;
  Format.printf "%a@." Report.pp_summary
    (Checker.check
       ~config:{ config with mode = Search_config.Context_bounded 2 }
       pipeline)
