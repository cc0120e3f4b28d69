(* The paper's motivating example (Figure 1): two dining philosophers with
   try-acquire retry loops. A conventional stateless model checker can only
   depth-bound this program and never sees the livelock; the fair scheduler
   prunes the unfair spins, drives the search into the fair retry cycle, and
   reports the divergence with its trace.

   Run with: dune exec examples/dining_livelock.exe *)

open Fairmc_core
module W = Fairmc_workloads

let check_variant variant =
  let prog = W.Dining.program ~n:2 variant in
  Format.printf "--- %s ---@." prog.Program.name;
  let config = { Search_config.default with livelock_bound = Some 1_000 } in
  let report = Checker.check ~config prog in
  (match report.verdict with
   | Report.Divergence { kind; cex } ->
     Format.printf "%s after %d executions; last steps of the divergence:@."
       (Report.verdict_name report.verdict)
       report.stats.executions;
     ignore kind;
     (* Show just the repeating pattern at the end of the trace. *)
     let lines = String.split_on_char '\n' cex.rendered in
     let tail = List.filteri (fun i _ -> i >= List.length lines - 8) lines in
     List.iter print_endline tail
   | _ -> Format.printf "%a@." Report.pp_summary report);
  Format.printf "@."

let () =
  (* Figure 1 verbatim: the retry loops never yield, so the divergence the
     checker finds first is a good-samaritan violation (a philosopher
     spinning without yielding while starving the other). *)
  check_variant W.Dining.Try_acquire;
  (* The same program written by a good samaritan (yield on the retry path):
     now the divergence is a *fair* cycle — the classic livelock, which only
     a fair scheduler can distinguish from exploration noise. *)
  check_variant W.Dining.Try_acquire_yield;
  (* And the fixed protocol (ordered fork acquisition) verifies outright. *)
  check_variant W.Dining.Ordered
