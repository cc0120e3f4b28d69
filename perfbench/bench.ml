(* Workload processes of the repository benchmark; run.py starts one per
   workload run and reads the JSON line it prints.

     bench.exe native|chesslang --seed N --round K --trace 0|1 --programs DIR
     bench.exe service --seed N --rounds R --trace 0|1 --programs DIR
       --chessd EXE
     bench.exe arm par|sup --seed N

   An untraced native or chesslang process makes one pass, then times
   set-up and re-rendering the pass's reports.

   An [arm] runs native's largest input once with two domains (-j 2,
   Par_search) or two worker processes (--workers 2, Supervisor), each
   in a fresh process: OCaml 5 forbids fork once a domain exists. *)

open Fairmc_core

let arm which ~seed =
  match Inproc.native ~seed with
  | [] -> ()
  | input :: _ ->
    let prog, _ = input.Inproc.setup () in
    let cfg =
      match which with
      | "par" -> { input.Inproc.cfg with Search_config.jobs = 2; metrics = true }
      | "sup" -> { input.Inproc.cfg with Search_config.workers = 2; metrics = true }
      | w -> failwith ("unknown arm " ^ w)
    in
    let t0 = Measure.now () in
    let report = Checker.check ~config:cfg prog in
    let dt = Measure.now () -. t0 in
    let gauge name =
      match Fairmc_obs.Metrics.Snapshot.find report.Report.metrics name with
      | Some (Fairmc_obs.Metrics.Snapshot.Gauge n) -> n
      | _ -> 0
    in
    let guard =
      if which = "sup" && (gauge "sup/spawns" = 0 || gauge "sup/retries" > 0) then
        [ Printf.sprintf "--workers 2 arm: sup/spawns %d, sup/retries %d" (gauge "sup/spawns")
            (gauge "sup/retries") ]
      else []
    in
    Out.operation
      (guard
      @ Verify.problems ~label:input.Inproc.label ~expected:input.Inproc.expected prog report);
    Out.value (if which = "par" then "par_search.verdict_s" else "supervisor.verdict_s") "s" dt

let () =
  (* A signal still runs at_exit, which stops every daemon started here. *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> exit 143)))
    [ Sys.sigterm; Sys.sigint ];
  let args = Array.to_list Sys.argv in
  let opt name default =
    let rec find = function
      | k :: v :: _ when k = name -> v
      | _ :: rest -> find rest
      | [] -> default
    in
    find args
  in
  let seed = int_of_string (opt "--seed" "1") in
  let rounds = int_of_string (opt "--rounds" "1") in
  let round = int_of_string (opt "--round" "1") in
  let trace = opt "--trace" "0" = "1" in
  let programs = opt "--programs" "perfbench/programs" in
  (match args with
   | _ :: "arm" :: which :: _ -> arm which ~seed
   | _ :: (("native" | "chesslang") as w) :: _ ->
     Inproc.run ~chess:(w = "chesslang") ~seed ~round ~trace ~programs
   | _ :: "service" :: _ ->
     Service.run ~seed ~rounds ~trace ~programs ~chessd:(opt "--chessd" "chessd.exe")
   | _ ->
     prerr_endline "usage: bench.exe native|chesslang|service|arm ... (see run.py)";
     exit 2);
  Out.print ()
