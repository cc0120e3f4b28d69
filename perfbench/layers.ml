(* Per-call costs of Engine and Fair_sched, timed from outside lib/.

   A seeded fair random walk over an input's tree records each step's
   decision and the enabled sets around it. The benchmark then replays
   the decisions through Engine.start/step alone, and the scheduler
   inputs through Fair_sched.schedulable/step alone, so each layer's cost
   per call is measured without the other's. Walks honour the input's
   context bound, so their paths look like the ones its search explores. *)

open Fairmc_core
module B = Fairmc_util.Bitset

type step = {
  tid : int;
  alt : int;
  yielded : bool;
  es_before : B.t;
  es_after : B.t;
  spawned : int;
}

type path = { n0 : int; steps : step array }

let walk rng (cfg : Search_config.t) prog =
  let run = Engine.start prog in
  Fun.protect ~finally:(fun () -> Engine.stop run) @@ fun () ->
  let n0 = Engine.nthreads run in
  let fair = ref (Fair_sched.create ~nthreads:n0 ~k:cfg.fair_k ()) in
  let budget =
    ref (match cfg.mode with Search_config.Context_bounded c -> c | _ -> max_int)
  in
  let bound =
    if cfg.fair then Option.value cfg.livelock_bound ~default:cfg.max_steps
    else cfg.max_steps
  in
  let last = ref (-1) in
  let steps = ref [] in
  let rec go () =
    let es = Engine.enabled_set run in
    if
      Engine.failure run = None
      && (not (Engine.all_finished run))
      && (not (B.is_empty es))
      && Engine.steps run < bound
    then begin
      let tset = if cfg.fair then Fair_sched.schedulable !fair ~enabled:es else es in
      let tid =
        if !budget = 0 && B.mem !last tset then !last
        else begin
          let t = B.nth tset (Random.State.int rng (B.cardinal tset)) in
          if !last >= 0 && t <> !last && B.mem !last tset then decr budget;
          t
        end
      in
      let alt = Random.State.int rng (max 1 (Engine.alternatives run tid)) in
      let yielded = Engine.would_yield run tid in
      let nth = Engine.nthreads run in
      Engine.step run ~tid ~alt;
      let spawned = Engine.nthreads run - nth in
      let es_after = Engine.enabled_set run in
      for _ = 1 to spawned do
        fair := Fair_sched.add_thread !fair
      done;
      if cfg.fair then
        fair := Fair_sched.step !fair ~chosen:tid ~yielded ~es_before:es ~es_after;
      steps := { tid; alt; yielded; es_before = es; es_after; spawned } :: !steps;
      last := tid;
      go ()
    end
  in
  go ();
  { n0; steps = Array.of_list (List.rev !steps) }

let sample rng cfg prog ~paths =
  List.filter
    (fun p -> Array.length p.steps > 0)
    (List.init paths (fun _ -> walk rng cfg prog))

(* Per path: Engine.start in microseconds and Engine.step in nanoseconds,
   each the mean over [reps] replays; plus the input's aggregate step cost
   (total step time over total steps), the figure its share is built on. *)
type engine_costs = {
  start_us : float list;
  step_ns : float list;
  mean_start_us : float;
  agg_step_ns : float;
}

let engine_costs prog paths ~reps =
  let fr = float_of_int reps in
  let per_path =
    List.map
      (fun p ->
        let t0 = Measure.now () in
        for _ = 1 to reps do
          Engine.stop (Engine.start prog)
        done;
        let t1 = Measure.now () in
        for _ = 1 to reps do
          let run = Engine.start prog in
          Array.iter (fun s -> Engine.step run ~tid:s.tid ~alt:s.alt) p.steps;
          Engine.stop run
        done;
        let t2 = Measure.now () in
        let start = (t1 -. t0) /. fr in
        let steps = Float.max 0. (((t2 -. t1) /. fr) -. start) in
        (start, steps, Array.length p.steps))
      paths
  in
  let total_steps = List.fold_left (fun a (_, _, n) -> a + n) 0 per_path in
  let total_time = List.fold_left (fun a (_, t, _) -> a +. t) 0. per_path in
  { start_us = List.map (fun (s, _, _) -> s *. 1e6) per_path;
    step_ns = List.map (fun (_, t, n) -> t *. 1e9 /. float_of_int n) per_path;
    mean_start_us = Measure.mean (List.map (fun (s, _, _) -> s *. 1e6) per_path);
    agg_step_ns =
      (if total_steps = 0 then 0. else total_time *. 1e9 /. float_of_int total_steps) }

(* Per path: Fair_sched.schedulable + Fair_sched.step per transition, in
   nanoseconds, from a fresh scheduler; plus the aggregate as above. *)
let fair_sched_costs ~k paths ~reps =
  let per_path =
    List.map
      (fun p ->
        let t0 = Measure.now () in
        for _ = 1 to reps do
          let fs = ref (Fair_sched.create ~nthreads:p.n0 ~k ()) in
          Array.iter
            (fun s ->
              ignore (Sys.opaque_identity (Fair_sched.schedulable !fs ~enabled:s.es_before));
              for _ = 1 to s.spawned do
                fs := Fair_sched.add_thread !fs
              done;
              fs :=
                Fair_sched.step !fs ~chosen:s.tid ~yielded:s.yielded
                  ~es_before:s.es_before ~es_after:s.es_after)
            p.steps
        done;
        ((Measure.now () -. t0) /. float_of_int reps, Array.length p.steps))
      paths
  in
  let total_steps = List.fold_left (fun a (_, n) -> a + n) 0 per_path in
  let total_time = List.fold_left (fun a (t, _) -> a +. t) 0. per_path in
  ( List.map (fun (t, n) -> t *. 1e9 /. float_of_int n) per_path,
    if total_steps = 0 then 0. else total_time *. 1e9 /. float_of_int total_steps )
