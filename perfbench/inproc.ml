(* The native and chesslang workloads: the calls `chess check` makes —
   load the program, Checker.check, render the report with Report.pp and
   Report.to_json — run here, in this process, over a fixed list of
   inputs with pinned verdicts.

   Untraced, a run is [rounds] passes over every input in a seeded order;
   verdict_s is one pass's wall time, so only speed varies between seeds.
   Traced, one untraced pass is followed by a pass with the metrics
   registry on (for the layer counters), per-call timings of the front
   end, Engine and Fair_sched, and the per-layer shares of verdict_s. *)

open Fairmc_core
module J = Fairmc_util.Json
module D = Fairmc_dsl
module St = Fairmc_static

type input = {
  label : string;
  expected : string;  (** {!Report.verdict_key} of the known answer *)
  cfg : Search_config.t;
  setup : unit -> Program.t * J.t option;  (** program and lint block *)
  source : string option;  (** ChessLang text *)
}

let config ?(max_steps = Search_config.default.max_steps) ?livelock ~seed mode =
  { Search_config.default with
    mode;
    max_steps;
    livelock_bound = (if livelock = None then Search_config.default.livelock_bound else livelock);
    seed = Int64.of_int seed }

let registry name =
  match Fairmc_workloads.Registry.find name with
  | Some e -> e
  | None -> failwith ("unknown registry program " ^ name)

(* Registry programs at their registry verdicts. The shapes differ on
   purpose: shallow and wide (wsq), deep and narrow (dryad), long fair
   paths driven by yields (dining livelock), and a bug after ~40k paths. *)
let native ~seed =
  List.map
    (fun (name, label, mode, livelock) ->
      { label;
        expected = (registry name).Fairmc_workloads.Registry.expected;
        cfg = config ?livelock ~seed mode;
        setup =
          (fun () ->
            (* Program construction, then the first boot. *)
            let p = (registry name).Fairmc_workloads.Registry.program in
            Engine.stop (Engine.start p);
            (p, None));
        source = None })
    [ ("wsq-2s-correct", "wsq-2s-correct cb:2", Search_config.Context_bounded 2, None);
      ("dryad-fifo-5", "dryad-fifo-5 cb:1", Search_config.Context_bounded 1, None);
      ("dining-2-tryacquire+yield", "dining-2-tryacquire+yield lb:2000", Search_config.Dfs,
       Some 2000);
      ("channel-bug4", "channel-bug4", Search_config.Dfs, None) ]

(* ChessLang sources kept with the benchmark, with pinned verdicts. The
   set-up is what `chess check` does for a .chess file with static POR on:
   parse, sema + visibility analysis, merged compile, lint summary. *)
let chesslang ~seed ~programs =
  List.map
    (fun (file, mode, max_steps, livelock, expected) ->
      let src = In_channel.with_open_bin (Filename.concat programs file) In_channel.input_all in
      { label = file;
        expected;
        cfg = config ?max_steps ?livelock ~seed mode;
        setup =
          (fun () ->
            let ast = D.Parser.parse_string ~name:file src in
            (St.compile ast, Some (St.Lint.summary_json (St.Lint.run ast))));
        source = Some src })
    [ ("compute_heavy.chess", Search_config.Context_bounded 2, Some 100_000, Some 100_000,
       "verified");
      ("peterson.chess", Search_config.Dfs, None, None, "verified");
      ("bounded_buffer.chess", Search_config.Dfs, None, None, "verified");
      ("stale_flag_livelock.chess", Search_config.Dfs, None, None, "livelock") ]

let render (prog : Program.t) cfg lint report =
  let text = Format.asprintf "%a" Report.pp report in
  let doc =
    J.to_string
      (Report.to_json ~program:prog.Program.name ~config:(Search_config.describe cfg) ?lint
         report)
  in
  String.length text + String.length doc

type result = {
  input : input;
  prog : Program.t;
  lint : J.t option;
  report : Report.t;
  seconds : float;  (** Checker.check through the rendered report *)
}

type pass = { wall : float; cpu : float; results : result list }

let pass ?(traced = false) rng loaded =
  Gc.compact ();
  let order = Measure.shuffle rng loaded in
  let c0 = Measure.cpu_self () in
  let t0 = Measure.now () in
  let results =
    List.map
      (fun (input, (prog, lint)) ->
        let cfg =
          if traced then { input.cfg with Search_config.metrics = true } else input.cfg
        in
        let t0 = Measure.now () in
        let report = Checker.check ~config:cfg prog in
        ignore (Sys.opaque_identity (render prog cfg lint report));
        { input; prog; lint; report; seconds = Measure.now () -. t0 })
      order
  in
  let wall = Measure.now () -. t0 in
  let cpu = Measure.cpu_self () -. c0 in
  List.iter
    (fun r ->
      Out.operation
        (Verify.problems ~label:r.input.label ~expected:r.input.expected r.prog r.report))
    results;
  { wall; cpu; results }

(* Seconds per render of each finished report, [batches] samples each. *)
let render_samples results ~batches =
  List.map
    (fun r ->
      ( r,
        Measure.batched ~batches ~per_batch:10 (fun () ->
            render r.prog r.input.cfg r.lint r.report) ))
    results

(* A counter, or a gauge such as static/invisible_merged. *)
let counter (r : Report.t) name =
  match Fairmc_obs.Metrics.Snapshot.find r.Report.metrics name with
  | Some (Fairmc_obs.Metrics.Snapshot.Counter n | Fairmc_obs.Metrics.Snapshot.Gauge n) -> n
  | _ -> 0

let sum f xs = List.fold_left (fun a x -> a +. f x) 0. xs
let paths_per_input = 32
let reps_per_path = 3

(* The per-layer view. verdict_s is split into the engine's share
   (Engine.start per execution + Engine.step per transition), the VM's
   (ChessLang: Engine.step above the native engine floor), the fair
   scheduler's (schedulable + step per transition), the report's
   (rendering), and what remains: the search's own time. *)
let traced ~chess ~seed loaded ~(untraced : pass) =
  let rng = Random.State.make [| seed; 1 |] in
  let tr = pass ~traced:true rng loaded in
  Out.value "trace.untraced_verdict_s" "s" untraced.wall;
  Out.value "trace.traced_verdict_s" "s" tr.wall;
  Out.value "trace.overhead_s" "s" (tr.wall -. untraced.wall);
  let counts f = sum (fun r -> float_of_int (f r.report)) tr.results in
  let replay = counts (fun r -> counter r "search/steps/replay") in
  let fresh = counts (fun r -> counter r "search/steps/fresh") in
  Out.value "search.executions" "count" (counts (fun r -> r.Report.stats.Report.executions));
  Out.value "search.replay_steps" "count" replay;
  Out.value "search.fresh_steps" "count" fresh;
  Out.value "search.fresh_share" "ratio"
    (if replay +. fresh > 0. then fresh /. (replay +. fresh) else 0.);
  Out.value "engine.transitions" "count" (counts (fun r -> r.Report.stats.Report.transitions));
  Out.value "fair_sched.edges_added" "count"
    (counts (fun r -> counter r "sched/priority_edges_added"));
  Out.value "static.invisible_merged" "count"
    (counts (fun r -> counter r "static/invisible_merged"));
  (* Front end, per ChessLang source, each call timed over a batch. *)
  let sources =
    List.filter_map
      (fun (i, _) ->
        Option.map
          (fun src ->
            let ast = D.Parser.parse_string ~name:i.label src in
            let merged = (St.Visibility.analyze ast).St.Visibility.invisible in
            (i.label, src, ast, fun n -> List.mem n merged))
          i.source)
      loaded
  in
  let front name f =
    Out.add ~latency:true name "us"
      (List.concat_map
         (fun s ->
           List.map (fun t -> t *. 1e6) (Measure.batched ~batches:12 ~per_batch:20 (fun () -> f s)))
         sources)
  in
  front "dsl.parse_us" (fun (name, src, _, _) -> D.Parser.parse_string ~name src);
  front "static.analyze_us" (fun (_, _, ast, _) -> St.Visibility.analyze ast);
  front "static.lint_us" (fun (_, _, ast, _) -> St.Lint.run ast);
  front "dsl.compile_us" (fun (_, _, ast, invisible) -> D.Vm.compile ~invisible ast);
  Out.value "dsl.code_words" "count"
    (sum
       (fun (_, _, ast, invisible) ->
         let c = D.Compile.compile ~invisible ast in
         sum (fun t -> float_of_int (Array.length t.D.Compile.t_code))
           (Array.to_list c.D.Compile.c_threads))
       sources);
  (* Engine and Fair_sched per call, over seeded samples of each input's
     paths; ChessLang inputs also need the native engine floor. *)
  let sampled =
    List.map
      (fun (input, (prog, _)) ->
        let ps = Layers.sample rng input.cfg prog ~paths:paths_per_input in
        let ec = Layers.engine_costs prog ps ~reps:reps_per_path in
        let fs, fs_agg =
          Layers.fair_sched_costs ~k:input.cfg.Search_config.fair_k ps ~reps:reps_per_path
        in
        (input.label, (ec, fs, fs_agg)))
      loaded
  in
  let floor =
    if chess then
      match native ~seed with
      | input :: _ ->
        let prog, _ = input.setup () in
        let ps = Layers.sample rng input.cfg prog ~paths:paths_per_input in
        Some (Layers.engine_costs prog ps ~reps:reps_per_path)
      | [] -> None
    else None
  in
  let all f = List.concat_map (fun (_, x) -> f x) sampled in
  Out.add ~latency:true "engine.start_us" "us" (all (fun (ec, _, _) -> ec.Layers.start_us));
  (match floor with
   | Some fl ->
     Out.add ~latency:true "engine.step_ns" "ns" fl.Layers.step_ns;
     Out.add ~latency:true "dsl.vm_step_ns" "ns" (all (fun (ec, _, _) -> ec.Layers.step_ns))
   | None ->
     Out.add ~latency:true "engine.step_ns" "ns" (all (fun (ec, _, _) -> ec.Layers.step_ns));
     Out.add ~latency:true "dsl.vm_step_ns" "ns" []);
  Out.add ~latency:true "fair_sched.step_ns" "ns" (all (fun (_, fs, _) -> fs));
  let renders = render_samples untraced.results ~batches:5 in
  Out.add ~latency:true "report.render_ms" "ms"
    (List.concat_map (fun (_, xs) -> List.map (fun x -> x *. 1e3) xs) renders);
  (* Shares of the untraced pass, from its per-input counts. *)
  let share f =
    sum
      (fun r ->
        let ec, _, fs_agg = List.assoc r.input.label sampled in
        let st = r.report.Report.stats in
        f r ec fs_agg (float_of_int st.Report.executions) (float_of_int st.Report.transitions))
      untraced.results
  in
  let floor_ns (ec : Layers.engine_costs) =
    match floor with Some fl -> fl.Layers.agg_step_ns | None -> ec.Layers.agg_step_ns
  in
  let engine =
    share (fun _ ec _ execs trans ->
        (execs *. ec.Layers.mean_start_us *. 1e-6) +. (trans *. floor_ns ec *. 1e-9))
  in
  let vm =
    share (fun _ ec _ _ trans ->
        trans *. Float.max 0. (ec.Layers.agg_step_ns -. floor_ns ec) *. 1e-9)
  in
  let fair =
    share (fun r _ fs_agg _ trans ->
        if r.input.cfg.Search_config.fair then trans *. fs_agg *. 1e-9 else 0.)
  in
  let report = sum (fun (_, xs) -> Measure.mean xs) renders in
  Out.value "engine.share_s" "s" engine;
  Out.value "dsl.vm_share_s" "s" vm;
  Out.value "fair_sched.share_s" "s" fair;
  Out.value "report.share_s" "s" report;
  Out.value "search.self_s" "s" (untraced.wall -. engine -. vm -. fair -. report)

(* setup_s, after a pass in its process and once its peak RSS is read
   (repeated set-ups leave dropped fibers behind), on a compacted heap as
   in the fresh process a check starts in: left as the pass leaves it,
   the heap makes ChessLang set-up flip between two speeds from one
   process to the next. One set-up of every input is far shorter than
   the clock can time, so each sample is the mean of a batch of about
   10 ms. *)
let micro ~chess inputs =
  Gc.compact ();
  Out.add "setup_s" "s"
    (Measure.batched ~batches:100 ~per_batch:(if chess then 10 else 200) (fun () ->
         List.map (fun i -> i.setup ()) inputs))

(* Untraced, this process makes pass [round] of a run: run.py starts one
   process per pass, so no pass inherits another's heap. *)
let run ~chess ~seed ~round ~trace ~programs =
  let inputs = if chess then chesslang ~seed ~programs else native ~seed in
  let loaded = List.map (fun i -> (i, i.setup ())) inputs in
  let rng = Random.State.make [| seed; round |] in
  if trace then traced ~chess ~seed loaded ~untraced:(pass rng loaded)
  else begin
    let p = pass rng loaded in
    Out.value "verdict_s" "s" p.wall;
    Out.value "cpu_s" "s" p.cpu;
    Out.value "peak_rss_mb" "MB"
      (Measure.mb (Option.value (Measure.status_kb 0 "VmHWM") ~default:0));
    micro ~chess inputs
  end
