(* Telemetry tests: event envelope codec, stream sequencing, the
   jobs-invariant deterministic event slice, probe-mass exactness and
   estimator convergence, and span/dashboard export smoke tests. *)

open Fairmc_core
module Json = Fairmc_util.Json
module Events = Fairmc_obs.Events
module Estimator = Fairmc_obs.Estimator
module Span = Fairmc_obs.Span
module Dashboard = Fairmc_obs.Dashboard
module W = Fairmc_workloads

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let base = { Search_config.default with livelock_bound = Some 2_000 }

(* ------------------------------------------------------------------ *)
(* Envelope codec.                                                     *)

let event_gen =
  let open QCheck.Gen in
  let* seq = int_bound 1_000_000 in
  let* ts_us = int_bound 1_000_000_000 in
  let* shard = int_range (-1) 15 in
  let* det = bool in
  let* kind = oneofl [ "run_start"; "path"; "span"; "error"; "custom/kind" ] in
  let* data =
    let scalar =
      oneof
        [ return Json.Null;
          map (fun b -> Json.Bool b) bool;
          map (fun i -> Json.Int i) int;
          map (fun s -> Json.Str s) string_printable ]
    in
    let* fields = list_size (int_bound 4) (pair string_printable scalar) in
    return (Json.Obj fields)
  in
  return { Events.seq; ts_us; shard; det; kind; data }

let event_arb =
  QCheck.make ~print:(fun (e : Events.event) -> Events.line e) event_gen

let event_equal (a : Events.event) (b : Events.event) =
  a.Events.seq = b.Events.seq
  && a.ts_us = b.ts_us
  && a.shard = b.shard
  && a.det = b.det
  && String.equal a.kind b.kind
  && Json.equal a.data b.data

let codec_qprops =
  [ QCheck.Test.make ~count:500 ~name:"event line round-trip" event_arb
      (fun e ->
        match Events.of_line (Events.line e) with
        | Ok e' -> event_equal e e'
        | Error msg -> QCheck.Test.fail_reportf "of_line: %s" msg);
    QCheck.Test.make ~count:500 ~name:"event json round-trip" event_arb
      (fun e ->
        match Events.of_json (Events.to_json e) with
        | Ok e' -> event_equal e e'
        | Error msg -> QCheck.Test.fail_reportf "of_json: %s" msg) ]

let codec_unit_tests =
  [ Alcotest.test_case "envelope carries the schema tag" `Quick (fun () ->
        let e =
          { Events.seq = 0; ts_us = 1; shard = -1; det = true;
            kind = "run_start"; data = Json.Obj [] }
        in
        match Json.of_string (Events.line e) with
        | Ok (Json.Obj fields) ->
          check "schema" true
            (List.assoc_opt "schema" fields = Some (Json.Str Events.schema));
          check_str "schema value" "fairmc-events/1" Events.schema
        | Ok _ -> Alcotest.fail "line is not an object"
        | Error msg -> Alcotest.fail msg);
    Alcotest.test_case "codec rejects foreign schemas and junk" `Quick (fun () ->
        let bad s =
          match Events.of_line s with Ok _ -> false | Error _ -> true
        in
        check "wrong schema" true
          (bad
             {|{"schema":"other/9","seq":0,"ts_us":0,"shard":0,"det":true,"kind":"x","data":{}}|});
        check "missing kind" true
          (bad {|{"schema":"fairmc-events/1","seq":0,"ts_us":0,"shard":0,"det":true,"data":{}}|});
        check "not json" true (bad "nope"));
    Alcotest.test_case "stream assigns gap-free sequence numbers" `Quick
      (fun () ->
        let s = Events.create ~collect:true () in
        let b0 = Events.buffer s ~shard:0 in
        let b1 = Events.buffer s ~shard:1 in
        Events.emit b0 ~det:true ~kind:"a" (Json.Obj [ ("i", Json.Int 0) ]);
        Events.emit b0 ~det:true ~kind:"b" (Json.Obj [ ("i", Json.Int 1) ]);
        Events.emit b1 ~kind:"c" (Json.Obj []);
        (* Batches flush atomically; within a batch emit order is kept. *)
        Events.flush b1;
        Events.flush b0;
        Events.flush b0 (* empty: no-op *);
        Events.post s ~shard:(-1) ~kind:"d" (Json.Obj []);
        let evs = Events.collected s in
        check_int "count" 4 (List.length evs);
        List.iteri (fun i (e : Events.event) -> check_int "seq" i e.Events.seq) evs;
        Alcotest.(check (list string))
          "order: batch1, then batch0 in emit order, then post"
          [ "c"; "a"; "b"; "d" ]
          (List.map (fun (e : Events.event) -> e.Events.kind) evs)) ]

(* ------------------------------------------------------------------ *)
(* Deterministic event slice: jobs-invariance.                         *)

(* The det slice of a collected stream as a sorted multiset of
   (kind, data) pairs — seq/ts_us/shard are explicitly excluded. *)
let det_slice evs =
  List.filter_map
    (fun (e : Events.event) ->
      if e.Events.det then Some (e.Events.kind ^ " " ^ Json.to_string e.Events.data)
      else None)
    evs
  |> List.sort String.compare

let run_collect cfg prog =
  let stream = Events.create ~collect:true () in
  let cfg = { cfg with Search_config.events = Some stream } in
  let r = Checker.check ~config:cfg prog in
  (r, Events.collected stream)

let assert_det_events_jobs_invariant name cfg prog =
  let r1, evs1 = run_collect { cfg with Search_config.jobs = 1 } prog in
  List.iter
    (fun jobs ->
      let rj, evsj = run_collect { cfg with Search_config.jobs = jobs } prog in
      Alcotest.(check (list string))
        (Printf.sprintf "%s: det events j=1 vs j=%d" name jobs)
        (det_slice evs1) (det_slice evsj);
      check_int
        (Printf.sprintf "%s: probe mass j=1 vs j=%d" name jobs)
        r1.Report.stats.probe_mass rj.Report.stats.probe_mass)
    [ 2; 4 ]

let determinism_tests =
  [ Alcotest.test_case "det events are jobs-invariant (verified workload)"
      `Quick (fun () ->
        assert_det_events_jobs_invariant "dining-cov"
          { base with coverage = true }
          (W.Dining.coverage_program ~n:2));
    Alcotest.test_case "det events are jobs-invariant (sleep sets)" `Quick
      (fun () ->
        assert_det_events_jobs_invariant "two-step-ss"
          { base with fair = false; sleep_sets = true }
          (W.Litmus.two_step_threads ~nthreads:2 ~steps:3));
    Alcotest.test_case "error events carry the verdict" `Quick (fun () ->
        let r, evs = run_collect base (W.Dining.program ~n:2 W.Dining.Deadlock) in
        check "found deadlock" true
          (match r.Report.verdict with Report.Deadlock _ -> true | _ -> false);
        let errors =
          List.filter (fun (e : Events.event) -> e.Events.kind = "error") evs
        in
        check_int "one error event" 1 (List.length errors);
        let e = List.hd errors in
        check "error is det" true e.Events.det;
        match e.Events.data with
        | Json.Obj fields ->
          check "verdict field" true
            (List.assoc_opt "verdict" fields = Some (Json.Str "deadlock"))
        | _ -> Alcotest.fail "error data not an object") ]

(* ------------------------------------------------------------------ *)
(* Estimator: fixed-point algebra and convergence.                     *)

let estimator_unit_tests =
  [ Alcotest.test_case "fixed-point division is exact" `Quick (fun () ->
        check_int "one/4" (Estimator.one / 4)
          (Estimator.of_widths [ 2; 2 ]);
        check_int "iterated = product"
          (Estimator.of_widths [ 4; 6 ])
          (Estimator.of_widths [ 2; 2; 2; 3 ]);
        check_int "width 0 and 1 are identity" Estimator.one
          (Estimator.of_widths [ 1; 0; 1 ]);
        (* Four leaves of a uniform binary tree of depth 2 sum to one. *)
        check_int "leaves sum to one" Estimator.one
          (4 * Estimator.of_widths [ 2; 2 ]));
    Alcotest.test_case "estimates at the boundaries" `Quick (fun () ->
        check "complete" true (Estimator.completion ~mass:Estimator.one = 1.0);
        check "empty" true (Estimator.completion ~mass:0 = 0.0);
        check "no probe, no estimate" true
          (Estimator.est_total ~mass:0 ~executions:5 = None
           && Estimator.eta ~mass:0 ~elapsed:1.0 = None);
        check_int "half the tree doubles the count" 10
          (Option.get
             (Estimator.est_total ~mass:(Estimator.one / 2) ~executions:5));
        check "done means no time left" true
          (Estimator.eta ~mass:Estimator.one ~elapsed:3.0 = Some 0.0)) ]

let estimator_search_tests =
  [ Alcotest.test_case "exhaustive search reaches probe mass = one" `Quick
      (fun () ->
        let r = Search.run base (W.Dining.coverage_program ~n:2) in
        check_int "mass" Estimator.one r.Report.stats.probe_mass;
        check "completion" true (Report.completion r.Report.stats = 1.0);
        check_int "est_total equals the true count" r.Report.stats.executions
          (Option.get (Report.est_total r.Report.stats)));
    Alcotest.test_case "truncated search estimates within 2x" `Quick (fun () ->
        let prog () = W.Dining.coverage_program ~n:2 in
        let full = Search.run base (prog ()) in
        let truth = full.Report.stats.executions in
        let cut = max 1 (truth / 3) in
        let part =
          Search.run { base with max_executions = Some cut } (prog ())
        in
        check "truncated" true (part.Report.stats.executions < truth);
        match Report.est_total part.Report.stats with
        | None -> Alcotest.fail "no estimate from a truncated run"
        | Some est ->
          check
            (Printf.sprintf "est=%d truth=%d within 2x" est truth)
            true
            (est >= truth / 2 && est <= truth * 2));
    Alcotest.test_case "sampling modes weigh executions by 1/budget" `Quick
      (fun () ->
        let n = 8 in
        let cfg = { base with Search_config.mode = Random_walk n } in
        let r = Search.run cfg (W.Dining.coverage_program ~n:2) in
        check_int "mass = executions/budget"
          (r.Report.stats.executions * (Estimator.one / n))
          r.Report.stats.probe_mass) ]

(* ------------------------------------------------------------------ *)
(* Spans and dashboard.                                                *)

let span_tests =
  [ Alcotest.test_case "search emits spans; to_trace renders them" `Quick
      (fun () ->
        let _, evs = run_collect base (W.Dining.coverage_program ~n:2) in
        let spans =
          List.filter (fun (e : Events.event) -> e.Events.kind = "span") evs
        in
        check "spans present" true (spans <> []);
        List.iter
          (fun (e : Events.event) ->
            check "spans are advisory" false e.Events.det)
          spans;
        match Span.to_trace evs with
        | Json.Obj fields ->
          (match List.assoc_opt "traceEvents" fields with
           | Some (Json.Arr items) ->
             let slices =
               List.filter
                 (fun j ->
                   match j with
                   | Json.Obj f -> List.assoc_opt "ph" f = Some (Json.Str "X")
                   | _ -> false)
                 items
             in
             check_int "one slice per span" (List.length spans)
               (List.length slices)
           | _ -> Alcotest.fail "traceEvents missing")
        | _ -> Alcotest.fail "trace is not an object");
    Alcotest.test_case "span histograms appear in metrics" `Quick (fun () ->
        let cfg = { base with Search_config.metrics = true } in
        let r = Search.run cfg (W.Dining.coverage_program ~n:2) in
        let snap = r.Report.metrics in
        match Fairmc_obs.Metrics.Snapshot.find snap (Span.hist_name "fresh") with
        | Some (Fairmc_obs.Metrics.Snapshot.Histogram h) ->
          check "observed paths" true (h.Fairmc_obs.Metrics.Snapshot.count > 0)
        | _ -> Alcotest.fail "span/fresh/us histogram missing");
    Alcotest.test_case "dashboard draws and finishes" `Quick (fun () ->
        let path = Filename.temp_file "fairmc-dash" ".txt" in
        Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
        let oc = open_out path in
        let d = Dashboard.create ~out:oc () in
        (Dashboard.sink d)
          { Fairmc_obs.Progress.executions = 48_210; elapsed = 5.0; jobs = 4;
            phase = "search"; completion = Some 0.312; est_total = Some 154_000;
            eta = Some 7.0 };
        Dashboard.finish d;
        close_out oc;
        let ic = open_in path in
        Fun.protect ~finally:(fun () -> close_in ic) @@ fun () ->
        let len = in_channel_length ic in
        let text = really_input_string ic len in
        check "drew the bar" true (String.length text > 0);
        check "shows the percentage" true
          (let needle = "31.2%" in
           let nl = String.length needle in
           let rec find i =
             i + nl <= String.length text
             && (String.sub text i nl = needle || find (i + 1))
           in
           find 0)) ]

(* ------------------------------------------------------------------ *)
(* Lines across processes: worker streams, relay, chunked sinks.       *)

let relay_tests =
  [ Alcotest.test_case "relay renumbers worker lines into whole-line chunks" `Quick
      (fun () ->
        let chunks = ref [] in
        let parent = Events.create ~write:(fun c -> chunks := c :: !chunks) ~chunked:true () in
        check "a plain stream has no spans" false (Events.spans parent);
        Events.post parent ~shard:(-1) ~kind:"first" (Json.Obj []);
        let lines = ref [] in
        let w = Events.worker parent ~write:(fun l -> lines := l :: !lines) in
        check "the worker inherits the span gate" false (Events.spans w);
        check "and the epoch" true (Events.origin w = Events.origin parent);
        let b = Events.buffer w ~shard:3 in
        let n = 2_000 in
        for i = 1 to n do
          Events.emit b ~det:true ~kind:"path"
            (Json.Obj
               [ ("end", Json.Str "terminated"); ("steps", Json.Int i);
                 ("schedule", Json.Int (7 * i)) ]);
          Events.flush b
        done;
        let worker_lines = List.rev !lines in
        List.iter (fun l -> check "relayable" true (Events.relayable l)) worker_lines;
        check "a foreign line is not" false (Events.relayable {|{"seq":1}|});
        Events.relay parent worker_lines;
        Events.sync parent;
        let chunks = List.rev !chunks in
        check "more than one chunk" true (List.length chunks > 1);
        List.iter
          (fun c ->
            check "a chunk ends a line" true (c.[String.length c - 1] = '\n');
            check "a chunk stays near the cap" true
              (String.length c < Events.chunk_cap + 200))
          chunks;
        let out =
          String.concat "" chunks |> String.split_on_char '\n' |> List.filter (( <> ) "")
        in
        check_int "every line arrives once" (n + 1) (List.length out);
        List.iteri
          (fun i l ->
            match Events.of_line l with
            | Error e -> Alcotest.failf "line %d: %s" i e
            | Ok e ->
              check_int "renumbered" i e.Events.seq;
              if i > 0 then begin
                check_int "shard kept" 3 e.Events.shard;
                let w = Result.get_ok (Events.of_line (List.nth worker_lines (i - 1))) in
                check_int "timestamp kept" w.Events.ts_us e.Events.ts_us;
                check "payload kept" true (Json.equal w.Events.data e.Events.data)
              end)
          out;
        (* A collecting stream turns spans on, for its workers too, and
           collects relayed lines as events. *)
        let c = Events.create ~collect:true () in
        check "collecting streams have spans" true (Events.spans (Events.worker c ~write:ignore));
        Events.relay c worker_lines;
        check_int "collected" n (List.length (Events.collected c))) ]

(* ------------------------------------------------------------------ *)
(* The path digest and the span-gated path lines.                      *)

(* The schedule hash a path line carries, recomputed from a decision
   list: FNV-1a-style folding of (tid, alt) in native ints. *)
let schedule_hash decisions =
  List.fold_left
    (fun h (tid, alt) -> (h lxor (tid + (alt lsl 20))) * 0x100000001B3)
    0x4BF29CE484222325 decisions
  land max_int

let data_field (e : Events.event) name =
  match e.Events.data with Json.Obj kv -> List.assoc_opt name kv | _ -> None

(* The lines a plain (non-collecting) stream writes, parsed back. *)
let plain_events cfg prog =
  let lines = ref [] in
  let stream = Events.create ~write:(fun l -> lines := l :: !lines) () in
  let r = Checker.check ~config:{ cfg with Search_config.events = Some stream } prog in
  (r, List.rev_map (fun l -> Result.get_ok (Events.of_line l)) !lines)

let digest_tests =
  [ Alcotest.test_case "a plain stream has no path line; run_end carries the digest" `Quick
      (fun () ->
        let prog () = W.Dining.coverage_program ~n:2 in
        List.iter
          (fun workers ->
            let r, evs = plain_events { base with Search_config.workers } (prog ()) in
            check "no path line" false
              (List.exists (fun (e : Events.event) -> e.Events.kind = "path") evs);
            let run_end = List.find (fun (e : Events.event) -> e.Events.kind = "run_end") evs in
            check "run_end is det" true run_end.Events.det;
            check "run_end's digest is the report's" true
              (data_field run_end "path_digest"
               = Some (Json.Str (Report.digest_hex r.Report.stats.Report.path_digest))))
          [ 1; 2 ]);
    Alcotest.test_case "a span stream has a path line per execution, with its schedule hash"
      `Quick (fun () ->
        (* The erroring path's line must carry the hash and length of the
           counterexample's schedule, whether its prefix was fast-forwarded
           (DFS), sampled, or finished by a random tail. *)
        let prog () = W.Dining.program ~n:2 W.Dining.Deadlock in
        List.iter
          (fun (what, cfg) ->
            let r, evs = run_collect cfg (prog ()) in
            let paths = List.filter (fun (e : Events.event) -> e.Events.kind = "path") evs in
            check_int (what ^ ": a path line per execution") r.Report.stats.Report.executions
              (List.length paths);
            match Report.cex r with
            | None -> Alcotest.failf "%s: no counterexample" what
            | Some cex ->
              let last = List.nth paths (List.length paths - 1) in
              check_int (what ^ ": steps") cex.Report.length
                (match data_field last "steps" with Some (Json.Int n) -> n | _ -> -1);
              check_int (what ^ ": schedule") (schedule_hash cex.Report.decisions)
                (match data_field last "schedule" with Some (Json.Int n) -> n | _ -> -1))
          [ ("dfs", base);
            ("random walk", { base with Search_config.mode = Random_walk 200; seed = 3L });
            ( "random tail",
              { base with Search_config.fair = false; depth_bound = Some 2; seed = 5L } ) ]) ]

let suite =
  codec_unit_tests @ determinism_tests @ estimator_unit_tests
  @ estimator_search_tests @ span_tests
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) codec_qprops
  @ relay_tests @ digest_tests
