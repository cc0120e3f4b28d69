(* The service workload: the real chessd binary, one runner slot, and one
   client in a closed loop — the next Submit goes out only after the
   previous Job_done. The client talks fairmc-jobs/1 through
   Fairmc_serve.Client.

   Each round starts a fresh daemon on a fresh spool and socket and sends
   a seeded order of a fixed multiset of submissions: every pool entry
   [cold_copies] times as a cold job (a distinct search seed per copy, so
   a distinct job id) and [dedup_copies] times as a resubmission of one
   of its finished cold copies (a dedup hit, which also reads the job's
   event backlog back). Seeds change the order and the ids, never the
   work. *)

open Fairmc_core
module J = Fairmc_util.Json
module S = Fairmc_serve
module P = S.Protocol
module Events = Fairmc_obs.Events

type entry = {
  label : string;
  program : string;  (** registry name or ChessLang path *)
  mode : Search_config.mode;
  max_steps : int option;  (** also the livelock bound *)
  expected : string;
}

(* A synthetic mix, since there is no recorded chessd traffic to draw
   from: every verdict kind and both front ends, each job taking 25 to
   500 ms as `chess check --workers 2` on a 2-core x86-64 host. The
   registry's deadlocks are all found within a few paths, so channel-bug2
   takes 3 ms without workers. *)
let pool ~programs =
  let native label mode expected =
    { label; program = label; mode; max_steps = None; expected }
  in
  let chess ?max_steps file mode expected =
    { label = file; program = Filename.concat programs file; mode; max_steps; expected }
  in
  [ native "ticket-lock" Search_config.Dfs "verified";
    native "dining-3-ordered" Search_config.Dfs "verified";
    native "wsq-1s-correct" (Search_config.Context_bounded 2) "verified";
    native "promise-stale-cache" Search_config.Dfs "livelock";
    native "channel-bug2" Search_config.Dfs "deadlock";
    native "channel-bug1" Search_config.Dfs "safety";
    chess "bounded_buffer.chess" Search_config.Dfs "verified";
    chess "stale_flag_livelock.chess" Search_config.Dfs "livelock";
    chess ~max_steps:100_000 "compute_heavy.chess" (Search_config.Context_bounded 1) "verified" ]

(* As many dedup hits as cold jobs, so that serve.job_ms and
   serve.dedup_ms rest on the same number of samples. Rounds are short,
   so a run has enough of them for its median round to hold when the
   host's speed shifts mid-run. *)
let cold_copies = 2
let dedup_copies = 2

let spec e ~seed =
  S.Jobspec.of_config ~program:e.program
    { (Inproc.config ?max_steps:e.max_steps ?livelock:e.max_steps ~seed e.mode) with
      Search_config.workers = 2 }

type item =
  | Cold of { entry : int; nth : int; seed : int }  (** [nth] cold job of the round *)
  | Dedup of { target : int }  (** resubmits cold job [target] *)

(* Cold jobs in a seeded order; each dedup hit lands at a seeded point
   after its target. *)
let sequence rng ~round ~seed ~pool_size =
  let cold =
    Measure.shuffle rng
      (List.concat (List.init cold_copies (fun _ -> List.init pool_size Fun.id)))
  in
  let n = List.length cold in
  let colds =
    List.mapi
      (fun nth entry ->
        (float_of_int nth, Cold { entry; nth; seed = (seed * 7919) + (round * 1000) + nth }))
      cold
  in
  let cold_a = Array.of_list cold in
  let dedups =
    List.concat_map
      (fun entry ->
        let copies = List.filter (fun k -> cold_a.(k) = entry) (List.init n Fun.id) in
        List.init dedup_copies (fun _ ->
            let target = List.nth copies (Random.State.int rng (List.length copies)) in
            let at =
              float_of_int target +. 0.5
              +. Random.State.float rng (float_of_int (n - target) -. 0.5)
            in
            (at, Dedup { target })))
      (List.init pool_size Fun.id)
  in
  List.map snd (List.stable_sort (fun (a, _) (b, _) -> compare a b) (colds @ dedups))

(* ------------------------------------------------------------------ *)
(* Daemon lifecycle. Every daemon this process starts is recorded until
   it has been reaped, so every exit path can stop it.                  *)

let live : int list ref = ref []
let owner = Unix.getpid ()

let reap ?(grace = 10.) pid =
  let deadline = Measure.now () +. grace in
  let rec go killed =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if (not killed) && Measure.now () > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        go true
      end
      else begin
        Unix.sleepf 0.002;
        go killed
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go killed
    | exception Unix.Unix_error _ -> ()
  in
  go false;
  live := List.filter (( <> ) pid) !live

let stop_all () =
  (* Forked children (the direct checks' workers) inherit at_exit. *)
  if Unix.getpid () = owner then begin
    List.iter (fun pid -> try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ()) !live;
    List.iter (fun pid -> reap pid) !live
  end

type daemon = { pid : int; fd : Unix.file_descr; setup : float }

(* From exec to the first Hello_ok. *)
let start ~chessd ~dir =
  Unix.mkdir dir 0o755;
  let socket = Filename.concat dir "d.sock" in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let t0 = Measure.now () in
  let pid =
    Unix.create_process chessd
      [| chessd; "--socket"; socket; "--spool"; Filename.concat dir "spool"; "--quiet";
         "--max-jobs"; "1" |]
      null null null
  in
  Unix.close null;
  live := pid :: !live;
  let rec connect () =
    match S.Client.connect socket with
    | fd -> fd
    | exception (S.Client.Error _ | Unix.Unix_error _) ->
      (match Unix.waitpid [ Unix.WNOHANG ] pid with
       | 0, _ when Measure.now () -. t0 < 10. ->
         Unix.sleepf 0.0002;
         connect ()
       | _ -> failwith "chessd did not come up")
  in
  let fd = connect () in
  { pid; fd; setup = Measure.now () -. t0 }

let shutdown d =
  (try
     S.Client.request d.fd P.Shutdown;
     let rec drain () = match S.Client.next d.fd with P.Bye -> () | _ -> drain () in
     drain ()
   with S.Client.Error _ | Unix.Unix_error _ -> ());
  S.Client.close d.fd;
  reap d.pid

(* ------------------------------------------------------------------ *)
(* One round.                                                          *)

type outcome = {
  item : item;
  job : string;
  deduped : bool;
  t_submit : float;
  t_ack : float;
  t_done : float;
  first_event : float option;
  last_event : float option;
  events : int;
  event_bytes : int;
  done_ : (string * J.t, string) result;  (** verdict and report, or why not *)
  sup : (int * int) option;  (** supervisor_done spawns, retries *)
  expand : (int * int) option;  (** workers event: items, expand_us *)
}

let field name = function
  | J.Obj kv -> List.assoc_opt name kv
  | _ -> None

let int_field name j = match field name j with Some (J.Int n) -> n | _ -> 0

(* Submit, then Watch until Job_done. With [events] the client also takes
   the job's fairmc-events/1 stream — for a dedup hit, the backlog replay
   a late subscriber receives; [inspect] also decodes each event. *)
let submit ~events ~inspect fd spec item =
  let t_submit = Measure.now () in
  S.Client.request fd (P.Submit { spec; priority = 0 });
  let job, deduped =
    match S.Client.next fd with
    | P.Submitted { job; deduped; _ } -> (job, deduped)
    | m -> failwith ("unexpected reply to Submit: " ^ J.to_string (P.message_to_json m))
  in
  let t_ack = Measure.now () in
  S.Client.request fd (P.Watch { job; events });
  let first = ref None and last = ref None in
  let count = ref 0 and bytes = ref 0 in
  let sup = ref None and expand = ref None in
  let rec wait () =
    match S.Client.next fd with
    | P.Watching _ -> wait ()
    | P.Event line ->
      let t = Measure.now () in
      if !first = None then first := Some t;
      last := Some t;
      incr count;
      bytes := !bytes + String.length line;
      (if inspect then
         match Events.of_line line with
         | Ok e when e.Events.kind = "supervisor_done" ->
           sup := Some (int_field "spawns" e.Events.data, int_field "retries" e.Events.data)
         | Ok e when e.Events.kind = "workers" ->
           expand := Some (int_field "items" e.Events.data, int_field "expand_us" e.Events.data)
         | _ -> ());
      wait ()
    | P.Job_done { verdict; report; _ } -> Ok (verdict, report)
    | P.Error_msg e -> Error e
    | m -> Error ("unexpected message: " ^ J.to_string (P.message_to_json m))
  in
  let done_ = wait () in
  { item; job; deduped; t_submit; t_ack; t_done = Measure.now (); first_event = !first;
    last_event = !last; events = !count; event_bytes = !bytes; done_; sup = !sup;
    expand = !expand }

type round = {
  setup : float;
  wall : float;
  cpu : float;
  peak_kb : int;
  rss_per_job_kb : float;
  outcomes : outcome list;
}

(* Cold jobs take the event stream only when [traced]; dedup hits always
   do, so they read the backlog back as a late `chess submit --events`
   subscriber does. *)
let run_round ~chessd ~dir ~traced ~specs items =
  let c_self = Measure.cpu_self () and c_child = Measure.cpu_children () in
  let d = start ~chessd ~dir in
  let rss () = Option.value (Measure.status_kb d.pid "VmRSS") ~default:0 in
  let rss0 = rss () in
  let t0 = Measure.now () in
  let outcomes = ref [] in
  let cold_specs = Hashtbl.create 64 in
  List.iter
    (fun item ->
      let spec =
        match item with
        | Cold { entry; seed; _ } -> specs entry ~seed
        | Dedup { target } -> Hashtbl.find cold_specs target
      in
      let o =
        match item with
        | Cold _ -> submit ~events:traced ~inspect:traced d.fd spec item
        | Dedup _ -> submit ~events:true ~inspect:false d.fd spec item
      in
      (match item with
       | Cold { nth; _ } -> Hashtbl.replace cold_specs nth spec
       | Dedup _ -> ());
      outcomes := o :: !outcomes)
    items;
  let wall = Measure.now () -. t0 in
  let n_cold = List.length (List.filter (function Cold _ -> true | Dedup _ -> false) items) in
  let rss_per_job_kb = float_of_int (rss () - rss0) /. float_of_int (max 1 n_cold) in
  let peak_kb = Option.value (Measure.status_kb d.pid "VmHWM") ~default:0 in
  shutdown d;
  let cpu =
    Measure.cpu_self () -. c_self +. (Measure.cpu_children () -. c_child)
  in
  { setup = d.setup; wall; cpu; peak_kb; rss_per_job_kb; outcomes = List.rev !outcomes }

(* ------------------------------------------------------------------ *)
(* Correctness of a round, checked after its clock stopped.            *)

let decisions report =
  match Option.bind (field "verdict" report) (field "counterexample") with
  | None -> None
  | Some cex ->
    (match field "decisions" cex with
     | Some (J.Arr ds) ->
       Some
         (List.map
            (function J.Arr [ J.Int t; J.Int a ] -> (t, a) | _ -> (-1, -1))
            ds)
     | _ -> None)

let check_round ?(extra = fun _ -> []) ~pool ~resolved r =
  let cold_job = Hashtbl.create 64 in
  List.iter
    (fun o ->
      let problems =
        extra o.job
        @
        match (o.item, o.done_) with
        | _, Error e -> [ Printf.sprintf "job %s failed: %s" o.job e ]
        | Cold { entry; nth; _ }, Ok (verdict, report) ->
          Hashtbl.replace cold_job nth o.job;
          let e = pool.(entry) in
          (if o.deduped then [ Printf.sprintf "%s: cold job %s reported as a dedup hit" e.label o.job ]
           else [])
          @
          if verdict <> e.expected then
            [ Printf.sprintf "%s: verdict %s, expected %s" e.label verdict e.expected ]
          else
            (match decisions report with
             | None -> []
             | Some ds ->
               (match Verify.replay_problem (resolved entry) ~key:verdict ds with
                | None -> []
                | Some p -> [ Printf.sprintf "%s: %s" e.label p ]))
        | Dedup { target }, Ok _ ->
          let original = Hashtbl.find_opt cold_job target in
          if (not o.deduped) || original <> Some o.job then
            [ Printf.sprintf "dedup hit %s did not return the original job %s" o.job
                (Option.value original ~default:"?") ]
          else []
      in
      Out.operation problems)
    r.outcomes

(* ------------------------------------------------------------------ *)
(* The traced round's extra checks and layer costs.                    *)

let wall_clock_fields =
  [ "elapsed_seconds"; "executions_per_second"; "first_error_seconds";
    "search_elapsed_seconds"; "eta_seconds" ]

let rec scrub = function
  | J.Obj kv ->
    J.Obj
      (List.filter_map
         (fun (k, v) -> if List.mem k wall_clock_fields then None else Some (k, scrub v))
         kv)
  | J.Arr xs -> J.Arr (List.map scrub xs)
  | j -> j

let ms x = x *. 1e3

let traced ~pool ~specs ~dir r =
  let problems = Hashtbl.create 64 in
  let problem job p =
    Hashtbl.replace problems job (p :: Option.value (Hashtbl.find_opt problems job) ~default:[])
  in
  let cold =
    List.filter_map
      (fun o -> match o.item with Cold { entry; seed; _ } -> Some (o, entry, seed) | Dedup _ -> None)
      r.outcomes
  in
  let per_cold f = List.filter_map f cold in
  let mean_int f = Measure.mean (per_cold (fun c -> Option.map float_of_int (f c))) in
  Out.add ~latency:true "serve.ack_ms" "ms"
    (List.map (fun o -> ms (o.t_ack -. o.t_submit)) r.outcomes);
  let latency cold =
    List.filter_map
      (fun o ->
        match o.item with
        | Cold _ when cold -> Some (ms (o.t_done -. o.t_submit))
        | Dedup _ when not cold -> Some (ms (o.t_done -. o.t_submit))
        | _ -> None)
      r.outcomes
  in
  Out.add ~latency:true "serve.job_ms" "ms" (latency true);
  Out.add ~latency:true "serve.dedup_ms" "ms" (latency false);
  Out.add ~latency:true "serve.start_ms" "ms"
    (per_cold (fun (o, _, _) -> Option.map (fun t -> ms (t -. o.t_ack)) o.first_event));
  Out.add ~latency:true "serve.finish_ms" "ms"
    (per_cold (fun (o, _, _) -> Option.map (fun t -> ms (o.t_done -. t)) o.last_event));
  Out.value "serve.rss_kb_per_job" "kB" r.rss_per_job_kb;
  Out.value "obs.events_per_job" "count" (mean_int (fun (o, _, _) -> Some o.events));
  Out.value "obs.event_bytes_per_job" "bytes" (mean_int (fun (o, _, _) -> Some o.event_bytes));
  Out.value "supervisor.spawns" "count" (mean_int (fun (o, _, _) -> Option.map fst o.sup));
  Out.value "supervisor.items" "count" (mean_int (fun (o, _, _) -> Option.map fst o.expand));
  Out.add ~latency:true "supervisor.expand_ms" "ms"
    (per_cold (fun (o, _, _) -> Option.map (fun (_, us) -> float_of_int us /. 1e3) o.expand));
  Out.value "supervisor.retries" "count"
    (float_of_int (List.fold_left (fun a (o, _, _) -> a + Option.fold ~none:0 ~some:snd o.sup) 0 cold));
  (* Backend guard: a --workers 2 job that shows no spawns, or retries,
     did not run on the process pool as asked. *)
  List.iter
    (fun (o, entry, _) ->
      match o.sup with
      | Some (spawns, 0) when spawns > 0 -> ()
      | Some (spawns, retries) ->
        problem o.job
          (Printf.sprintf "%s: sup/spawns %d, sup/retries %d" pool.(entry).label spawns retries)
      | None ->
        problem o.job
          (Printf.sprintf "%s: no supervisor_done event: --workers 2 fell back to domains"
             pool.(entry).label))
    cold;
  (* Fidelity: each cold job again, directly, with the runner's own
     configuration (the spec's config plus a checkpoint file). *)
  let ckpt = Filename.concat dir "direct.ckpt" in
  let engine_trans = ref 0 and execs = ref 0 in
  let saves = ref [] and ckpt_bytes = ref [] in
  let frames = ref [] and frame_bytes = ref [] and renders = ref [] in
  List.iter
    (fun (o, entry, seed) ->
      let spec = specs entry ~seed in
      match (S.Jobspec.resolve spec, o.done_) with
      | Error e, _ -> problem o.job (Printf.sprintf "%s: cannot resolve: %s" pool.(entry).label e)
      | Ok _, Error _ -> ()
      | Ok (program, lint), Ok (_, served) ->
        let base = S.Jobspec.to_config spec in
        let report = Checker.check ~config:{ base with Search_config.checkpoint = Some ckpt } program in
        let direct =
          Report.to_json ~program:program.Program.name ~config:(Search_config.describe base) ?lint
            report
        in
        if not (J.equal (scrub direct) (scrub served)) then
          problem o.job
            (Printf.sprintf "%s: served report differs from the direct check" pool.(entry).label);
        engine_trans := !engine_trans + report.Report.stats.Report.transitions;
        execs := !execs + report.Report.stats.Report.executions;
        renders :=
          Measure.batched ~batches:3 ~per_batch:5 (fun () ->
              Inproc.render program base lint report)
          @ !renders;
        (match Checkpoint.load ckpt with
         | Ok c ->
           ckpt_bytes := float_of_int (Unix.stat ckpt).Unix.st_size :: !ckpt_bytes;
           saves := Measure.batched ~batches:2 ~per_batch:1 (fun () -> Checkpoint.save ckpt c) @ !saves
         | Error e -> problem o.job ("direct checkpoint unreadable: " ^ e));
        (try Sys.remove ckpt with Sys_error _ -> ());
        let frame =
          Worker.response_to_json
            { Worker.r_index = 0; r_attempt = 0; r_report = report; r_states = []; r_events = [] }
        in
        frame_bytes := float_of_int (8 + String.length (J.to_string frame)) :: !frame_bytes;
        frames :=
          Measure.batched ~batches:3 ~per_batch:10 (fun () ->
              match J.of_string (J.to_string frame) with
              | Ok j -> ignore (Worker.response_of_json j)
              | Error e -> failwith e)
          @ !frames)
    cold;
  Out.value "engine.transitions" "count" (float_of_int !engine_trans);
  Out.value "search.executions" "count" (float_of_int !execs);
  Out.add ~latency:true "report.render_ms" "ms" (List.map ms !renders);
  Out.add ~latency:true "checkpoint.save_ms" "ms" (List.map ms !saves);
  Out.value "checkpoint.bytes" "bytes" (Measure.mean !ckpt_bytes);
  Out.add ~latency:true "worker.frame_us" "us" (List.map (fun t -> t *. 1e6) !frames);
  Out.value "worker.frame_bytes" "bytes" (Measure.mean !frame_bytes);
  Out.add ~latency:true "serve.resolve_us" "us"
    (List.concat
       (List.init (Array.length pool) (fun entry ->
            let spec = specs entry ~seed:0 in
            List.map (fun t -> t *. 1e6)
              (Measure.batched ~batches:4 ~per_batch:5 (fun () ->
                   match S.Jobspec.resolve spec with
                   | Ok (p, _) -> S.Jobspec.id spec ~program_name:p.Program.name
                   | Error e -> failwith e)))));
  fun job -> Option.value (Hashtbl.find_opt problems job) ~default:[]

(* ------------------------------------------------------------------ *)

(* chessd set-ups timed before every round, so that set-up samples spread
   over the whole run rather than one moment of it. *)
let setups_per_round = 15

let run ~seed ~rounds ~trace ~programs ~chessd =
  at_exit stop_all;
  let pool = Array.of_list (pool ~programs) in
  let specs entry ~seed = spec pool.(entry) ~seed in
  let resolved =
    let cache = Hashtbl.create 16 in
    fun entry ->
      match Hashtbl.find_opt cache entry with
      | Some p -> p
      | None ->
        (match S.Jobspec.resolve (specs entry ~seed:0) with
         | Ok (p, _) ->
           Hashtbl.replace cache entry p;
           p
         | Error e -> failwith e)
  in
  let rng = Random.State.make [| seed |] in
  let round k ~traced =
    let items = sequence rng ~round:k ~seed ~pool_size:(Array.length pool) in
    run_round ~chessd ~dir:(Printf.sprintf "round%d" k) ~traced ~specs items
  in
  if trace then begin
    let untraced = round 1 ~traced:false in
    check_round ~pool ~resolved untraced;
    let tr = round 2 ~traced:true in
    Out.value "trace.untraced_verdict_s" "s" untraced.wall;
    Out.value "trace.traced_verdict_s" "s" tr.wall;
    Out.value "trace.overhead_s" "s" (tr.wall -. untraced.wall);
    check_round ~extra:(traced ~pool ~specs ~dir:"." tr) ~pool ~resolved tr
  end
  else begin
    let setups = ref [] in
    let rs =
      List.init rounds (fun k ->
          for j = 1 to setups_per_round do
            let d = start ~chessd ~dir:(Printf.sprintf "setup%d-%d" k j) in
            shutdown d;
            setups := d.setup :: !setups
          done;
          let r = round (k + 1) ~traced:false in
          check_round ~pool ~resolved r;
          r)
    in
    Out.add "verdict_s" "s" (List.map (fun r -> r.wall) rs);
    Out.add "cpu_s" "s" (List.map (fun r -> r.cpu) rs);
    Out.add "peak_rss_mb" "MB" (List.map (fun r -> Measure.mb r.peak_kb) rs);
    Out.add "setup_s" "s" (!setups @ List.map (fun r -> r.setup) rs)
  end
