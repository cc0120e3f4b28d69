module B = Fairmc_util.Bitset
module Fnv = Fairmc_util.Fnv

type failure =
  | Assertion of string
  | Sync_misuse of string
  | Resource of string
  | Uncaught of string

let pp_failure ppf = function
  | Assertion m -> Format.fprintf ppf "assertion failure: %s" m
  | Sync_misuse m -> Format.fprintf ppf "synchronization misuse: %s" m
  | Resource m -> Format.fprintf ppf "resource exhaustion: %s" m
  | Uncaught m -> Format.fprintf ppf "uncaught exception: %s" m

(* Stack_overflow/Out_of_memory raised by a thread body must become an error
   verdict carrying the offending schedule, not kill the whole search (or a
   supervised worker). They need their own arm: the generic [Uncaught]
   rendering of [Printexc.to_string] is fine, but classifying them lets
   callers distinguish a program bug from a workload that genuinely needs
   more resources. *)
let resource_failure = function
  | Stack_overflow -> Some (Resource "stack overflow")
  | Out_of_memory -> Some (Resource "out of memory")
  | _ -> None

type parked = {
  k : (int, unit) Effect.Deep.continuation;
  payload : (unit -> unit) option;  (* body captured at a [Spawn] park *)
}

type tstate =
  | Parked of parked  (* a fiber *)
  | Parked_data  (* a machine thread: plain data in the program *)
  | Offered  (* a running fiber pending inside its [Sync.sched] call: [offer] *)
  | Running  (* transient, while a fiber's continuation executes *)
  | Finished

type observer = tid:int -> op:Op.t -> result:int -> unit

(* Raised into a parked continuation to unwind it when its run is
   abandoned: OCaml never frees the stack of a continuation that is dropped
   without being resumed. Never recorded as a failure. *)
exception Unwind

type t = {
  prog_store : Objects.t;
  obs : observer option;
  booted : Program.booted;  (* its machine, snapshot and capture *)
  mutable unwinding : bool;  (* parked fibers are being discontinued *)
  mutable threads : tstate array;
  mutable prev_op : Op.t option array;
      (* The operation each thread last parked on: the pending operation of
         a parked thread of either kind. *)
  mutable op_repeat : int array;
      (* Control abstraction for state signatures: the pending operation
         alone does not identify a thread's control point when two identical
         operations are adjacent (e.g. two reads of the same variable), which
         would merge a state with its own successor and cut off stateful
         exploration. Counting consecutive identical pending operations
         restores (enough) injectivity; loops whose bodies contain more than
         one distinct operation still converge. *)
  mutable nthreads : int;
  mutable nfinished : int;  (* threads in [Finished]: [all_finished] is O(1) *)
  mutable enabled : B.t;
      (* Enabled set of the current state. Thread and object state change
         only inside [start] and [step], so it is recomputed once at the end
         of each; every reader (the search, the trace, [deadlocked]) shares
         that one value. *)
  mutable failure : (int * failure) option;
  mutable trace : Trace.t;  (* a run fast-forwarded along a trace adopts it *)
  mutable steps : int;
  snapshotters : (Fnv.t -> Fnv.t) list;
  mutable sync_ops : int;
  mutable var_ops : int;
  op_counts : int array;  (* transitions by Op.kind_index *)
  mutable context_switches : int;
  mutable last_stepped : int;  (* tid of the previous transition; -1 at boot *)
  mutable live : bool;
}

(* The process's active run, for takeover/stop bookkeeping. *)
let active : t option ref = ref None

(* The step observer: the search layer installs it around a whole search,
   every [start] captures the current value into the run, and [step] pays
   one immediate branch when it is unset (the zero-cost-when-off contract
   of the obs layer). *)
let observer : observer option ref = ref None

let set_observer f = observer := f

let record_failure t tid f =
  match t.failure with None -> t.failure <- Some (tid, f) | Some _ -> ()

let finish t tid =
  t.threads.(tid) <- Finished;
  t.nfinished <- t.nfinished + 1

(* Thread [tid] ended by raising [exn], which fails the run. *)
let raised t tid exn =
  finish t tid;
  record_failure t tid
    (match exn with
     | Runtime.Assertion_failure m -> Assertion m
     | Objects.Sync_error m -> Sync_misuse m
     | e -> Option.value (resource_failure e) ~default:(Uncaught (Printexc.to_string e)))

(* [tid] parks on [op], a [Some]. *)
let note_park t tid op =
  (* Saturate the counter: straight-line runs of identical operations are
     short (that is all the disambiguation needs), while an unbounded
     counter would make single-operation spin loops produce infinitely
     many signatures, breaking cycle detection. *)
  (match (t.prev_op.(tid), op) with
   | Some prev, Some op when Op.equal prev op ->
     t.op_repeat.(tid) <- Int.min (t.op_repeat.(tid) + 1) 4
   | _ -> t.op_repeat.(tid) <- 0);
  t.prev_op.(tid) <- op

(* Run machine thread [tid], handing it [result], to its next scheduling
   point: one call into the program's own loop. *)
let run_machine t tid result =
  match (Option.get t.booted.Program.machine).Program.run tid result with
  | Some _ as op ->
    note_park t tid op;
    t.threads.(tid) <- Parked_data
  | None -> finish t tid
  | exception exn -> raised t tid exn

(* Run [body] as fiber [tid] until its first scheduling point (or
   completion). The deep handler stays installed for the thread's lifetime:
   subsequent parks happen during [Effect.Deep.continue] in [step]. *)
let start_thread t tid body =
  let handler : (unit, unit) Effect.Deep.handler =
    { retc = (fun () -> finish t tid);
      exnc = (fun exn -> if t.unwinding then finish t tid else raised t tid exn);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Runtime.Sched _ when t.unwinding ->
            (* A finalizer of an unwinding body performed a sync op: unwind
               it too instead of parking it again. *)
            Some (fun (k : (a, unit) Effect.Deep.continuation) ->
                Runtime.ctx.spawn_body <- None;
                Effect.Deep.discontinue k Unwind)
          | Runtime.Sched op ->
            Some
              (fun (k : (a, unit) Effect.Deep.continuation) ->
                let payload =
                  match op with
                  | Op.Spawn ->
                    let c = Runtime.ctx in
                    let b = c.spawn_body in
                    c.spawn_body <- None;
                    b
                  | _ -> None
                in
                (* An offered thread has recorded its park already. *)
                (match t.threads.(tid) with Offered -> () | _ -> note_park t tid (Some op));
                t.threads.(tid) <- Parked { k; payload })
          | _ -> None) }
  in
  let c = Runtime.ctx in
  let saved_tid = c.current_tid in
  let saved_in = c.in_thread in
  c.current_tid <- tid;
  c.in_thread <- true;
  Effect.Deep.match_with body () handler;
  c.current_tid <- saved_tid;
  c.in_thread <- saved_in

(* A new thread's tid, [Running] in the grown table. *)
let new_thread t =
  if t.nthreads > B.max_capacity then failwith "Engine: too many threads";
  if t.nthreads = Array.length t.threads then begin
    let a = Array.make (2 * t.nthreads) Finished in
    Array.blit t.threads 0 a 0 t.nthreads;
    t.threads <- a;
    let p = Array.make (2 * t.nthreads) None in
    Array.blit t.prev_op 0 p 0 t.nthreads;
    t.prev_op <- p;
    let rep = Array.make (2 * t.nthreads) 0 in
    Array.blit t.op_repeat 0 rep 0 t.nthreads;
    t.op_repeat <- rep
  end;
  let tid = t.nthreads in
  t.threads.(tid) <- Running;
  t.nthreads <- tid + 1;
  tid

let add_thread t body =
  let tid = new_thread t in
  start_thread t tid body;
  tid

(* A join target outside the allocated range is treated as not finished:
   tids are dense and may be created later by spawns, so joining one that
   never materializes is a deadlock, not a no-op. *)
let finished t tid =
  tid >= 0 && tid < t.nthreads
  && (match t.threads.(tid) with
      | Finished -> true
      | Parked _ | Parked_data | Offered | Running -> false)

(* [Join] is decided here, against the thread table; the store decides every
   other operation and never consults [finished]. *)
let never_finished (_ : int) = false

let op_enabled t (op : Op.t) =
  match op with
  | Join j -> finished t j
  | op -> Objects.enabled t.prog_store ~finished:never_finished op

(* The pending operation of [tid], parked as either kind of thread. *)
let[@inline] parked_op t tid =
  match t.threads.(tid) with
  | Parked _ | Parked_data | Offered -> t.prev_op.(tid)
  | Running | Finished -> None

let refresh_enabled t =
  let es = ref B.empty in
  for tid = 0 to t.nthreads - 1 do
    match parked_op t tid with
    | Some op -> if op_enabled t op then es := B.add tid !es
    | None -> ()
  done;
  t.enabled <- !es

(* Discontinue every parked fiber, as the thread itself: its handlers and
   finalizers run, and whatever they perform is unwound in turn. A machine
   thread has no stack to unwind. *)
let unwind t =
  let c = Runtime.ctx in
  let saved_tid = c.current_tid in
  let saved_in = c.in_thread in
  t.unwinding <- true;
  for tid = 0 to t.nthreads - 1 do
    match t.threads.(tid) with
    | Parked p ->
      t.threads.(tid) <- Running;
      c.current_tid <- tid;
      c.in_thread <- true;
      Effect.Deep.discontinue p.k Unwind
    | Parked_data | Offered | Running | Finished -> ()
  done;
  t.unwinding <- false;
  c.current_tid <- saved_tid;
  c.in_thread <- saved_in

let start (prog : Program.t) =
  (match !active with
   | Some prev when prev.live ->
     (* A previous run that was not [stop]ped; take over, runs do not
        nest. *)
     prev.live <- false;
     unwind prev
   | _ -> ());
  let store = Objects.create () in
  let c = Runtime.reset store in
  let booted = prog.Program.boot () in
  let t =
    { prog_store = store;
      obs = !observer;
      booted;
      unwinding = false;
      threads = Array.make 8 Finished;
      prev_op = Array.make 8 None;
      op_repeat = Array.make 8 0;
      nthreads = 0;
      nfinished = 0;
      enabled = B.empty;
      failure = None;
      trace = Trace.create ();
      steps = 0;
      snapshotters = c.snapshotters;
      sync_ops = 0;
      var_ops = 0;
      op_counts = Array.make Op.n_kinds 0;
      context_switches = 0;
      last_stepped = -1;
      live = true }
  in
  active := Some t;
  (match booted.Program.machine with
   | None -> List.iter (fun body -> ignore (add_thread t body)) booted.Program.threads
   | Some m ->
     for _ = 1 to m.Program.nthreads do
       run_machine t (new_thread t) 0
     done);
  refresh_enabled t;
  t

let nthreads t = t.nthreads
let steps t = t.steps

let pending t tid =
  if tid < 0 || tid >= t.nthreads then invalid_arg "Engine.pending";
  parked_op t tid

let enabled_set t = t.enabled

let would_yield t tid =
  match parked_op t tid with
  | Some op -> Objects.would_yield t.prog_store op
  | None -> false

let alternatives t tid =
  match parked_op t tid with Some op -> Op.alternatives op | None -> 1

let count_op t tid (op : Op.t) =
  (match op with
   | Var_read _ | Var_write _ | Var_rmw _ -> t.var_ops <- t.var_ops + 1
   | Choose _ -> ()
   | _ -> t.sync_ops <- t.sync_ops + 1);
  let k = Op.kind_index op in
  t.op_counts.(k) <- t.op_counts.(k) + 1;
  if t.last_stepped >= 0 && t.last_stepped <> tid then
    t.context_switches <- t.context_switches + 1;
  t.last_stepped <- tid

(* The transition parked thread [tid] takes on [op], shared by [step] and
   [fast_forward]: apply the operation (spawn the child, take alternative
   [alt], or update the store) and count it. Returns the result the thread
   receives. *)
let transition t tid op ~alt =
  let result =
    match op with
    | Op.Spawn ->
      let body =
        match t.threads.(tid) with
        | Parked { payload = Some b; _ } -> b
        | _ -> failwith "Engine: spawn without a body"
      in
      let child = add_thread t body in
      Runtime.ctx.spawn_result <- child;
      1
    | Op.Choose n ->
      if alt < 0 || alt >= n then invalid_arg "Engine.step: bad alternative";
      alt
    | op ->
      (match Objects.execute t.prog_store ~self:tid op with
       | true -> 1
       | false -> 0
       | exception Objects.Sync_error m ->
         record_failure t tid (Sync_misuse m);
         0
       | exception ((Stack_overflow | Out_of_memory) as e) ->
         record_failure t tid (Option.get (resource_failure e));
         0)
  in
  count_op t tid op;
  result

(* Deliver [result] to parked thread [tid] and run it to its next
   scheduling point. *)
let resume t tid result =
  match t.threads.(tid) with
  | Parked p ->
    t.threads.(tid) <- Running;
    let c = Runtime.ctx in
    let saved_tid = c.current_tid in
    let saved_in = c.in_thread in
    c.current_tid <- tid;
    c.in_thread <- true;
    Effect.Deep.continue p.k result;
    c.current_tid <- saved_tid;
    c.in_thread <- saved_in
  | Parked_data -> run_machine t tid result
  | Offered | Running | Finished -> invalid_arg "Engine: resumed a thread that is not parked"

(* [step]'s transition of pending thread [tid], with its trace event and
   counters. Returns the result the thread receives. *)
let[@inline] take_step t ~tid ~alt =
  (match t.failure with
   | Some _ -> invalid_arg "Engine.step: execution already failed"
   | None -> ());
  match parked_op t tid with
  | None -> invalid_arg "Engine.step: thread not parked"
  | Some op ->
    if not (B.mem tid t.enabled) then invalid_arg "Engine.step: thread not enabled";
    let yielded = Objects.would_yield t.prog_store op in
    let enabled_before = t.enabled in
    let result = transition t tid op ~alt in
    Trace.push t.trace
      { Trace.step = t.steps; tid; op; alt; result = result <> 0; yielded;
        enabled = enabled_before };
    t.steps <- t.steps + 1;
    (match t.obs with
     | None -> ()
     | Some f ->
       (* After [Trace.push]: an observer that snapshots the trace here sees
          the schedule up to and including this transition. [Spawn] reports
          the child tid, [Choose] the chosen alternative, try/timed ops 0/1. *)
       let result = match op with Op.Spawn -> Runtime.ctx.spawn_result | _ -> result in
       f ~tid ~op ~result);
    result

let step t ~tid ~alt =
  let result = take_step t ~tid ~alt in
  (match t.failure with Some _ -> () | None -> resume t tid result);
  (* The stepped thread and any child it spawned have parked or finished. *)
  refresh_enabled t

let has_fibers t = Option.is_none t.booted.Program.machine

let offer t tid op =
  (match t.threads.(tid) with Running -> () | _ -> invalid_arg "Engine.offer: not running");
  note_park t tid (Some op);
  t.threads.(tid) <- Offered;
  refresh_enabled t

let step_offered t ~tid ~alt =
  (match t.threads.(tid) with Offered -> () | _ -> invalid_arg "Engine.step_offered: not offered");
  let result = take_step t ~tid ~alt in
  (* A failed transition leaves its thread to park, as [step] does. *)
  if Option.is_some t.failure then -1
  else begin
    t.threads.(tid) <- Running;
    result
  end

(* [fast_forward]'s step, for a parked thread or in place: take event [e] as
   [tid]'s transition on [op]. Returns the thread's result, or -1 if [op] is
   not the recorded operation or is disabled, or its transition fails or
   delivers another result. *)
let take t tid op (e : Trace.event) =
  if not (Op.equal op e.Trace.op && op_enabled t op) then -1
  else begin
    let result = transition t tid op ~alt:e.Trace.alt in
    if Option.is_some t.failure || e.Trace.result <> (result <> 0) then -1
    else begin t.steps <- t.steps + 1; result end
  end

let fast_forward t trace n =
  if t.steps > 0 || (not t.live) || Option.is_some t.obs || Option.is_some t.failure then
    invalid_arg "Engine.fast_forward: not a fresh unobserved run";
  let misfit () = invalid_arg "Engine.fast_forward: the trace does not fit the run" in
  Trace.truncate trace n;
  (* [Sync.sched] offers the running thread's [op]. It takes the next event
     ([next]) in place, with a park's bookkeeping, if that event is its own
     and no spawn (which starts a fiber). Else it parks, and a misfit
     ([fits] falls) is raised by the loop, so no thread body can catch it. *)
  let next = ref 0 and fits = ref true in
  let in_place op =
    let tid = Runtime.ctx.current_tid in
    match op with
    | Op.Spawn -> -1
    | _ when !next >= n || (Trace.get trace !next).Trace.tid <> tid -> -1
    | _ ->
      note_park t tid (Some op);
      let result = try take t tid op (Trace.get trace !next) with _ -> -1 in
      if result < 0 then fits := false else incr next;
      result
  in
  Runtime.ctx.take <- Some in_place;
  (try
     while !next < n do
       let e = Trace.get trace !next in
       let tid = e.Trace.tid in
       if tid < 0 || tid >= t.nthreads then misfit ();
       let result = match parked_op t tid with Some op -> take t tid op e | None -> -1 in
       if result < 0 then misfit ();
       incr next;
       resume t tid result;
       if not !fits then misfit ()
     done
   with exn -> Runtime.ctx.take <- None; raise exn);
  Runtime.ctx.take <- None;
  t.trace <- trace;
  refresh_enabled t

let failure t = t.failure

let all_finished t = t.nfinished = t.nthreads

let deadlocked t =
  (not (all_finished t))
  && B.is_empty t.enabled
  && (match t.failure with None -> true | Some _ -> false)

let trace t = t.trace
let store t = t.prog_store

let state_signature t =
  let regions = Runtime.ctx.regions in
  let h = Objects.signature t.prog_store Fnv.init in
  let h = ref (Fnv.int h t.nthreads) in
  for tid = 0 to t.nthreads - 1 do
    match (t.threads.(tid), parked_op t tid) with
    | Finished, _ -> h := Fnv.int !h (-1)
    | _, Some op ->
      h := Fnv.string (Fnv.int !h tid) (Op.to_string op);
      h := Fnv.int !h t.op_repeat.(tid);
      h := Fnv.int !h (Option.value ~default:0 (Hashtbl.find_opt regions tid))
    | _, None -> h := Fnv.int !h (-2)
  done;
  let h = List.fold_left (fun acc f -> f acc) !h t.snapshotters in
  match t.booted.Program.snapshot with None -> h | Some f -> Fnv.int h (Int64.to_int (f ()))

let sync_ops t = t.sync_ops
let var_ops t = t.var_ops
let op_counts t = t.op_counts
let context_switches t = t.context_switches

let stop t =
  if t.live then begin
    t.live <- false;
    unwind t
  end;
  match !active with
  | Some a when a == t -> active := None
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* Capture and restore                                                 *)

(* A machine thread is data: a state of a restorable run is its program's
   copy plus the engine's counters, and restoring it writes both back. *)
type snapshot = {
  s_parked : B.t;  (* threads parked at the capture; the rest had finished *)
  s_prev_op : Op.t option array;  (* a parked thread's entry is its pending op *)
  s_op_repeat : int array;
  s_enabled : B.t;
  s_steps : int;  (* also the trace length *)
  s_sync_ops : int;
  s_var_ops : int;
  s_op_counts : int array;
  s_context_switches : int;
  s_last_stepped : int;
  s_counts : int array;  (* the store's object counts *)
  s_restore : unit -> unit;  (* writes the program's state back *)
}

let restorable t =
  Option.is_some t.booted.Program.machine
  && Option.is_some t.booted.Program.capture
  && Option.is_none t.obs

let capture t =
  match t.booted.Program.capture with
  | Some capture_prog when restorable t && t.live && Option.is_none t.failure ->
    let parked = ref B.empty in
    for tid = 0 to t.nthreads - 1 do
      match t.threads.(tid) with
      | Parked_data -> parked := B.add tid !parked
      | Parked _ | Offered | Running -> invalid_arg "Engine.capture: a fiber cannot be restored"
      | Finished -> ()
    done;
    { s_parked = !parked;
      s_prev_op = Array.sub t.prev_op 0 t.nthreads;
      s_op_repeat = Array.sub t.op_repeat 0 t.nthreads;
      s_enabled = t.enabled;
      s_steps = t.steps;
      s_sync_ops = t.sync_ops;
      s_var_ops = t.var_ops;
      s_op_counts = Array.copy t.op_counts;
      s_context_switches = t.context_switches;
      s_last_stepped = t.last_stepped;
      s_counts = Objects.save_counts t.prog_store;
      s_restore = capture_prog () }
  | _ -> invalid_arg "Engine.capture: run not restorable"

let restore t s =
  if not t.live then invalid_arg "Engine.restore: run not live";
  s.s_restore ();
  Objects.restore_counts t.prog_store s.s_counts;
  t.failure <- None;
  let n = Array.length s.s_prev_op in
  for tid = 0 to n - 1 do
    t.threads.(tid) <- (if B.mem tid s.s_parked then Parked_data else Finished)
  done;
  Array.blit s.s_prev_op 0 t.prev_op 0 n;
  Array.blit s.s_op_repeat 0 t.op_repeat 0 n;
  t.nfinished <- n - B.cardinal s.s_parked;
  t.enabled <- s.s_enabled;
  t.steps <- s.s_steps;
  Trace.truncate t.trace s.s_steps;
  t.sync_ops <- s.s_sync_ops;
  t.var_ops <- s.s_var_ops;
  Array.blit s.s_op_counts 0 t.op_counts 0 (Array.length t.op_counts);
  t.context_switches <- s.s_context_switches;
  t.last_stepped <- s.s_last_stepped
