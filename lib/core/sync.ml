module Fnv = Fairmc_util.Fnv

let sched op =
  if not Runtime.ctx.in_thread then
    failwith (Printf.sprintf "Sync: %s called outside of a running thread" (Op.to_string op));
  Effect.perform (Runtime.Sched op)

let sched_bool op = sched op = 1

let yield () = ignore (sched Op.Yield)
let sleep () = ignore (sched Op.Sleep)

let spawn body =
  let c = Runtime.ctx in
  c.spawn_body <- Some body;
  ignore (sched Op.Spawn);
  c.spawn_result

let join tid = ignore (sched (Op.Join tid))
let self () = Runtime.ctx.current_tid

let choose n =
  if n <= 0 then invalid_arg "Sync.choose";
  if n = 1 then 0 else sched (Op.Choose n)

let at region =
  let c = Runtime.ctx in
  if c.in_thread then Hashtbl.replace c.regions c.current_tid region

let fail msg = raise (Runtime.Assertion_failure msg)
let check cond msg = if not cond then fail msg

let register kind name init =
  let store = Runtime.get_store () in
  Objects.register store ?name kind ~init

module Mutex = struct
  type t = Op.obj

  let create ?name () = register Objects.Mutex name 0
  let lock m = ignore (sched (Op.Lock m))
  let try_lock m = sched_bool (Op.Try_lock m)
  let timed_lock m = sched_bool (Op.Timed_lock m)
  let unlock m = ignore (sched (Op.Unlock m))
  let id m = m
end

module Semaphore = struct
  type t = Op.obj

  let create ?name init = register Objects.Semaphore name init
  let wait s = ignore (sched (Op.Sem_wait s))
  let try_wait s = sched_bool (Op.Sem_try_wait s)
  let timed_wait s = sched_bool (Op.Sem_timed_wait s)
  let post s = ignore (sched (Op.Sem_post s))
  let id s = s
end

module Event = struct
  type t = Op.obj

  let create ?name ?(auto = false) ?(initial = false) () =
    register
      (if auto then Objects.Auto_event else Objects.Manual_event)
      name
      (if initial then 1 else 0)

  let wait e = ignore (sched (Op.Ev_wait e))
  let timed_wait e = sched_bool (Op.Ev_timed_wait e)
  let set e = ignore (sched (Op.Ev_set e))
  let reset e = ignore (sched (Op.Ev_reset e))
  let id e = e
end

module Svar = struct
  type 'a t = { obj : Op.obj; mutable value : 'a }

  let create ?name ?hash v =
    let obj = register Objects.Var name 0 in
    let sv = { obj; value = v } in
    (match hash with
     | None -> ()
     | Some h ->
       let c = Runtime.ctx in
       c.snapshotters <- (fun acc -> h acc sv.value) :: c.snapshotters);
    sv

  (* Outside a thread (during [boot]) accesses are direct: initialization is
     deterministic and needs no scheduling point. *)
  let get sv =
    if Runtime.ctx.in_thread then ignore (sched (Op.Var_read sv.obj));
    sv.value

  let set sv v =
    if Runtime.ctx.in_thread then ignore (sched (Op.Var_write sv.obj));
    sv.value <- v

  let update sv f =
    if Runtime.ctx.in_thread then ignore (sched (Op.Var_rmw sv.obj));
    let old = sv.value in
    sv.value <- f old;
    old

  let cas sv ~expected v =
    if Runtime.ctx.in_thread then ignore (sched (Op.Var_rmw sv.obj));
    if sv.value = expected then begin
      sv.value <- v;
      true
    end
    else false

  let incr sv = update sv (fun x -> x + 1)
  let id sv = sv.obj
end

module Raw = struct
  let var ?name () = register Objects.Var name 0
  let sched op = sched op
end

let int_var ?name v = Svar.create ?name ~hash:Fnv.int v
let bool_var ?name v = Svar.create ?name ~hash:(fun h b -> Fnv.int h (Bool.to_int b)) v
