type kind = Mutex | Semaphore | Manual_event | Auto_event | Var

type slot = {
  kind : kind;
  name : string;
  mutable count : int;
      (* mutex: owner tid or -1; semaphore: count; event: 0 unset / 1 set;
         var: unused *)
}

type t = { mutable slots : slot array; mutable len : int }

exception Sync_error of string

let sync_error fmt = Format.kasprintf (fun s -> raise (Sync_error s)) fmt

let create () = { slots = Array.make 16 { kind = Var; name = ""; count = 0 }; len = 0 }

let default_name kind id =
  let prefix =
    match kind with
    | Mutex -> "mutex"
    | Semaphore -> "sem"
    | Manual_event | Auto_event -> "event"
    | Var -> "var"
  in
  Printf.sprintf "%s#%d" prefix id

let register t ?name kind ~init =
  let name = match name with Some n -> n | None -> default_name kind t.len in
  let count =
    match kind with
    | Mutex -> -1
    | Semaphore -> if init < 0 then sync_error "semaphore %s: negative initial count" name else init
    | Manual_event | Auto_event -> if init = 0 then 0 else 1
    | Var -> 0
  in
  if t.len = Array.length t.slots then begin
    let slots = Array.make (2 * t.len) t.slots.(0) in
    Array.blit t.slots 0 slots 0 t.len;
    t.slots <- slots
  end;
  t.slots.(t.len) <- { kind; name; count };
  t.len <- t.len + 1;
  t.len - 1

let slot t o =
  if o < 0 || o >= t.len then sync_error "unknown sync object #%d" o;
  t.slots.(o)

let name t o = (slot t o).name
let kind t o = (slot t o).kind
let count t o = (slot t o).count

let expect t o k what =
  let s = slot t o in
  if s.kind <> k then sync_error "%s applied to %s (a different object kind)" what s.name;
  s

let enabled t ~finished (op : Op.t) =
  match op with
  | Lock o -> (expect t o Mutex "lock").count = -1
  | Sem_wait o -> (expect t o Semaphore "sem_wait").count > 0
  | Ev_wait o -> (slot t o).count = 1
  | Join tid -> finished tid
  | Try_lock _ | Timed_lock _ | Unlock _ | Sem_try_wait _ | Sem_timed_wait _
  | Sem_post _ | Ev_timed_wait _ | Ev_set _ | Ev_reset _
  | Var_read _ | Var_write _ | Var_rmw _ | Yield | Sleep | Spawn | Choose _ -> true

let would_yield t (op : Op.t) =
  match op with
  | Yield | Sleep -> true
  | Timed_lock o -> (slot t o).count <> -1
  | Sem_timed_wait o -> (slot t o).count <= 0
  | Ev_timed_wait o -> (slot t o).count = 0
  | Lock _ | Try_lock _ | Unlock _ | Sem_wait _ | Sem_try_wait _ | Sem_post _
  | Ev_wait _ | Ev_set _ | Ev_reset _ | Var_read _ | Var_write _ | Var_rmw _
  | Join _ | Spawn | Choose _ -> false

let acquire t o self what =
  let s = expect t o Mutex what in
  if s.count = self then sync_error "%s: recursive lock by thread %d" s.name self;
  if s.count = -1 then begin s.count <- self; true end else false

let execute t ~self (op : Op.t) =
  match op with
  | Lock o ->
    if not (acquire t o self "lock") then sync_error "lock of held mutex %s" (name t o);
    true
  | Try_lock o -> acquire t o self "trylock"
  | Timed_lock o -> acquire t o self "timedlock"
  | Unlock o ->
    let s = expect t o Mutex "unlock" in
    if s.count <> self then
      sync_error "unlock of %s by thread %d (owner: %d)" s.name self s.count;
    s.count <- -1;
    true
  | Sem_wait o ->
    let s = expect t o Semaphore "sem_wait" in
    if s.count <= 0 then sync_error "sem_wait on empty semaphore %s" s.name;
    s.count <- s.count - 1;
    true
  | Sem_try_wait o | Sem_timed_wait o ->
    let s = expect t o Semaphore "sem_trywait" in
    if s.count > 0 then begin s.count <- s.count - 1; true end else false
  | Sem_post o ->
    let s = expect t o Semaphore "sem_post" in
    s.count <- s.count + 1;
    true
  | Ev_wait o ->
    let s = slot t o in
    (match s.kind with
     | Manual_event -> true
     | Auto_event -> s.count <- 0; true
     | Mutex | Semaphore | Var -> sync_error "ev_wait applied to %s" s.name)
  | Ev_timed_wait o ->
    let s = slot t o in
    (match s.kind with
     | Manual_event -> s.count = 1
     | Auto_event -> if s.count = 1 then begin s.count <- 0; true end else false
     | Mutex | Semaphore | Var -> sync_error "ev_timedwait applied to %s" s.name)
  | Ev_set o ->
    let s = slot t o in
    (match s.kind with
     | Manual_event | Auto_event -> s.count <- 1; true
     | Mutex | Semaphore | Var -> sync_error "ev_set applied to %s" s.name)
  | Ev_reset o ->
    let s = slot t o in
    (match s.kind with
     | Manual_event | Auto_event -> s.count <- 0; true
     | Mutex | Semaphore | Var -> sync_error "ev_reset applied to %s" s.name)
  | Var_read _ | Var_write _ | Var_rmw _ | Yield | Sleep | Join _ | Spawn | Choose _ ->
    true

let holder t o =
  let s = expect t o Mutex "holder" in
  if s.count = -1 then None else Some s.count

let signature t h =
  let h = ref h in
  for i = 0 to t.len - 1 do
    h := Fairmc_util.Fnv.int !h t.slots.(i).count
  done;
  !h

let save_counts t = Array.init t.len (fun i -> t.slots.(i).count)

let restore_counts t counts =
  if Array.length counts <> t.len then invalid_arg "Objects.restore_counts";
  for i = 0 to t.len - 1 do
    t.slots.(i).count <- counts.(i)
  done

let pp_obj t ppf o =
  if o < 0 || o >= t.len then Format.fprintf ppf "#%d" o
  else Format.fprintf ppf "%s" t.slots.(o).name
