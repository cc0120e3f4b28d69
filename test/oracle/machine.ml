(* The AST-walking ChessLang interpreter: the oracle the bytecode VM is
   tested against (test/test_dsl.ml, test/test_static.ml). No product code
   links it. *)

open Fairmc_dsl
open Ast
open Fairmc_core
module Fnv = Fairmc_util.Fnv

(* Runtime objects backing the declarations of one execution. *)
type objects = {
  slots : int array;  (* scalar and array storage, in declaration order *)
  slot_of : (string, int) Hashtbl.t;  (* name -> first slot *)
  size_of : (string, int) Hashtbl.t;  (* array name -> size; scalars absent *)
  var_obj : (string, Op.obj) Hashtbl.t;  (* per var/array scheduling identity *)
  mutexes : (string, Sync.Mutex.t) Hashtbl.t;
  sems : (string, Sync.Semaphore.t) Hashtbl.t;
  events : (string, Sync.Event.t) Hashtbl.t;
}

(* One thread's machine state: a stack of statement lists. The head of the
   top frame is the next statement; [While] keeps itself at the head while
   its body runs as a pushed frame, so loop re-tests are ordinary steps. *)
type tmachine = {
  tname : string;
  mutable frames : block list;
  locals : (string, int) Hashtbl.t;
  local_names : string list;  (* sorted, for snapshot determinism *)
  local_set : (string, unit) Hashtbl.t;  (* same names, O(1) membership *)
  op_cache : (Op.t option * bool) option array;
      (* per-statement-id engine op + has-primitive, computed once per
         boot: [op_of_stmt] walks expressions and scans global lists, a
         per-step cost that would otherwise recur on every re-execution *)
}

let is_local_name tm n = Hashtbl.mem tm.local_set n

exception Runtime_error of string * pos

let rt_err pos fmt =
  Format.kasprintf (fun m -> raise (Runtime_error (m, pos))) fmt

let build_objects (info : Sema.info) =
  let total =
    List.fold_left
      (fun acc (_, k) ->
        match (k : Sema.gkind) with
        | Scalar -> acc + 1
        | Array n -> acc + n
        | Mutex | Sem _ | Event _ -> acc)
      0 info.kinds
  in
  let o =
    { slots = Array.make (max total 1) 0;
      slot_of = Hashtbl.create 16;
      size_of = Hashtbl.create 16;
      var_obj = Hashtbl.create 16;
      mutexes = Hashtbl.create 8;
      sems = Hashtbl.create 8;
      events = Hashtbl.create 8 }
  in
  let next = ref 0 in
  List.iter
    (fun (name, k) ->
      match (k : Sema.gkind) with
      | Scalar ->
        Hashtbl.replace o.slot_of name !next;
        incr next;
        Hashtbl.replace o.var_obj name (Sync.Raw.var ~name ())
      | Array n ->
        Hashtbl.replace o.slot_of name !next;
        Hashtbl.replace o.size_of name n;
        next := !next + n;
        Hashtbl.replace o.var_obj name (Sync.Raw.var ~name ())
      | Mutex -> Hashtbl.replace o.mutexes name (Sync.Mutex.create ~name ())
      | Sem init -> Hashtbl.replace o.sems name (Sync.Semaphore.create ~name init)
      | Event auto -> Hashtbl.replace o.events name (Sync.Event.create ~name ~auto ()))
    info.kinds;
  o

let init_slots (prog : program) o =
  List.iter
    (fun d ->
      match d with
      | Dvar (_, n, init) -> o.slots.(Hashtbl.find o.slot_of n) <- init
      | Darray (_, n, size, init) ->
        let base = Hashtbl.find o.slot_of n in
        for i = 0 to size - 1 do
          o.slots.(base + i) <- init
        done
      | Dmutex _ | Dsem _ | Devent _ | Dthread _ -> ())
    prog.decls

(* Expression evaluation. Effectful primitives consume [prim], the result
   of the transition's single scheduler interaction. *)
let rec eval o tm prim e =
  match e with
  | Int n -> n
  | Name (p, n) ->
    if is_local_name tm n then
      match Hashtbl.find_opt tm.locals n with
      | Some v -> v
      | None -> rt_err p "local %s read before initialization" n
    else o.slots.(Hashtbl.find o.slot_of n)
  | Index (p, a, i) ->
    let iv = eval o tm prim i in
    let size = Hashtbl.find o.size_of a in
    if iv < 0 || iv >= size then rt_err p "index %d out of bounds for %s[%d]" iv a size;
    o.slots.(Hashtbl.find o.slot_of a + iv)
  | Binop (op, a, b) -> (
    let truthy v = v <> 0 in
    match op with
    | And -> if truthy (eval o tm prim a) then eval o tm prim b else 0
    | Or ->
      let va = eval o tm prim a in
      if truthy va then 1 else eval o tm prim b
    | _ ->
      (* Left-to-right, like the compiled backend: with at most one
         primitive per statement the results agree, but a statement can
         still raise two different runtime errors depending on order. *)
      let va = eval o tm prim a in
      let vb = eval o tm prim b in
      (match op with
       | Add -> va + vb
       | Sub -> va - vb
       | Mul -> va * vb
       | Div -> if vb = 0 then rt_err (pos_of e) "division by zero" else va / vb
       | Mod -> if vb = 0 then rt_err (pos_of e) "modulo by zero" else va mod vb
       | Eq -> Bool.to_int (va = vb)
       | Ne -> Bool.to_int (va <> vb)
       | Lt -> Bool.to_int (va < vb)
       | Le -> Bool.to_int (va <= vb)
       | Gt -> Bool.to_int (va > vb)
       | Ge -> Bool.to_int (va >= vb)
       | And | Or -> assert false))
  | Unop (Not, a) -> Bool.to_int (eval o tm prim a = 0)
  | Unop (Neg, a) -> -eval o tm prim a
  | Try_lock _ | Timed_lock _ | Timed_wait _ | Sem_try _ | Choose _ -> (
    match !prim with
    | Some r ->
      prim := None;
      r
    | None -> assert false)

and pos_of = function
  | Name (p, _) | Index (p, _, _) | Try_lock (p, _) | Timed_lock (p, _)
  | Timed_wait (p, _) | Sem_try (p, _) | Choose (p, _) -> p
  | Int _ | Binop _ | Unop _ -> { line = 0; col = 0 }

(* The single engine operation a statement performs, or [None] for silent
   statements: the shared {!Stmt_op} rule (also used by the compiler),
   mapped to this boot's runtime objects. *)
let op_of_stmt (info : Sema.info) ~invisible o tm (s : stmt) : Op.t option =
  match
    Stmt_op.of_stmt info ~thread:tm.tname ~is_local:(is_local_name tm) ~invisible s
  with
  | None -> None
  | Some a ->
    Some
      (match a with
       | A_lock m -> Op.Lock (Sync.Mutex.id (Hashtbl.find o.mutexes m))
       | A_try_lock m -> Op.Try_lock (Sync.Mutex.id (Hashtbl.find o.mutexes m))
       | A_timed_lock m -> Op.Timed_lock (Sync.Mutex.id (Hashtbl.find o.mutexes m))
       | A_unlock m -> Op.Unlock (Sync.Mutex.id (Hashtbl.find o.mutexes m))
       | A_sem_wait sm -> Op.Sem_wait (Sync.Semaphore.id (Hashtbl.find o.sems sm))
       | A_sem_timed_wait sm ->
         Op.Sem_timed_wait (Sync.Semaphore.id (Hashtbl.find o.sems sm))
       | A_sem_post sm -> Op.Sem_post (Sync.Semaphore.id (Hashtbl.find o.sems sm))
       | A_ev_wait ev -> Op.Ev_wait (Sync.Event.id (Hashtbl.find o.events ev))
       | A_ev_timed_wait ev -> Op.Ev_timed_wait (Sync.Event.id (Hashtbl.find o.events ev))
       | A_ev_set ev -> Op.Ev_set (Sync.Event.id (Hashtbl.find o.events ev))
       | A_ev_reset ev -> Op.Ev_reset (Sync.Event.id (Hashtbl.find o.events ev))
       | A_var_read v -> Op.Var_read (Hashtbl.find o.var_obj v)
       | A_var_write v -> Op.Var_write (Hashtbl.find o.var_obj v)
       | A_var_rmw v -> Op.Var_rmw (Hashtbl.find o.var_obj v)
       | A_choose n -> Op.Choose n
       | A_yield -> Op.Yield
       | A_sleep -> Op.Sleep)

(* Execute statement [s] (already at the head of the top frame, already
   "performed" with primitive result in [prim]); updates the frame stack. *)
let rec exec_stmt o tm prim (s : stmt) rest parents =
  let continue_with frames = tm.frames <- frames in
  match s.kind with
  | Local (n, e) ->
    Hashtbl.replace tm.locals n (eval o tm prim e);
    continue_with (rest :: parents)
  | Assign (Lname (p, n), e) ->
    let v = eval o tm prim e in
    if is_local_name tm n then Hashtbl.replace tm.locals n v
    else begin
      match Hashtbl.find_opt o.slot_of n with
      | Some slot -> o.slots.(slot) <- v
      | None -> rt_err p "unbound variable %s" n
    end;
    continue_with (rest :: parents)
  | Assign (Lindex (p, a, i), e) ->
    let iv = eval o tm prim i in
    let v = eval o tm prim e in
    let size = Hashtbl.find o.size_of a in
    if iv < 0 || iv >= size then rt_err p "index %d out of bounds for %s[%d]" iv a size;
    o.slots.(Hashtbl.find o.slot_of a + iv) <- v;
    continue_with (rest :: parents)
  | If (c, then_, else_) ->
    let branch = if eval o tm prim c <> 0 then then_ else else_ in
    continue_with (branch :: rest :: parents)
  | While (c, body) ->
    if eval o tm prim c <> 0 then
      (* Keep the loop statement in place for the re-test. *)
      continue_with (body :: (s :: rest) :: parents)
    else continue_with (rest :: parents)
  | Lock _ | Unlock _ | Wait _ | Set_event _ | Reset_event _ | Sem_p _ | Sem_v _
  | Yield | Sleep | Skip ->
    (* State change already applied by the engine operation. *)
    continue_with (rest :: parents)
  | Assert (e, msg) ->
    if eval o tm prim e = 0 then
      rt_err s.pos "%s" msg
    else continue_with (rest :: parents)
  | Atomic body ->
    continue_with (rest :: parents);
    (* Run the whole block without further scheduling points. *)
    let saved = tm.frames in
    tm.frames <- [ body ];
    let fuel = ref Vm.silent_fuel in
    let rec go () =
      match current tm with
      | None -> ()
      | Some (s', rest', parents') ->
        decr fuel;
        if !fuel <= 0 then rt_err s.pos "atomic block exceeded %d steps" Vm.silent_fuel;
        exec_stmt o tm (ref None) s' rest' parents';
        go ()
    in
    go ();
    tm.frames <- saved

(* The next statement of the machine, normalizing empty frames away. *)
and current tm =
  match tm.frames with
  | [] -> None
  | [] :: parents ->
    tm.frames <- parents;
    current tm
  | (s :: rest) :: parents -> Some (s, rest, parents)

(* Does the statement's transition carry an effectful primitive whose
   result the evaluator must consume? *)
let stmt_has_primitive (s : stmt) =
  let exprs =
    match s.kind with
    | Local (_, e) | Assert (e, _) -> [ e ]
    | Assign (Lname _, e) -> [ e ]
    | Assign (Lindex (_, _, i), e) -> [ e; i ]
    | If (c, _, _) | While (c, _) -> [ c ]
    | Lock _ | Unlock _ | Wait _ | Set_event _ | Reset_event _ | Sem_p _ | Sem_v _
    | Yield | Sleep | Skip | Atomic _ -> []
  in
  List.exists (fun e -> Sema.effectful e <> None) exprs

(* Drive one thread: silent statements run inline; visible ones perform
   their engine operation first. *)
(* [op_of_stmt] + [stmt_has_primitive], computed once per statement per
   boot (statement ids are parser-unique, so a flat array serves). *)
let cached_op info ~invisible o tm (s : stmt) =
  match tm.op_cache.(s.id) with
  | Some c -> c
  | None ->
    let c = (op_of_stmt info ~invisible o tm s, stmt_has_primitive s) in
    tm.op_cache.(s.id) <- Some c;
    c

let thread_body (info : Sema.info) ~invisible o tm () =
  let fuel = ref Vm.silent_fuel in
  let rec go () =
    match current tm with
    | None -> ()
    | Some (s, rest, parents) -> (
      match cached_op info ~invisible o tm s with
      | None, _ ->
        decr fuel;
        if !fuel <= 0 then
          rt_err s.pos "thread %s ran %d silent steps without a scheduling point"
            tm.tname Vm.silent_fuel;
        exec_stmt o tm (ref None) s rest parents;
        go ()
      | Some op, has_prim ->
        fuel := Vm.silent_fuel;
        let r = Sync.Raw.sched op in
        let prim = ref (if has_prim then Some r else None) in
        exec_stmt o tm prim s rest parents;
        go ())
  in
  try go () with
  | Runtime_error (msg, pos) ->
    Sync.fail (Format.asprintf "%s (thread %s, %a)" msg tm.tname pp_pos pos)

let snapshot o tms () =
  let h = ref (Fnv.ints Fnv.init o.slots) in
  List.iter
    (fun tm ->
      h := Fnv.int !h (List.length tm.frames);
      List.iter
        (fun frame ->
          h := Fnv.int !h (match frame with s :: _ -> s.id | [] -> -1))
        tm.frames;
      List.iter
        (fun n -> h := Fnv.int !h (Option.value ~default:min_int (Hashtbl.find_opt tm.locals n)))
        tm.local_names)
    tms;
  !h

(* Statement ids are assigned by one parser counter; the array bound for
   per-boot op caches is the largest id in the program. *)
let max_stmt_id (prog : program) =
  let m = ref 0 in
  let rec go_block b =
    List.iter
      (fun (s : stmt) ->
        if s.id > !m then m := s.id;
        match s.kind with
        | If (_, a, b) ->
          go_block a;
          go_block b
        | While (_, b) | Atomic b -> go_block b
        | Local _ | Assign _ | Lock _ | Unlock _ | Wait _ | Set_event _
        | Reset_event _ | Sem_p _ | Sem_v _ | Yield | Sleep | Skip | Assert _ -> ())
      b
  in
  List.iter (fun (_, b) -> go_block b) (Ast.threads prog);
  !m

let boot ?(invisible = Stmt_op.no_invisible) (prog : program) (info : Sema.info) () =
  let o = build_objects info in
  init_slots prog o;
  let cache_len = max_stmt_id prog + 1 in
  let tms =
    List.map
      (fun (tname, body) ->
        let local_names =
          List.sort compare
            (match List.assoc_opt tname info.Sema.thread_locals with
             | Some l -> l
             | None -> [])
        in
        let local_set = Hashtbl.create 8 in
        List.iter (fun n -> Hashtbl.replace local_set n ()) local_names;
        { tname;
          frames = [ body ];
          locals = Hashtbl.create 8;
          local_names;
          local_set;
          op_cache = Array.make cache_len None })
      (Ast.threads prog)
  in
  ( (o, tms),
    { Program.threads = List.map (fun tm -> thread_body info ~invisible o tm) tms;
      snapshot = Some (snapshot o tms);
      (* The interpreter's frames hold AST lists: it offers no capture and
         keeps replaying. *)
      capture = None } )

let compile ?invisible (prog : program) =
  let info = Sema.check prog in
  Program.make ~name:prog.prog_name (fun () -> snd (boot ?invisible prog info ()))

(* Final-store dump of the most recent boot, mirroring [Vm.compile_inspect]:
   globals (array cells as "a[i]") then initialized locals ("thread.name"). *)
let compile_inspect ?invisible (prog : program) =
  let info = Sema.check prog in
  let last = ref None in
  let p =
    Program.make ~name:prog.prog_name (fun () ->
        let st, booted = boot ?invisible prog info () in
        last := Some st;
        booted)
  in
  let dump () =
    match !last with
    | None -> []
    | Some (o, tms) ->
      let globals =
        List.concat_map
          (fun (name, k) ->
            match (k : Sema.gkind) with
            | Scalar -> [ (name, o.slots.(Hashtbl.find o.slot_of name)) ]
            | Array n ->
              let base = Hashtbl.find o.slot_of name in
              List.init n (fun i -> (Printf.sprintf "%s[%d]" name i, o.slots.(base + i)))
            | Mutex | Sem _ | Event _ -> [])
          info.kinds
      in
      let locals =
        List.concat_map
          (fun tm ->
            List.filter_map
              (fun n ->
                Option.map
                  (fun v -> (tm.tname ^ "." ^ n, v))
                  (Hashtbl.find_opt tm.locals n))
              tm.local_names)
          tms
      in
      globals @ locals
  in
  (p, dump)
