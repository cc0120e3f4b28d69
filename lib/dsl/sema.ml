open Ast

type gkind = Scalar | Array of int | Mutex | Sem of int | Event of bool

type info = {
  kinds : (string * gkind) list;
  thread_locals : (string * string list) list;
}

exception Error of string * Ast.pos

let err pos fmt = Format.kasprintf (fun m -> raise (Error (m, pos))) fmt

let kind_name = function
  | Scalar -> "variable"
  | Array _ -> "array"
  | Mutex -> "mutex"
  | Sem _ -> "semaphore"
  | Event _ -> "event"

(* Effectful primitives: scheduler interactions embedded in expressions. *)
let rec effectful_list e =
  match e with
  | Int _ | Name _ -> []
  | Index (_, _, i) -> effectful_list i
  | Binop (_, a, b) -> effectful_list a @ effectful_list b
  | Unop (_, a) -> effectful_list a
  | Try_lock _ | Timed_lock _ | Timed_wait _ | Sem_try _ | Choose _ -> [ e ]

let effectful e = match effectful_list e with x :: _ -> Some x | [] -> None

let pos_of_expr = function
  | Name (p, _) | Index (p, _, _) | Try_lock (p, _) | Timed_lock (p, _)
  | Timed_wait (p, _) | Sem_try (p, _) | Choose (p, _) -> Some p
  | Int _ | Binop _ | Unop _ -> None

let max_global_slots = 65_536

let check (prog : program) =
  let kinds : (string, gkind) Hashtbl.t = Hashtbl.create 16 in
  let order = ref [] in
  let declare pos name kind =
    if Hashtbl.mem kinds name then err pos "duplicate declaration of %s" name;
    Hashtbl.add kinds name kind;
    order := (name, kind) :: !order
  in
  (* Global scalars take one slot, arrays one per element. *)
  let slots = ref 0 in
  let take_slots pos name n =
    if n > max_global_slots - !slots then
      err pos "%s takes the program's global storage past %d slots" name max_global_slots;
    slots := !slots + n
  in
  let threads = ref [] in
  List.iter
    (fun d ->
      match d with
      | Dvar (p, n, _) ->
        take_slots p n 1;
        declare p n Scalar
      | Darray (p, n, size, _) ->
        take_slots p n size;
        declare p n (Array size)
      | Dmutex (p, n) -> declare p n Mutex
      | Dsem (p, n, init) ->
        if init < 0 then err p "semaphore %s: negative initial count" n;
        declare p n (Sem init)
      | Devent (p, n, auto) -> declare p n (Event auto)
      | Dthread (p, n, body) ->
        if List.mem_assoc n !threads then err p "duplicate thread %s" n;
        (* Thread ids are bitset elements, as in the engine and the scheduler. *)
        if List.length !threads > Fairmc_util.Bitset.max_capacity then
          err p "thread %s: program %s declares more than %d threads" n prog.prog_name
            (Fairmc_util.Bitset.max_capacity + 1);
        threads := (n, (p, body)) :: !threads)
    prog.decls;
  let threads = List.rev !threads in
  if threads = [] then
    err { line = 1; col = 1 } "program %s declares no threads" prog.prog_name;

  let expect pos name want =
    match Hashtbl.find_opt kinds name with
    | Some k when k = want || (match (k, want) with
                               | Sem _, Sem _ | Event _, Event _ | Array _, Array _ -> true
                               | _ -> false) -> ()
    | Some k -> err pos "%s is a %s, not a %s" name (kind_name k) (kind_name want)
    | None -> err pos "unknown name %s" name
  in

  let thread_locals = ref [] in
  let check_thread (tname, (_, body)) =
    (* Flow-insensitive local scope: every [local x = ...] in the thread
       declares [x] for the whole thread body. *)
    let locals : (string, unit) Hashtbl.t = Hashtbl.create 8 in
    let rec collect b =
      List.iter
        (fun s ->
          match s.kind with
          | Local (n, _) ->
            if Hashtbl.mem kinds n then
              err s.pos "local %s in thread %s shadows a global declaration" n tname;
            Hashtbl.replace locals n ()
          | If (_, a, b) ->
            collect a;
            collect b
          | While (_, b) | Atomic b -> collect b
          | Assign _ | Lock _ | Unlock _ | Wait _ | Set_event _ | Reset_event _
          | Sem_p _ | Sem_v _ | Yield | Sleep | Skip | Assert _ -> ())
        b
    in
    collect body;
    let rec check_expr ~in_atomic e =
      match e with
      | Int _ -> ()
      | Name (p, n) ->
        if not (Hashtbl.mem locals n) then begin
          match Hashtbl.find_opt kinds n with
          | Some Scalar -> ()
          | Some k -> err p "%s is a %s and cannot be read as a value" n (kind_name k)
          | None -> err p "unknown name %s" n
        end
      | Index (p, a, i) ->
        expect p a (Array 0);
        check_expr ~in_atomic i
      | Binop (_, a, b) ->
        check_expr ~in_atomic a;
        check_expr ~in_atomic b
      | Unop (_, a) -> check_expr ~in_atomic a
      | Try_lock (p, m) | Timed_lock (p, m) ->
        if in_atomic then err p "synchronization inside an atomic block";
        expect p m Mutex
      | Timed_wait (p, ev) ->
        if in_atomic then err p "synchronization inside an atomic block";
        expect p ev (Event false)
      | Sem_try (p, sm) ->
        if in_atomic then err p "synchronization inside an atomic block";
        expect p sm (Sem 0)
      | Choose (p, _) -> if in_atomic then err p "choice inside an atomic block"
    in
    let check_lhs ~in_atomic = function
      | Lname (p, n) ->
        if not (Hashtbl.mem locals n) then begin
          match Hashtbl.find_opt kinds n with
          | Some Scalar -> ()
          | Some k -> err p "cannot assign to %s (a %s)" n (kind_name k)
          | None -> err p "assignment to undeclared variable %s (use 'local %s = ...')" n n
        end
      | Lindex (p, a, i) ->
        expect p a (Array 0);
        check_expr ~in_atomic i
    in
    let stmt_effect_count s exprs =
      let n = List.fold_left (fun acc e -> acc + List.length (effectful_list e)) 0 exprs in
      if n > 1 then
        err s.pos
          "a statement is a single transition and may contain at most one \
           trylock/timedlock/timedwait/semtry/choose";
      ignore (List.map pos_of_expr exprs)
    in
    let rec check_stmt ~in_atomic s =
      match s.kind with
      | Local (_, e) | Assert (e, _) ->
        check_expr ~in_atomic e;
        stmt_effect_count s [ e ]
      | Assign (lhs, e) ->
        check_lhs ~in_atomic lhs;
        check_expr ~in_atomic e;
        let idx = match lhs with Lindex (_, _, i) -> [ i ] | Lname _ -> [] in
        stmt_effect_count s (e :: idx)
      | If (c, a, b) ->
        check_expr ~in_atomic c;
        stmt_effect_count s [ c ];
        check_block ~in_atomic a;
        check_block ~in_atomic b
      | While (c, b) ->
        check_expr ~in_atomic c;
        stmt_effect_count s [ c ];
        check_block ~in_atomic b
      | Lock m | Unlock m ->
        if in_atomic then err s.pos "synchronization inside an atomic block";
        expect s.pos m Mutex
      | Wait ev | Set_event ev | Reset_event ev ->
        if in_atomic then err s.pos "synchronization inside an atomic block";
        expect s.pos ev (Event false)
      | Sem_p sm | Sem_v sm ->
        if in_atomic then err s.pos "synchronization inside an atomic block";
        expect s.pos sm (Sem 0)
      | Yield | Sleep ->
        if in_atomic then err s.pos "yield inside an atomic block"
      | Skip -> ()
      | Atomic b ->
        if in_atomic then err s.pos "nested atomic block";
        check_block ~in_atomic:true b
    and check_block ~in_atomic b = List.iter (check_stmt ~in_atomic) b in
    check_block ~in_atomic:false body;
    thread_locals :=
      (tname, List.of_seq (Hashtbl.to_seq_keys locals)) :: !thread_locals
  in
  List.iter check_thread threads;
  { kinds = List.rev !order; thread_locals = List.rev !thread_locals }

let globals_read info ~thread e =
  let locals =
    match List.assoc_opt thread info.thread_locals with Some l -> l | None -> []
  in
  let is_global n = (not (List.mem n locals)) && List.mem_assoc n info.kinds in
  let rec go acc e =
    match e with
    | Int _ | Try_lock _ | Timed_lock _ | Timed_wait _ | Sem_try _ | Choose _ -> acc
    | Name (_, n) -> if is_global n then n :: acc else acc
    | Index (_, a, i) -> go (a :: acc) i
    | Binop (_, a, b) -> go (go acc a) b
    | Unop (_, a) -> go acc a
  in
  List.rev (go [] e)
