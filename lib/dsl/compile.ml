(* Bytecode compiler for ChessLang.

   Lowers a sema-checked AST to a flat [int array] of instructions per
   thread. All name resolution happens here: globals become slot indices
   into one shared [int array], locals become per-thread slot indices,
   synchronization objects become indices into per-kind object tables
   built at boot. The VM ([Vm]) never touches a string or a [Hashtbl].

   Observable equivalence with the AST-walking oracle (test/oracle) is a
   hard contract: the compiler mirrors the oracle's [op_of_stmt] when
   computing the engine operation of each statement (the [SCHED]
   boundary), preserves
   evaluation order (left-to-right, index before value, value before
   bounds check), silent-fuel accounting, and every runtime-error message
   and position. The differential suite in test/test_dsl.ml checks this
   per schedule. *)

open Ast

(* ------------------------------------------------------------------ *)
(* Instruction set. One cell per opcode, operands inline; widths are
   fixed per opcode (see [width]). Stack effects in comments. *)

let op_halt = 0 (* thread done *)
let op_push = 1 (* c               [] -> [c] *)
let op_load_g = 2 (* slot            [] -> [v] *)
let op_store_g = 3 (* slot            [v] -> [] *)
let op_load_l = 4 (* slot name pos   [] -> [v]; init-checked *)
let op_store_l = 5 (* slot            [v] -> [] *)
let op_load_gi = 6 (* base size name pos   [i] -> [v]; bounds-checked *)
let op_store_gi = 7 (* base size name pos   [i v] -> []; bounds-checked *)
let op_add = 8
let op_sub = 9
let op_mul = 10
let op_div = 11
let op_mod = 12
let op_eq = 13
let op_ne = 14
let op_lt = 15
let op_le = 16
let op_gt = 17
let op_ge = 18
let op_not = 19
let op_neg = 20
let op_jmp = 21 (* target *)
let op_jz = 22 (* target          [v] -> [] *)
let op_jnz = 23 (* target          [v] -> [] *)
let op_sched = 24 (* opidx: perform the transition's engine operation *)
let op_prim = 25 (*                 [] -> [r] (last scheduler result) *)
let op_fuel = 26 (* pos: silent-statement boundary, burns thread fuel *)
let op_afuel = 27 (* pos: atomic-body statement boundary *)
let op_atomic_enter = 28 (* reset the atomic-block fuel *)
let op_assert = 29 (* msg pos         [v] -> []; fails when v = 0 *)

let width = function
  | 0 | 8 | 9 | 10 | 11 | 12 | 13 | 14 | 15 | 16 | 17 | 18 | 19 | 20 | 25 | 28 -> 1
  | 1 | 2 | 3 | 5 | 21 | 22 | 23 | 24 | 26 | 27 -> 2
  | 29 -> 3
  | 4 -> 4
  | 6 | 7 -> 5
  | _ -> invalid_arg "Compile.width"

(* ------------------------------------------------------------------ *)
(* Compiled form. *)

(* The engine operation of a visible statement, with objects as compile-
   time indices; materialized into [Op.t] once the objects exist (boot). *)
type op_template =
  | T_lock of int
  | T_try_lock of int
  | T_timed_lock of int
  | T_unlock of int
  | T_sem_wait of int
  | T_sem_timed_wait of int
  | T_sem_post of int
  | T_ev_wait of int
  | T_ev_timed_wait of int
  | T_ev_set of int
  | T_ev_reset of int
  | T_var_read of int
  | T_var_write of int
  | T_var_rmw of int
  | T_choose of int
  | T_yield
  | T_sleep

(* Boot-time object registration plan, in declaration order: identical to
   the oracle's [build_objects], so both backends assign identical [Op.obj]
   identities and produce identical transition streams. *)
type reg =
  | Reg_var of string (* scalar or array: one scheduling identity *)
  | Reg_mutex of string
  | Reg_sem of string * int
  | Reg_event of string * bool

type thread_code = {
  t_name : string;
  t_code : int array;
  t_nlocals : int;
  t_local_names : string array; (* local slot -> name, sorted *)
  t_stack : int; (* operand stack bound (conservative) *)
}

type t = {
  c_name : string;
  c_regs : reg array;
  c_nslots : int;
  c_init : int array; (* initial global-slot values; length = max c_nslots 1 *)
  c_globals : (string * int * int) array; (* name, base slot, size (0 = scalar) *)
  c_ops : op_template array; (* SCHED operand -> operation *)
  c_op_stmt : int array; (* SCHED operand -> AST statement id *)
  c_op_thread : int array; (* SCHED operand -> thread index *)
  c_pos : pos array; (* position table for runtime errors *)
  c_names : string array; (* name table for runtime errors *)
  c_msgs : string array; (* assert messages *)
  c_threads : thread_code array;
}

(* ------------------------------------------------------------------ *)

(* Growable instruction buffer. *)
module Buf = struct
  type t = { mutable a : int array; mutable len : int }

  let create () = { a = Array.make 64 0; len = 0 }

  let emit b v =
    if b.len = Array.length b.a then begin
      let a = Array.make (2 * b.len) 0 in
      Array.blit b.a 0 a 0 b.len;
      b.a <- a
    end;
    b.a.(b.len) <- v;
    b.len <- b.len + 1

  let here b = b.len
  let patch b i v = b.a.(i) <- v
  let contents b = Array.sub b.a 0 b.len
end

(* Growable interning table (append-only; [dedup] keys on the value). *)
module Tbl = struct
  type 'a t = { mutable items : 'a list; mutable n : int; index : ('a, int) Hashtbl.t }

  let create () = { items = []; n = 0; index = Hashtbl.create 16 }

  let add t v =
    t.items <- v :: t.items;
    t.n <- t.n + 1;
    t.n - 1

  let dedup t v =
    match Hashtbl.find_opt t.index v with
    | Some i -> i
    | None ->
      let i = add t v in
      Hashtbl.replace t.index v i;
      i

  let contents t = Array.of_list (List.rev t.items)
end

(* [invisible] names globals proven thread-local by the static-analysis
   layer: statements whose derivation involves only them compile to FUEL
   instead of SCHED (transition merging, [--static-por]). The default
   compiles every shared access as a scheduling point. *)
let compile ?(invisible = Stmt_op.no_invisible) (prog : program) : t =
  let info = Sema.check prog in
  (* Global layout: value slots for scalars/arrays, per-kind indices for
     scheduling objects — all in declaration order, like the AST machine. *)
  let slot_of = Hashtbl.create 16 in
  let size_of = Hashtbl.create 16 in
  let var_idx = Hashtbl.create 16 in
  let mutex_idx = Hashtbl.create 8 in
  let sem_idx = Hashtbl.create 8 in
  let event_idx = Hashtbl.create 8 in
  let nslots = ref 0 in
  let nvars = ref 0 and nmut = ref 0 and nsem = ref 0 and nev = ref 0 in
  let regs = ref [] in
  List.iter
    (fun (name, k) ->
      match (k : Sema.gkind) with
      | Scalar ->
        Hashtbl.replace slot_of name !nslots;
        incr nslots;
        Hashtbl.replace var_idx name !nvars;
        incr nvars;
        regs := Reg_var name :: !regs
      | Array n ->
        Hashtbl.replace slot_of name !nslots;
        Hashtbl.replace size_of name n;
        nslots := !nslots + n;
        Hashtbl.replace var_idx name !nvars;
        incr nvars;
        regs := Reg_var name :: !regs
      | Mutex ->
        Hashtbl.replace mutex_idx name !nmut;
        incr nmut;
        regs := Reg_mutex name :: !regs
      | Sem init ->
        Hashtbl.replace sem_idx name !nsem;
        incr nsem;
        regs := Reg_sem (name, init) :: !regs
      | Event auto ->
        Hashtbl.replace event_idx name !nev;
        incr nev;
        regs := Reg_event (name, auto) :: !regs)
    info.kinds;
  let init = Array.make (max !nslots 1) 0 in
  List.iter
    (fun d ->
      match d with
      | Dvar (_, n, v) -> init.(Hashtbl.find slot_of n) <- v
      | Darray (_, n, size, v) ->
        let base = Hashtbl.find slot_of n in
        for i = 0 to size - 1 do
          init.(base + i) <- v
        done
      | Dmutex _ | Dsem _ | Devent _ | Dthread _ -> ())
    prog.decls;
  let globals =
    List.filter_map
      (fun (name, k) ->
        match (k : Sema.gkind) with
        | Scalar -> Some (name, Hashtbl.find slot_of name, 0)
        | Array n -> Some (name, Hashtbl.find slot_of name, n)
        | Mutex | Sem _ | Event _ -> None)
      info.kinds
  in

  (* Shared side tables. *)
  let ops : op_template Tbl.t = Tbl.create () in
  let op_stmts : int Tbl.t = Tbl.create () in (* kept in lockstep with [ops] *)
  let op_threads : int Tbl.t = Tbl.create () in
  let poss : pos Tbl.t = Tbl.create () in
  let names : string Tbl.t = Tbl.create () in
  let msgs : string Tbl.t = Tbl.create () in
  let pos_id p = Tbl.dedup poss p in
  let name_id n = Tbl.dedup names n in

  let compile_thread tidx (tname, body) =
    let local_slot = Hashtbl.create 8 in
    let local_names =
      List.sort compare
        (match List.assoc_opt tname info.Sema.thread_locals with
         | Some l -> l
         | None -> [])
    in
    List.iteri (fun i n -> Hashtbl.replace local_slot n i) local_names;
    let is_local n = Hashtbl.mem local_slot n in

    (* The statement's engine operation: the shared {!Stmt_op} rule (also
       used by the oracle's [op_of_stmt]), mapped to per-kind indices. *)
    let template_of : Stmt_op.t -> op_template = function
      | A_lock m -> T_lock (Hashtbl.find mutex_idx m)
      | A_try_lock m -> T_try_lock (Hashtbl.find mutex_idx m)
      | A_timed_lock m -> T_timed_lock (Hashtbl.find mutex_idx m)
      | A_unlock m -> T_unlock (Hashtbl.find mutex_idx m)
      | A_sem_wait s -> T_sem_wait (Hashtbl.find sem_idx s)
      | A_sem_timed_wait s -> T_sem_timed_wait (Hashtbl.find sem_idx s)
      | A_sem_post s -> T_sem_post (Hashtbl.find sem_idx s)
      | A_ev_wait e -> T_ev_wait (Hashtbl.find event_idx e)
      | A_ev_timed_wait e -> T_ev_timed_wait (Hashtbl.find event_idx e)
      | A_ev_set e -> T_ev_set (Hashtbl.find event_idx e)
      | A_ev_reset e -> T_ev_reset (Hashtbl.find event_idx e)
      | A_var_read v -> T_var_read (Hashtbl.find var_idx v)
      | A_var_write v -> T_var_write (Hashtbl.find var_idx v)
      | A_var_rmw v -> T_var_rmw (Hashtbl.find var_idx v)
      | A_choose n -> T_choose n
      | A_yield -> T_yield
      | A_sleep -> T_sleep
    in
    let stmt_template (s : stmt) : op_template option =
      Option.map template_of
        (Stmt_op.of_stmt info ~thread:tname ~is_local ~invisible s)
    in

    let buf = Buf.create () in
    (* Conservative (linear, no reset at join points) operand-stack bound. *)
    let depth = ref 0 and max_depth = ref 1 in
    let adj n =
      depth := !depth + n;
      if !depth > !max_depth then max_depth := !depth
    in
    let emit1 c =
      Buf.emit buf c
    in
    let emit c args =
      Buf.emit buf c;
      List.iter (Buf.emit buf) args
    in
    (* Emit a jump with a placeholder target; returns the patch site. *)
    let emit_jump c =
      Buf.emit buf c;
      let site = Buf.here buf in
      Buf.emit buf (-1);
      site
    in
    let land_here site = Buf.patch buf site (Buf.here buf) in

    let rec emit_expr e =
      match e with
      | Int n ->
        emit op_push [ n ];
        adj 1
      | Name (p, n) ->
        if is_local n then begin
          emit op_load_l [ Hashtbl.find local_slot n; name_id n; pos_id p ];
          adj 1
        end
        else begin
          emit op_load_g [ Hashtbl.find slot_of n ];
          adj 1
        end
      | Index (p, a, i) ->
        emit_expr i;
        emit op_load_gi
          [ Hashtbl.find slot_of a; Hashtbl.find size_of a; name_id a; pos_id p ]
      | Binop (And, a, b) ->
        (* a && b: short-circuit; the false arm yields 0, matching the AST
           interpreter (which returns b's raw value when a is truthy). *)
        emit_expr a;
        let jf = emit_jump op_jz in
        adj (-1);
        emit_expr b;
        let jend = emit_jump op_jmp in
        land_here jf;
        emit op_push [ 0 ];
        adj 1;
        land_here jend
      | Binop (Or, a, b) ->
        emit_expr a;
        let jt = emit_jump op_jnz in
        adj (-1);
        emit_expr b;
        let jend = emit_jump op_jmp in
        land_here jt;
        emit op_push [ 1 ];
        adj 1;
        land_here jend
      | Binop (op, a, b) ->
        emit_expr a;
        emit_expr b;
        adj (-1);
        emit1
          (match op with
           | Add -> op_add
           | Sub -> op_sub
           | Mul -> op_mul
           | Div -> op_div
           | Mod -> op_mod
           | Eq -> op_eq
           | Ne -> op_ne
           | Lt -> op_lt
           | Le -> op_le
           | Gt -> op_gt
           | Ge -> op_ge
           | And | Or -> assert false)
      | Unop (Not, a) ->
        emit_expr a;
        emit1 op_not
      | Unop (Neg, a) ->
        emit_expr a;
        emit1 op_neg
      | Try_lock _ | Timed_lock _ | Timed_wait _ | Sem_try _ | Choose _ ->
        emit1 op_prim;
        adj 1
    in

    (* [atomic] carries the enclosing atomic statement's position (fuel
       errors report the block, not the inner statement). *)
    let rec emit_stmt ~atomic (s : stmt) =
      let boundary () =
        match atomic with
        | Some apos -> emit op_afuel [ pos_id apos ]
        | None ->
          (match stmt_template s with
           | Some t ->
             let idx = Tbl.add ops t in
             let idx' = Tbl.add op_stmts s.id in
             let idx'' = Tbl.add op_threads tidx in
             assert (idx = idx' && idx = idx'');
             emit op_sched [ idx ]
           | None -> emit op_fuel [ pos_id s.pos ])
      in
      match s.kind with
      | Local (n, e) ->
        boundary ();
        emit_expr e;
        emit op_store_l [ Hashtbl.find local_slot n ];
        adj (-1)
      | Assign (Lname (_, n), e) ->
        boundary ();
        emit_expr e;
        if is_local n then emit op_store_l [ Hashtbl.find local_slot n ]
        else emit op_store_g [ Hashtbl.find slot_of n ];
        adj (-1)
      | Assign (Lindex (p, a, i), e) ->
        boundary ();
        emit_expr i;
        emit_expr e;
        emit op_store_gi
          [ Hashtbl.find slot_of a; Hashtbl.find size_of a; name_id a; pos_id p ];
        adj (-2)
      | If (c, then_, else_) ->
        boundary ();
        emit_expr c;
        let jelse = emit_jump op_jz in
        adj (-1);
        List.iter (emit_stmt ~atomic) then_;
        let jend = emit_jump op_jmp in
        land_here jelse;
        List.iter (emit_stmt ~atomic) else_;
        land_here jend
      | While (c, body) ->
        (* The loop re-test is an ordinary boundary: a fresh transition
           (or fuel tick) per iteration, like the AST machine keeping the
           While statement at the head of its frame. *)
        let top = Buf.here buf in
        boundary ();
        emit_expr c;
        let jend = emit_jump op_jz in
        adj (-1);
        List.iter (emit_stmt ~atomic) body;
        emit op_jmp [ top ];
        land_here jend
      | Lock _ | Unlock _ | Wait _ | Set_event _ | Reset_event _ | Sem_p _ | Sem_v _
      | Yield | Sleep | Skip ->
        (* State change applied by the engine operation itself. *)
        boundary ()
      | Assert (e, msg) ->
        boundary ();
        emit_expr e;
        emit op_assert [ Tbl.add msgs msg; pos_id s.pos ];
        adj (-1)
      | Atomic body ->
        boundary ();
        emit1 op_atomic_enter;
        List.iter (emit_stmt ~atomic:(Some s.pos)) body
    in
    List.iter (emit_stmt ~atomic:None) body;
    emit1 op_halt;
    { t_name = tname;
      t_code = Buf.contents buf;
      t_nlocals = List.length local_names;
      t_local_names = Array.of_list local_names;
      t_stack = !max_depth }
  in

  let threads = List.mapi compile_thread (Ast.threads prog) in
  { c_name = prog.prog_name;
    c_regs = Array.of_list (List.rev !regs);
    c_nslots = !nslots;
    c_init = init;
    c_globals = Array.of_list globals;
    c_ops = Tbl.contents ops;
    c_op_stmt = Tbl.contents op_stmts;
    c_op_thread = Tbl.contents op_threads;
    c_pos = Tbl.contents poss;
    c_names = Tbl.contents names;
    c_msgs = Tbl.contents msgs;
    c_threads = Array.of_list threads }
