(* Bytecode VM for ChessLang: its execution backend.

   Stateless model checking's hot path is re-execution — every path runs
   the program forward from a restored or initial state — so per-step
   interpreter cost multiplies through the whole search. This VM executes
   the flat bytecode produced by [Compile], with short sequences fused into
   superinstructions at load time ([Fuse]): one [while]/[match] dispatch
   over an [int array], and flat per-thread state (a pc, an [int array] of
   local slots and an [int array] operand stack). No strings, no hash
   tables, no allocation on the per-instruction path. Fused code keeps the
   canonical pcs of every jump target and parking point, so captures and
   state signatures are those of the canonical code. Its threads are
   machine threads ({!Program.machine}), resumed by a call of [run_thread].

   The observable contract with the AST-walking oracle (test/oracle) — same
   [Op.t] stream per schedule, same fuel accounting, same runtime-error
   messages and verdicts — is enforced by the differential suite in
   test/test_dsl.ml. *)

open Fairmc_core
module Fnv = Fairmc_util.Fnv
module C = Compile

(* Parked threads sit on a SCHED or HALT instruction with an empty operand
   stack (the compiler emits SCHED only at statement boundaries, never
   inside an atomic block), so [cur_pc] + [locals] are the whole
   per-thread state: [boot]'s capture copies them, and a thread runs on
   from the cell after its SCHED. A thread that has not run yet sits at
   pc -2, so it runs from 0. *)
type tstate = {
  locals : int array;
  inited : bool array;
  stack : int array;  (* empty at a park *)
  mutable cur_pc : int;
}

(* A runtime error of the dispatch loop, as data: raising it makes no call,
   so the loop's registers need not be saved around one, and [run_thread]
   renders it. Positions, names and messages index the program's tables. *)
type fault =
  | Out_of_fuel of int  (* position *)
  | Uninitialized of int * int  (* name, position *)
  | Out_of_bounds of int * int * int * int  (* index, name, size, position *)
  | Zero_divisor of string  (* "division" or "modulo" *)
  | Atomic_too_long of int  (* position *)
  | Assert_failed of int * int  (* message, position *)

exception Vm_error of fault

let silent_fuel = 100_000

(* Expression faults without a source position of their own. *)
let no_pos = { Ast.line = 0; col = 0 }

let[@inline] fault f = raise (Vm_error f)

(* Instruction operands and stack offsets are compiler-validated, so the
   dispatch loop uses unchecked accesses. These helpers are closed, so they
   inline into the loop: a closure local to [exec] would be allocated on
   every run of a thread. *)
let[@inline] arg (code : int array) i = Array.unsafe_get code i

(* The init-checked read of the local whose slot, name and position are
   the operands at [q]. *)
let[@inline] local (code : int array) (ts : tstate) q =
  let slot = arg code q in
  if not (Array.unsafe_get ts.inited slot) then
    fault (Uninitialized (arg code (q + 1), arg code (q + 2)));
  Array.unsafe_get ts.locals slot

(* Run [ts] from the cell after its SCHED, where a PRIM pushes [prim] (the
   result of the SCHED's operation), to its next SCHED, whose operation it
   returns from [parks], or to HALT ([None]). [code] is the thread's fused
   code ({!Fuse}). A runtime error escapes as [Vm_error]: a handler here
   would slow the dispatch loop, so [run_thread] catches it. *)
let exec (parks : Op.t option array) (slots : int array) (code : int array) (ts : tstate) prim =
  let stack = ts.stack and locals = ts.locals and inited = ts.inited in
  let pc = ref (ts.cur_pc + 2) in
  let sp = ref 0 in
  let fuel = ref silent_fuel in
  let afuel = ref 0 in
  let parked = ref None in
  let running = ref true in
  while !running do
    let p = !pc in
    match arg code p with
    | 0 (* HALT *) ->
      ts.cur_pc <- p;
      running := false
    | 1 (* PUSH c *) ->
      Array.unsafe_set stack !sp (arg code (p + 1));
      incr sp;
      pc := p + 2
    | 2 (* LOAD_G slot *) ->
      Array.unsafe_set stack !sp (Array.unsafe_get slots (arg code (p + 1)));
      incr sp;
      pc := p + 2
    | 3 (* STORE_G slot *) ->
      decr sp;
      Array.unsafe_set slots (arg code (p + 1)) (Array.unsafe_get stack !sp);
      pc := p + 2
    | 4 (* LOAD_L slot name pos *) ->
      Array.unsafe_set stack !sp (local code ts (p + 1));
      incr sp;
      pc := p + 4
    | 5 (* STORE_L slot *) ->
      decr sp;
      let slot = arg code (p + 1) in
      Array.unsafe_set locals slot (Array.unsafe_get stack !sp);
      Array.unsafe_set inited slot true;
      pc := p + 2
    | 6 (* LOAD_GI base size name pos *) ->
      let iv = Array.unsafe_get stack (!sp - 1) in
      let size = arg code (p + 2) in
      if iv < 0 || iv >= size then
        fault (Out_of_bounds (iv, arg code (p + 3), size, arg code (p + 4)));
      Array.unsafe_set stack (!sp - 1) (Array.unsafe_get slots (arg code (p + 1) + iv));
      pc := p + 5
    | 7 (* STORE_GI base size name pos *) ->
      let v = Array.unsafe_get stack (!sp - 1) in
      let iv = Array.unsafe_get stack (!sp - 2) in
      let size = arg code (p + 2) in
      if iv < 0 || iv >= size then
        fault (Out_of_bounds (iv, arg code (p + 3), size, arg code (p + 4)));
      Array.unsafe_set slots (arg code (p + 1) + iv) v;
      sp := !sp - 2;
      pc := p + 5
    | 8 (* ADD *) ->
      let s = !sp - 2 in
      Array.unsafe_set stack s
        (Array.unsafe_get stack s + Array.unsafe_get stack (s + 1));
      sp := s + 1;
      pc := p + 1
    | 9 (* SUB *) ->
      let s = !sp - 2 in
      Array.unsafe_set stack s
        (Array.unsafe_get stack s - Array.unsafe_get stack (s + 1));
      sp := s + 1;
      pc := p + 1
    | 10 (* MUL *) ->
      let s = !sp - 2 in
      Array.unsafe_set stack s
        (Array.unsafe_get stack s * Array.unsafe_get stack (s + 1));
      sp := s + 1;
      pc := p + 1
    | 11 (* DIV *) ->
      let s = !sp - 2 in
      let vb = Array.unsafe_get stack (s + 1) in
      if vb = 0 then fault (Zero_divisor "division");
      Array.unsafe_set stack s (Array.unsafe_get stack s / vb);
      sp := s + 1;
      pc := p + 1
    | 12 (* MOD *) ->
      let s = !sp - 2 in
      let vb = Array.unsafe_get stack (s + 1) in
      if vb = 0 then fault (Zero_divisor "modulo");
      Array.unsafe_set stack s (Array.unsafe_get stack s mod vb);
      sp := s + 1;
      pc := p + 1
    | 13 (* EQ *) ->
      let s = !sp - 2 in
      Array.unsafe_set stack s
        (Bool.to_int (Array.unsafe_get stack s = Array.unsafe_get stack (s + 1)));
      sp := s + 1;
      pc := p + 1
    | 14 (* NE *) ->
      let s = !sp - 2 in
      Array.unsafe_set stack s
        (Bool.to_int (Array.unsafe_get stack s <> Array.unsafe_get stack (s + 1)));
      sp := s + 1;
      pc := p + 1
    | 15 (* LT *) ->
      let s = !sp - 2 in
      Array.unsafe_set stack s
        (Bool.to_int (Array.unsafe_get stack s < Array.unsafe_get stack (s + 1)));
      sp := s + 1;
      pc := p + 1
    | 16 (* LE *) ->
      let s = !sp - 2 in
      Array.unsafe_set stack s
        (Bool.to_int (Array.unsafe_get stack s <= Array.unsafe_get stack (s + 1)));
      sp := s + 1;
      pc := p + 1
    | 17 (* GT *) ->
      let s = !sp - 2 in
      Array.unsafe_set stack s
        (Bool.to_int (Array.unsafe_get stack s > Array.unsafe_get stack (s + 1)));
      sp := s + 1;
      pc := p + 1
    | 18 (* GE *) ->
      let s = !sp - 2 in
      Array.unsafe_set stack s
        (Bool.to_int (Array.unsafe_get stack s >= Array.unsafe_get stack (s + 1)));
      sp := s + 1;
      pc := p + 1
    | 19 (* NOT *) ->
      let s = !sp - 1 in
      Array.unsafe_set stack s (Bool.to_int (Array.unsafe_get stack s = 0));
      pc := p + 1
    | 20 (* NEG *) ->
      let s = !sp - 1 in
      Array.unsafe_set stack s (-Array.unsafe_get stack s);
      pc := p + 1
    | 21 (* JMP t *) -> pc := arg code (p + 1)
    | 22 (* JZ t *) ->
      decr sp;
      pc := if Array.unsafe_get stack !sp = 0 then arg code (p + 1) else p + 2
    | 23 (* JNZ t *) ->
      decr sp;
      pc := if Array.unsafe_get stack !sp <> 0 then arg code (p + 1) else p + 2
    | 24 (* SCHED opidx *) ->
      ts.cur_pc <- p;
      parked := Array.unsafe_get parks (arg code (p + 1));
      running := false
    | 25 (* PRIM *) ->
      Array.unsafe_set stack !sp prim;
      incr sp;
      pc := p + 1
    | 26 (* FUEL pos *) ->
      decr fuel;
      if !fuel <= 0 then fault (Out_of_fuel (arg code (p + 1)));
      pc := p + 2
    | 27 (* AFUEL pos *) ->
      decr afuel;
      if !afuel <= 0 then fault (Atomic_too_long (arg code (p + 1)));
      pc := p + 2
    | 28 (* ATOMIC_ENTER *) ->
      afuel := silent_fuel;
      pc := p + 1
    | 29 (* ASSERT msg pos *) ->
      decr sp;
      if Array.unsafe_get stack !sp = 0 then
        fault (Assert_failed (arg code (p + 1), arg code (p + 2)));
      pc := p + 3
    (* Superinstructions ({!Fuse}); [pc] moves past the cells of the
       canonical sequence. *)
    | 30 (* FUEL_LOAD_L fpos slot name pos *) ->
      decr fuel;
      if !fuel <= 0 then fault (Out_of_fuel (arg code (p + 1)));
      Array.unsafe_set stack !sp (local code ts (p + 2));
      incr sp;
      pc := p + 6
    | 31 (* FUEL_PUSH fpos c *) ->
      decr fuel;
      if !fuel <= 0 then fault (Out_of_fuel (arg code (p + 1)));
      Array.unsafe_set stack !sp (arg code (p + 2));
      incr sp;
      pc := p + 4
    | 32 (* ADD_C c *) ->
      let s = !sp - 1 in
      Array.unsafe_set stack s (Array.unsafe_get stack s + arg code (p + 1));
      pc := p + 3
    | 33 (* MUL_C c *) ->
      let s = !sp - 1 in
      Array.unsafe_set stack s (Array.unsafe_get stack s * arg code (p + 1));
      pc := p + 3
    | 34 (* DIV_C c, c <> 0 *) ->
      let s = !sp - 1 in
      Array.unsafe_set stack s (Array.unsafe_get stack s / arg code (p + 1));
      pc := p + 3
    | 35 (* MOD_C c, c <> 0 *) ->
      let s = !sp - 1 in
      Array.unsafe_set stack s (Array.unsafe_get stack s mod arg code (p + 1));
      pc := p + 3
    | 36 (* ADD_L slot name pos *) ->
      let s = !sp - 1 in
      Array.unsafe_set stack s (Array.unsafe_get stack s + local code ts (p + 1));
      pc := p + 5
    | 37 (* SUB_L slot name pos *) ->
      let s = !sp - 1 in
      Array.unsafe_set stack s (Array.unsafe_get stack s - local code ts (p + 1));
      pc := p + 5
    | 38 (* MUL_L slot name pos *) ->
      let s = !sp - 1 in
      Array.unsafe_set stack s (Array.unsafe_get stack s * local code ts (p + 1));
      pc := p + 5
    | 39 (* DIV_L slot name pos *) ->
      let s = !sp - 1 in
      let vb = local code ts (p + 1) in
      if vb = 0 then fault (Zero_divisor "division");
      Array.unsafe_set stack s (Array.unsafe_get stack s / vb);
      pc := p + 5
    | 40 (* MOD_L slot name pos *) ->
      let s = !sp - 1 in
      let vb = local code ts (p + 1) in
      if vb = 0 then fault (Zero_divisor "modulo");
      Array.unsafe_set stack s (Array.unsafe_get stack s mod vb);
      pc := p + 5
    | 41 (* SET_L_LC fpos dst src name pos c *) ->
      decr fuel;
      if !fuel <= 0 then fault (Out_of_fuel (arg code (p + 1)));
      let v = local code ts (p + 3) + arg code (p + 6) in
      let dst = arg code (p + 2) in
      Array.unsafe_set locals dst v;
      Array.unsafe_set inited dst true;
      pc := p + 11
    | 42 (* IF_EQ_LC fpos slot name pos c t *) ->
      decr fuel;
      if !fuel <= 0 then fault (Out_of_fuel (arg code (p + 1)));
      pc := if local code ts (p + 2) = arg code (p + 5) then p + 11 else arg code (p + 6)
    | 43 (* IF_NE_LC fpos slot name pos c t *) ->
      decr fuel;
      if !fuel <= 0 then fault (Out_of_fuel (arg code (p + 1)));
      pc := if local code ts (p + 2) <> arg code (p + 5) then p + 11 else arg code (p + 6)
    | 44 (* IF_LT_LC fpos slot name pos c t *) ->
      decr fuel;
      if !fuel <= 0 then fault (Out_of_fuel (arg code (p + 1)));
      pc := if local code ts (p + 2) < arg code (p + 5) then p + 11 else arg code (p + 6)
    | 45 (* IF_LE_LC fpos slot name pos c t *) ->
      decr fuel;
      if !fuel <= 0 then fault (Out_of_fuel (arg code (p + 1)));
      pc := if local code ts (p + 2) <= arg code (p + 5) then p + 11 else arg code (p + 6)
    | 46 (* IF_GT_LC fpos slot name pos c t *) ->
      decr fuel;
      if !fuel <= 0 then fault (Out_of_fuel (arg code (p + 1)));
      pc := if local code ts (p + 2) > arg code (p + 5) then p + 11 else arg code (p + 6)
    | 47 (* IF_GE_LC fpos slot name pos c t *) ->
      decr fuel;
      if !fuel <= 0 then fault (Out_of_fuel (arg code (p + 1)));
      pc := if local code ts (p + 2) >= arg code (p + 5) then p + 11 else arg code (p + 6)
    | _ -> assert false
  done;
  !parked

(* The message and source position of fault [f] in thread [tc]. *)
let describe (c : C.t) (tc : C.thread_code) f =
  let at = c.C.c_pos and name = c.C.c_names and spf = Printf.sprintf in
  match f with
  | Out_of_fuel pos ->
    let t = tc.C.t_name in
    (spf "thread %s ran %d silent steps without a scheduling point" t silent_fuel, at.(pos))
  | Uninitialized (n, pos) -> (spf "local %s read before initialization" name.(n), at.(pos))
  | Out_of_bounds (iv, n, size, pos) ->
    (spf "index %d out of bounds for %s[%d]" iv name.(n) size, at.(pos))
  | Zero_divisor what -> (what ^ " by zero", no_pos)
  | Atomic_too_long pos -> (spf "atomic block exceeded %d steps" silent_fuel, at.(pos))
  | Assert_failed (msg, pos) -> (c.C.c_msgs.(msg), at.(pos))

(* Thread [tid]'s next run, the machine's [run]. *)
let run_thread c parks slots (codes : int array array) (tstates : tstate array) tid prim =
  try exec parks slots codes.(tid) tstates.(tid) prim
  with Vm_error f ->
    let tc = c.C.c_threads.(tid) in
    let msg, pos = describe c tc f in
    Sync.fail (Format.asprintf "%s (thread %s, %a)" msg tc.C.t_name Ast.pp_pos pos)

(* Boot: register scheduling objects in declaration order — the same order
   (and constructors) as the oracle's [build_objects], so [Op.obj] identities,
   and hence transition streams, are identical across backends. *)
let boot (c : C.t) (codes : int array array) () =
  let slots = Array.copy c.C.c_init in
  let vars = ref [] and mutexes = ref [] and sems = ref [] and events = ref [] in
  Array.iter
    (function
      | C.Reg_var name -> vars := Sync.Raw.var ~name () :: !vars
      | C.Reg_mutex name -> mutexes := Sync.Mutex.create ~name () :: !mutexes
      | C.Reg_sem (name, init) -> sems := Sync.Semaphore.create ~name init :: !sems
      | C.Reg_event (name, auto) -> events := Sync.Event.create ~name ~auto () :: !events)
    c.C.c_regs;
  let vars = Array.of_list (List.rev !vars) in
  let mutexes = Array.of_list (List.rev !mutexes) in
  let sems = Array.of_list (List.rev !sems) in
  let events = Array.of_list (List.rev !events) in
  (* One [Some op] per operation, returned at each park on it. *)
  let parks =
    Array.map
      (fun top ->
        Some
          (match top with
           | C.T_lock m -> Op.Lock (Sync.Mutex.id mutexes.(m))
           | C.T_try_lock m -> Op.Try_lock (Sync.Mutex.id mutexes.(m))
           | C.T_timed_lock m -> Op.Timed_lock (Sync.Mutex.id mutexes.(m))
           | C.T_unlock m -> Op.Unlock (Sync.Mutex.id mutexes.(m))
           | C.T_sem_wait s -> Op.Sem_wait (Sync.Semaphore.id sems.(s))
           | C.T_sem_timed_wait s -> Op.Sem_timed_wait (Sync.Semaphore.id sems.(s))
           | C.T_sem_post s -> Op.Sem_post (Sync.Semaphore.id sems.(s))
           | C.T_ev_wait e -> Op.Ev_wait (Sync.Event.id events.(e))
           | C.T_ev_timed_wait e -> Op.Ev_timed_wait (Sync.Event.id events.(e))
           | C.T_ev_set e -> Op.Ev_set (Sync.Event.id events.(e))
           | C.T_ev_reset e -> Op.Ev_reset (Sync.Event.id events.(e))
           | C.T_var_read v -> Op.Var_read vars.(v)
           | C.T_var_write v -> Op.Var_write vars.(v)
           | C.T_var_rmw v -> Op.Var_rmw vars.(v)
           | C.T_choose n -> Op.Choose n
           | C.T_yield -> Op.Yield
           | C.T_sleep -> Op.Sleep))
      c.C.c_ops
  in
  let tstates =
    Array.map
      (fun (tc : C.thread_code) ->
        { locals = Array.make (max tc.C.t_nlocals 1) 0;
          inited = Array.make (max tc.C.t_nlocals 1) false;
          stack = Array.make (max tc.C.t_stack 1) 0;
          cur_pc = -2 })
      c.C.c_threads
  in
  let snapshot () =
    let h = ref (Fnv.ints Fnv.init slots) in
    Array.iteri
      (fun i (ts : tstate) ->
        h := Fnv.int !h ts.cur_pc;
        let tc = c.C.c_threads.(i) in
        for j = 0 to tc.C.t_nlocals - 1 do
          h := Fnv.int !h (if ts.inited.(j) then ts.locals.(j) else min_int)
        done)
      tstates;
    !h
  in
  (* The operand stack is empty at a park: a copy shares it. *)
  let capture () =
    let g = Array.copy slots in
    let saved =
      Array.map
        (fun ts -> { ts with locals = Array.copy ts.locals; inited = Array.copy ts.inited })
        tstates
    in
    fun () ->
      Array.blit g 0 slots 0 (Array.length g);
      for i = 0 to Array.length saved - 1 do
        let sv = saved.(i) and ts = tstates.(i) in
        Array.blit sv.locals 0 ts.locals 0 (Array.length sv.locals);
        Array.blit sv.inited 0 ts.inited 0 (Array.length sv.inited);
        ts.cur_pc <- sv.cur_pc
      done
  in
  let run = run_thread c parks slots codes tstates in
  let machine = Some { Program.nthreads = Array.length tstates; run } in
  ( (slots, tstates),
    { Program.threads = []; machine; snapshot = Some snapshot; capture = Some capture } )

(* Fusion runs once per program, not per boot. *)
let fused (c : C.t) = Array.map (fun tc -> Fuse.code tc.C.t_code) c.C.c_threads

let program_of (c : C.t) =
  let codes = fused c in
  Program.make ~name:c.C.c_name (fun () -> snd (boot c codes ()))

let compile ?invisible (prog : Ast.program) = program_of (Compile.compile ?invisible prog)

(* [compile_inspect] additionally returns a dump of the most recent boot's
   store — globals (array cells as "a[i]") then initialized locals
   ("thread.name") — for differential final-state comparison in tests. *)
let compile_inspect ?invisible (prog : Ast.program) =
  let c = Compile.compile ?invisible prog in
  let codes = fused c in
  let last = ref None in
  let p =
    Program.make ~name:c.C.c_name (fun () ->
        let st, booted = boot c codes () in
        last := Some st;
        booted)
  in
  let dump () =
    match !last with
    | None -> []
    | Some (slots, tstates) ->
      let globals =
        Array.to_list c.C.c_globals
        |> List.concat_map (fun (name, base, size) ->
               if size = 0 then [ (name, slots.(base)) ]
               else
                 List.init size (fun i ->
                     (Printf.sprintf "%s[%d]" name i, slots.(base + i))))
      in
      let locals =
        Array.to_list
          (Array.mapi
             (fun i (ts : tstate) ->
               let tc = c.C.c_threads.(i) in
               List.concat
                 (List.init tc.C.t_nlocals (fun j ->
                      if ts.inited.(j) then
                        [ (tc.C.t_name ^ "." ^ tc.C.t_local_names.(j), ts.locals.(j)) ]
                      else [])))
             tstates)
        |> List.concat
      in
      globals @ locals
  in
  (p, dump)

(* The dispatch match above uses literal opcodes; pin them to the
   compiler's and the fusion pass's constants so a renumbering cannot
   silently skew dispatch. *)
let () =
  assert (
    C.op_halt = 0 && C.op_push = 1 && C.op_load_g = 2 && C.op_store_g = 3
    && C.op_load_l = 4 && C.op_store_l = 5 && C.op_load_gi = 6 && C.op_store_gi = 7
    && C.op_add = 8 && C.op_sub = 9 && C.op_mul = 10 && C.op_div = 11 && C.op_mod = 12
    && C.op_eq = 13 && C.op_ne = 14 && C.op_lt = 15 && C.op_le = 16 && C.op_gt = 17
    && C.op_ge = 18 && C.op_not = 19 && C.op_neg = 20 && C.op_jmp = 21 && C.op_jz = 22
    && C.op_jnz = 23 && C.op_sched = 24 && C.op_prim = 25 && C.op_fuel = 26
    && C.op_afuel = 27 && C.op_atomic_enter = 28 && C.op_assert = 29
    && Fuse.op_fuel_load_l = 30 && Fuse.op_fuel_push = 31 && Fuse.op_add_c = 32
    && Fuse.op_mul_c = 33 && Fuse.op_div_c = 34 && Fuse.op_mod_c = 35 && Fuse.op_add_l = 36
    && Fuse.op_sub_l = 37 && Fuse.op_mul_l = 38 && Fuse.op_div_l = 39 && Fuse.op_mod_l = 40
    && Fuse.op_set_l_lc = 41 && Fuse.op_if_eq_lc = 42 && Fuse.op_if_ne_lc = 43
    && Fuse.op_if_lt_lc = 44 && Fuse.op_if_le_lc = 45 && Fuse.op_if_gt_lc = 46
    && Fuse.op_if_ge_lc = 47)
