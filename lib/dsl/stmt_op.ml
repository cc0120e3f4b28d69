(* The statement -> engine-operation rule, shared by the VM and its AST
   oracle (test/oracle).

   One ChessLang statement is one transition; this module decides which
   engine operation (if any) that transition performs, in terms of
   declaration *names*. [Compile] maps the result to per-kind indices
   ([op_template]), the oracle to runtime objects ([Op.t]) — keeping the
   rule in one place is what makes the backends observably equivalent by
   construction.

   The rule: an effectful primitive (trylock/timedlock/timedwait/semtry/
   choose; sema allows at most one per statement) wins; otherwise the
   first global read becomes a [Var_read]; a write to a global becomes a
   [Var_write] (reads fold into it); an atomic block is a [Var_rmw] of
   the first global it touches; statements over locals only are silent.

   [invisible] is the static-POR hook: globals proven thread-local are
   dropped from the derivation, so statements touching only them degrade
   to silent — their SCHED suspension disappears. A write to an invisible
   global falls back to the derivation of its right-hand side, keeping
   any primitive or visible read it contains. *)

open Ast

type t =
  | A_lock of string
  | A_try_lock of string
  | A_timed_lock of string
  | A_unlock of string
  | A_sem_wait of string
  | A_sem_timed_wait of string
  | A_sem_post of string
  | A_ev_wait of string
  | A_ev_timed_wait of string
  | A_ev_set of string
  | A_ev_reset of string
  | A_var_read of string
  | A_var_write of string
  | A_var_rmw of string
  | A_choose of int
  | A_yield
  | A_sleep

let no_invisible = fun (_ : string) -> false

let of_stmt (info : Sema.info) ~thread ~is_local ?(invisible = no_invisible)
    (s : stmt) : t option =
  let prim_op e =
    match Sema.effectful e with
    | Some (Try_lock (_, m)) -> Some (A_try_lock m)
    | Some (Timed_lock (_, m)) -> Some (A_timed_lock m)
    | Some (Timed_wait (_, ev)) -> Some (A_ev_timed_wait ev)
    | Some (Sem_try (_, sm)) -> Some (A_sem_timed_wait sm)
    | Some (Choose (_, n)) -> Some (A_choose n)
    | Some _ | None -> None
  in
  let visible_reads exprs =
    List.filter
      (fun g -> not (invisible g))
      (List.concat_map (fun e -> Sema.globals_read info ~thread e) exprs)
  in
  let read_op exprs =
    match visible_reads exprs with [] -> None | g :: _ -> Some (A_var_read g)
  in
  let expr_op exprs =
    match List.find_map prim_op exprs with
    | Some op -> Some op
    | None -> read_op exprs
  in
  match s.kind with
  | Local (_, e) | Assert (e, _) -> expr_op [ e ]
  | Assign (Lname (_, n), e) when not (is_local n) ->
    (* Write to a global: one write transition (reads fold into it). *)
    if invisible n then expr_op [ e ]
    else (match prim_op e with Some op -> Some op | None -> Some (A_var_write n))
  | Assign (Lname _, e) -> expr_op [ e ]
  | Assign (Lindex (_, a, i), e) ->
    if invisible a then expr_op [ e; i ]
    else
      (match expr_op [ e; i ] with
       | Some (A_var_read _) | None -> Some (A_var_write a)
       | Some op -> Some op)
  | If (c, _, _) | While (c, _) -> expr_op [ c ]
  | Lock m -> Some (A_lock m)
  | Unlock m -> Some (A_unlock m)
  | Wait ev -> Some (A_ev_wait ev)
  | Set_event ev -> Some (A_ev_set ev)
  | Reset_event ev -> Some (A_ev_reset ev)
  | Sem_p sm -> Some (A_sem_wait sm)
  | Sem_v sm -> Some (A_sem_post sm)
  | Yield -> Some A_yield
  | Sleep -> Some A_sleep
  | Skip -> None
  | Atomic b ->
    (* The whole block is one transition, presented to the scheduler as an
       interlocked operation on the first (visible) global it touches. *)
    let rec first_global bl =
      List.find_map
        (fun (s : stmt) ->
          match s.kind with
          | Local (_, e) | Assert (e, _) -> first_of_exprs [ e ]
          | Assign (Lname (_, n), e) ->
            if is_local n || invisible n then first_of_exprs [ e ] else Some n
          | Assign (Lindex (_, a, i), e) ->
            if invisible a then first_of_exprs [ e; i ] else Some a
          | If (c, t, f) ->
            (match first_of_exprs [ c ] with
             | Some g -> Some g
             | None ->
               (match first_global t with Some g -> Some g | None -> first_global f))
          | While (c, b) ->
            (match first_of_exprs [ c ] with Some g -> Some g | None -> first_global b)
          | Skip -> None
          | Atomic b -> first_global b
          | Lock _ | Unlock _ | Wait _ | Set_event _ | Reset_event _ | Sem_p _
          | Sem_v _ | Yield | Sleep -> None)
        bl
    and first_of_exprs exprs =
      match visible_reads exprs with [] -> None | g :: _ -> Some g
    in
    (match first_global b with Some g -> Some (A_var_rmw g) | None -> None)

(* ------------------------------------------------------------------ *)
(* Access footprints, for the static-analysis layer. Transition
   granularity: If/While contribute their condition only (the branch
   bodies are later transitions); Atomic contributes its whole block. *)

type footprint = {
  fp_reads : string list; (* globals (vars/arrays) the transition may read *)
  fp_writes : string list; (* globals it may write *)
  fp_syncs : string list; (* sync objects it touches (incl. primitives) *)
}

let empty_footprint = { fp_reads = []; fp_writes = []; fp_syncs = [] }

let merge_fp a b =
  { fp_reads = a.fp_reads @ b.fp_reads;
    fp_writes = a.fp_writes @ b.fp_writes;
    fp_syncs = a.fp_syncs @ b.fp_syncs }

let prim_syncs exprs =
  List.concat_map
    (fun e ->
      List.filter_map
        (function
          | Try_lock (_, m) | Timed_lock (_, m) -> Some m
          | Timed_wait (_, ev) -> Some ev
          | Sem_try (_, sm) -> Some sm
          | Choose _ -> None
          | _ -> None)
        (Sema.effectful_list e))
    exprs

let footprint (info : Sema.info) ~thread (s : stmt) : footprint =
  let reads exprs =
    List.concat_map (fun e -> Sema.globals_read info ~thread e) exprs
  in
  let of_exprs exprs =
    { fp_reads = reads exprs; fp_writes = []; fp_syncs = prim_syncs exprs }
  in
  let is_global n =
    List.mem_assoc n info.Sema.kinds
    && not
         (match List.assoc_opt thread info.Sema.thread_locals with
          | Some locals -> List.mem n locals
          | None -> false)
  in
  let rec of_stmt (s : stmt) =
    match s.kind with
    | Local (_, e) | Assert (e, _) -> of_exprs [ e ]
    | Assign (Lname (_, n), e) ->
      let fp = of_exprs [ e ] in
      if is_global n then { fp with fp_writes = n :: fp.fp_writes } else fp
    | Assign (Lindex (_, a, i), e) ->
      let fp = of_exprs [ e; i ] in
      { fp with fp_writes = a :: fp.fp_writes }
    | If (c, _, _) | While (c, _) -> of_exprs [ c ]
    | Lock m | Unlock m -> { empty_footprint with fp_syncs = [ m ] }
    | Wait ev | Set_event ev | Reset_event ev -> { empty_footprint with fp_syncs = [ ev ] }
    | Sem_p sm | Sem_v sm -> { empty_footprint with fp_syncs = [ sm ] }
    | Yield | Sleep | Skip -> empty_footprint
    | Atomic b ->
      (* The whole block is one transition: union every inner statement's
         footprint, branches included (sema bans sync ops inside). *)
      let rec of_block b =
        List.fold_left
          (fun acc (s : stmt) ->
            let inner =
              match s.kind with
              | If (_, t, f) -> merge_fp (of_stmt s) (merge_fp (of_block t) (of_block f))
              | While (_, body) -> merge_fp (of_stmt s) (of_block body)
              | Atomic body -> of_block body
              | _ -> of_stmt s
            in
            merge_fp acc inner)
          empty_footprint b
      in
      of_block b
  in
  of_stmt s
