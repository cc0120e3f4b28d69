(* Superinstruction fusion: the code the VM executes.

   One pass at load time rewrites a thread's canonical bytecode
   ({!Compile}) into superinstructions, each doing in one dispatch what a
   short straight-line sequence does in several. The forms were chosen
   from a count of executed sequences over every shipped .chess program
   (DESIGN.md, "Bytecode VM").

   Fused code keeps the canonical layout: a superinstruction starts at the
   pc of its sequence's first instruction and covers that sequence's cells,
   with its operands in the first ones. Every other instruction start,
   every jump target and every pc a thread parks on (SCHED and HALT, never
   fused) is therefore the canonical one, so capture, restore and state
   signatures need no translation.

   A sequence is fused only when no jump lands inside it, and DIV or MOD
   by a constant 0 stays canonical. Each form checks fuel and local
   initialisation where the canonical sequence does, with the same message
   and position. *)

module C = Compile

(* Fused opcodes follow the canonical ones (the last is [C.op_assert] = 29).
   Each comment gives the canonical sequence and the fused operands. *)

(* FUEL fpos; LOAD_L slot name pos  ->  fpos slot name pos *)
let op_fuel_load_l = 30

(* FUEL fpos; PUSH c  ->  fpos c *)
let op_fuel_push = 31

(* PUSH c; ADD  ->  c,  and  PUSH c; SUB  ->  -c *)
let op_add_c = 32

(* PUSH c; MUL | DIV | MOD  ->  c; never DIV or MOD by 0 *)
let op_mul_c = 33
let op_div_c = 34
let op_mod_c = 35

(* LOAD_L slot name pos; ADD | SUB | MUL | DIV | MOD  ->  slot name pos *)
let op_add_l = 36
let op_sub_l = 37
let op_mul_l = 38
let op_div_l = 39
let op_mod_l = 40

(* FUEL fpos; LOAD_L src name pos; PUSH c; ADD | SUB; STORE_L dst
   ->  fpos dst src name pos (c or -c) *)
let op_set_l_lc = 41

(* FUEL fpos; LOAD_L slot name pos; PUSH c; EQ | NE | LT | LE | GT | GE; JZ t
   ->  fpos slot name pos c t; falls through when [local cmp c] holds *)
let op_if_eq_lc = 42
let op_if_ne_lc = 43
let op_if_lt_lc = 44
let op_if_le_lc = 45
let op_if_gt_lc = 46
let op_if_ge_lc = 47

let width op =
  if op <= C.op_assert then C.width op
  else if op = op_fuel_load_l then 6
  else if op = op_fuel_push then 4
  else if op <= op_mod_c then 3
  else if op <= op_mod_l then 5
  else if op <= op_if_ge_lc then 11
  else invalid_arg "Fuse.width"

let code (canon : int array) : int array =
  let n = Array.length canon in
  let target = Bytes.make (n + 1) '\000' in
  let pc = ref 0 in
  while !pc < n do
    let op = canon.(!pc) in
    if op = C.op_jmp || op = C.op_jz || op = C.op_jnz then
      Bytes.set target canon.(!pc + 1) '\001';
    pc := !pc + C.width op
  done;
  (* No jump lands on [q]: the instruction there may sit inside a fused
     sequence. *)
  let free q = q < n && Bytes.get target q = '\000' in
  let is q op = free q && canon.(q) = op in
  let within q lo hi = free q && canon.(q) >= lo && canon.(q) <= hi in
  (* LOAD_L; PUSH c; <lo..hi>; [last] from [q]. *)
  let local_const q lo hi last =
    is q C.op_load_l && is (q + 4) C.op_push && within (q + 6) lo hi && is (q + 7) last
  in
  let code = Array.copy canon in
  let set p cells = Array.iteri (fun i v -> code.(p + i) <- v) cells in
  let signed add c = if add then c else -c in
  let pc = ref 0 in
  while !pc < n do
    let p = !pc in
    let op = canon.(p) in
    let q = p + 2 in
    (if op = C.op_fuel then begin
       let fpos = canon.(p + 1) in
       if local_const q C.op_eq C.op_ge C.op_jz then
         set p
           [| op_if_eq_lc + canon.(q + 6) - C.op_eq; fpos; canon.(q + 1); canon.(q + 2);
              canon.(q + 3); canon.(q + 5); canon.(q + 8) |]
       else if local_const q C.op_add C.op_sub C.op_store_l then
         set p
           [| op_set_l_lc; fpos; canon.(q + 8); canon.(q + 1); canon.(q + 2); canon.(q + 3);
              signed (canon.(q + 6) = C.op_add) canon.(q + 5) |]
       else if is q C.op_load_l then
         set p [| op_fuel_load_l; fpos; canon.(q + 1); canon.(q + 2); canon.(q + 3) |]
       else if is q C.op_push then set p [| op_fuel_push; fpos; canon.(q + 1) |]
     end
     else if op = C.op_load_l && within (p + 4) C.op_add C.op_mod then
       code.(p) <- op_add_l + canon.(p + 4) - C.op_add
     else if op = C.op_push && within q C.op_add C.op_mod then begin
       let c = canon.(p + 1) and o = canon.(q) in
       if o = C.op_add || o = C.op_sub then set p [| op_add_c; signed (o = C.op_add) c |]
       else if o = C.op_mul || c <> 0 then code.(p) <- op_mul_c + o - C.op_mul
     end);
    pc := p + width code.(p)
  done;
  code
