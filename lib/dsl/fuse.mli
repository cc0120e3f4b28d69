(** Superinstruction fusion: the code the {!Vm} executes.

    [code] rewrites one thread's canonical bytecode ({!Compile}) at load
    time. A superinstruction replaces a short straight-line sequence:
    comparing a local with a constant and branching, adding a constant to
    a local, arithmetic with a constant or a local as right operand, and a
    silent statement's FUEL folded into its first instruction. It starts at
    the sequence's first pc and covers the sequence's cells, so every
    canonical instruction start outside a fused sequence, every jump
    target and every parked pc is unchanged.

    The compiler, the static layer, lint and the AST oracle see canonical
    bytecode only. See DESIGN.md, "Bytecode VM". *)

val code : int array -> int array
(** The executed form of a thread's canonical code: same length, same
    jump targets. A sequence is fused only when no jump lands inside it;
    DIV and MOD by a constant 0 stay canonical. *)

val width : int -> int
(** Cells covered by a canonical or fused instruction. *)

(** {2 Fused opcodes}

    Numbered after the canonical ones; see fuse.ml for each one's operand
    layout. *)

val op_fuel_load_l : int
val op_fuel_push : int
val op_add_c : int
val op_mul_c : int
val op_div_c : int
val op_mod_c : int
val op_add_l : int
val op_sub_l : int
val op_mul_l : int
val op_div_l : int
val op_mod_l : int
val op_set_l_lc : int
val op_if_eq_lc : int
val op_if_ne_lc : int
val op_if_lt_lc : int
val op_if_le_lc : int
val op_if_gt_lc : int
val op_if_ge_lc : int
