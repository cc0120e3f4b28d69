(** The fair demonic scheduler of Musuvathi & Qadeer (PLDI 2008), Algorithm 1.

    The scheduler maintains, per state, a priority relation [P] over threads
    and three window-tracking sets per thread:

    - [S t]: threads scheduled since the last yield of [t];
    - [E t]: threads continuously enabled since the last yield of [t];
    - [D t]: threads disabled by a transition of [t] since its last yield.

    An edge [(t, u) ∈ P] means [t] may be scheduled only when [u] is
    disabled. The relation starts empty, grows only when a thread yields
    (penalizing the yielding thread against threads it starved or disabled in
    the closing window — the set [H] of line 24), and edges into the thread
    just scheduled are removed (line 13). Theorem 1 shows every infinite
    execution that satisfies the good-samaritan property is fair; Theorem 3
    shows the schedulable set is empty only at real deadlocks, which rests on
    [P] remaining acyclic.

    [step] updates the scheduler {e in place} and returns it: the stateless
    search re-executes from the initial state on every backtrack, recomputing
    the scheduler along the replay, so the pre-step value is always dead on
    the hot path. Callers that must keep an old state alive (tests,
    snapshotting) take an explicit {!copy} first; [create], [add_thread] and
    [copy] still return fresh values that share no arrays with their input.

    The representation makes a transition that is not a (k-th) yield cost
    O(1), independent of the thread count. [P] is stored by sink with a
    running edge count, so line 13 is one store and [schedulable] returns
    [enabled] untouched while [P] is empty. [S] and [E] are kept as
    timestamps against a transition counter — each thread's last
    transition, the transition that opened each window, and the transition
    from which each thread has been continuously enabled — and are
    materialized only when read. [D] is stored, since a transition changes
    only the chosen thread's. A (k-th) yield materializes the yielding
    thread's [E] and [S] in O(n) and adds the edges of [H]; {!sets} costs
    O(n) too.

    The [k] parameter implements the paper's final remark in Section 3:
    process only every [k]-th yield of each thread, which extends soundness
    to programs whose states need executions with yield count up to [k-1]. *)

type t

val create : nthreads:int -> ?k:int -> unit -> t
(** Initial scheduler state for threads [0 .. nthreads-1]: [P] empty and each
    window initialized per the paper ([E(u) = {}], [D(u) = S(u) = Tid]) so
    that the first yield of any thread leaves [P] unchanged.
    @param k process every [k]-th yield; default 1.
    @raise Invalid_argument if [k < 1] or [nthreads] exceeds the bitset
    capacity ({!Fairmc_util.Bitset.max_capacity}[ + 1] threads). *)

val nthreads : t -> int

val copy : t -> t
(** A deep copy sharing no mutable arrays with the original: stepping one
    does not affect the other. *)

val add_thread : t -> t
(** Account for a dynamically spawned thread (CHESS supports programs that
    create threads mid-execution). The new thread's window is initialized
    exactly like at [create]; it does not appear in the windows of existing
    threads, which is sound because it cannot have been starved before
    existing. *)

val schedulable : t -> enabled:Fairmc_util.Bitset.t -> Fairmc_util.Bitset.t
(** Line 7: [T = ES \ pre(P, ES)] — the enabled threads not deprioritized
    below another enabled thread. By Theorem 3, the result is empty iff
    [enabled] is empty. [enabled] holds thread ids of [t] only. *)

type obs = {
  mutable edges_added : int;  (** edges inserted by yield penalties (line 24) *)
  mutable edges_removed : int;  (** edges dropped when their sink is scheduled (line 13) *)
  mutable penalties : int;  (** (k-th) yields that closed a window *)
}
(** Accumulator for priority-relation updates, filled by [step] when passed.
    Counting is exact; the observability layer passes one cell for the
    whole search and exports it into the metrics registry. *)

val obs_create : unit -> obs

val step :
  ?obs:obs ->
  t ->
  chosen:int ->
  yielded:bool ->
  es_before:Fairmc_util.Bitset.t ->
  es_after:Fairmc_util.Bitset.t ->
  t
(** Lines 12–29: update after [chosen] executed one transition. [yielded] is
    [yield(curr, chosen)] — whether that transition was a yield; [es_before]
    and [es_after] are the enabled sets of the states around the transition,
    holding thread ids of [t] only (call {!add_thread} for a thread the
    transition spawned first). Mutates [t] in place and returns it; take a
    {!copy} first if the pre-step state must survive. *)

val edge_count : t -> int
(** Current size of the priority relation [P]; O(1). *)

(** {1 Introspection (tests, theorems, diagnostics)} *)

val priority_pairs : t -> (int * int) list
(** Current edges [(t, u)] of [P], by [t] descending, then [u] ascending. *)

val sets : t -> tid:int -> Fairmc_util.Bitset.t * Fairmc_util.Bitset.t * Fairmc_util.Bitset.t
(** [(E t, D t, S t)] — window sets for [tid], materialized in O(n). *)

val is_acyclic : t -> bool
(** The loop invariant of Theorem 3. Always true; exposed for tests. *)
