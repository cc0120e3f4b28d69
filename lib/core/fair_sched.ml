module B = Fairmc_util.Bitset

(* Read literally, Algorithm 1 rewrites every thread's window sets and
   every row of P on each transition. Here a non-yield transition is O(1):

   - P is stored by sink, [into.(y) = { x | (x,y) ∈ P }], with a running
     edge count, so line 13 is one store and [schedulable] has nothing to
     do while P is empty.
   - S and E are timestamps against the transition counter [clock]:
     [last_run.(x)] is x's last transition, [en_since.(x)] the first
     transition of x's current run inside [es_after] ([es_last] is the
     last [es_after]), and [opened.(u)] the transition that opened u's
     window, -1 for the initial one. Then
       S(u) = sbase(u) ∪ { x | last_run x > opened u }
       E(u) = { x ∈ es_last | en_since x ≤ opened u }
     where sbase(u) is Tid at u's creation for the initial window and ∅
     after it.
   - D is stored as is: a transition changes only the chosen thread's.

   Every array has one slot per thread: the enabled sets the callers pass
   hold thread ids only, so [into] and [en_since] need no more. *)
type t = {
  n : int;
  n0 : int;  (* threads at [create]: later threads are added one by one *)
  k : int;
  mutable clock : int;
  mutable es_last : B.t;
  mutable edges : int;
  into : B.t array;
  en_since : int array;
  last_run : int array;
  opened : int array;
  d : B.t array;
  yc : int array;  (* yields of t since its window opened (k-parameterization) *)
}

let create ~nthreads ?(k = 1) () =
  if nthreads < 0 || nthreads > B.max_capacity + 1 then invalid_arg "Fair_sched.create";
  if k < 1 then invalid_arg "Fair_sched.create: k must be >= 1";
  { n = nthreads; n0 = nthreads; k; clock = 0; es_last = B.empty; edges = 0;
    into = Array.make nthreads B.empty;
    en_since = Array.make nthreads 0;
    last_run = Array.make nthreads (-1);
    opened = Array.make nthreads (-1);
    d = Array.make nthreads (B.full nthreads);
    yc = Array.make nthreads 0 }

let nthreads t = t.n

let copy t =
  { t with
    into = Array.copy t.into; en_since = Array.copy t.en_since;
    last_run = Array.copy t.last_run; opened = Array.copy t.opened;
    d = Array.copy t.d; yc = Array.copy t.yc }

(* The new thread's window is the initial one, with D = Tid. *)
let add_thread t =
  let n = t.n + 1 in
  if n > B.max_capacity + 1 then invalid_arg "Fair_sched.add_thread: too many threads";
  let grow a fill =
    let b = Array.make n fill in
    Array.blit a 0 b 0 t.n;
    b
  in
  { t with n;
    into = grow t.into B.empty; en_since = grow t.en_since 0;
    last_run = grow t.last_run (-1); opened = grow t.opened (-1);
    d = grow t.d (B.full n); yc = grow t.yc 0 }

(* The initial window of a thread created with [n] threads around has
   S = Tid = {0..n-1}: [n0] for the threads of [create], [u + 1] for a
   thread [u] added later. *)
let s_set t u =
  let o = t.opened.(u) in
  let s = ref (if o < 0 then B.full (max t.n0 (u + 1)) else B.empty) in
  for x = 0 to t.n - 1 do
    if t.last_run.(x) > o then s := B.add x !s
  done;
  !s

let e_set t u =
  let o = t.opened.(u) in
  let e = ref B.empty in
  for x = 0 to t.n - 1 do
    if B.mem x t.es_last && t.en_since.(x) <= o then e := B.add x !e
  done;
  !e

(* T = ES \ pre(P, ES), and pre(P, ES) is the union of [into] over ES. *)
let schedulable t ~enabled =
  if t.edges = 0 then enabled
  else begin
    let blocked = ref B.empty in
    for y = 0 to t.n - 1 do
      if B.mem y enabled then blocked := B.union !blocked t.into.(y)
    done;
    B.diff enabled !blocked
  end

type obs = {
  mutable edges_added : int;
  mutable edges_removed : int;
  mutable penalties : int;
}

let obs_create () = { edges_added = 0; edges_removed = 0; penalties = 0 }

(* Mutates [t] in place and returns it: the search holds a single scheduler
   cell per execution ([fair := Fair_sched.step !fair ...]) and recomputes it
   from scratch on every replay, so the previous value is always dead. Callers
   that need the old state (tests, snapshots) take an explicit [copy] first. *)
let step ?obs t ~chosen ~yielded ~es_before ~es_after =
  if chosen < 0 || chosen >= t.n then invalid_arg "Fair_sched.step: bad tid";
  let now = t.clock in
  t.clock <- now + 1;
  (* Line 13: remove all edges with sink [chosen]. *)
  let sunk = t.into.(chosen) in
  if not (B.is_empty sunk) then begin
    let m = B.cardinal sunk in
    t.edges <- t.edges - m;
    (match obs with Some o -> o.edges_removed <- o.edges_removed + m | None -> ());
    t.into.(chosen) <- B.empty
  end;
  (* Lines 14–22: E(u) ∩= es_after by stamping the threads that entered
     es_after, D(chosen) ∪= newly disabled, S(u) += chosen. *)
  let entered = B.diff es_after t.es_last in
  if not (B.is_empty entered) then
    for x = 0 to t.n - 1 do
      if B.mem x entered then t.en_since.(x) <- now
    done;
  t.es_last <- es_after;
  let newly_disabled = B.diff es_before es_after in
  if not (B.is_empty newly_disabled) then
    t.d.(chosen) <- B.union t.d.(chosen) newly_disabled;
  t.last_run.(chosen) <- now;
  (* Lines 23–29: on a (k-th) yield of [chosen], penalize it against the
     threads it starved in the closing window, then open a new window. *)
  if yielded then begin
    let yc = t.yc.(chosen) + 1 in
    if yc < t.k then t.yc.(chosen) <- yc
    else begin
      let h = B.diff (B.union (e_set t chosen) t.d.(chosen)) (s_set t chosen) in
      let added = ref 0 in
      if not (B.is_empty h) then
        for y = 0 to t.n - 1 do
          if B.mem y h && not (B.mem chosen t.into.(y)) then begin
            t.into.(y) <- B.add chosen t.into.(y);
            incr added
          end
        done;
      t.edges <- t.edges + !added;
      (match obs with
       | Some o ->
         o.penalties <- o.penalties + 1;
         o.edges_added <- o.edges_added + !added
       | None -> ());
      t.opened.(chosen) <- now;
      t.d.(chosen) <- B.empty;
      t.yc.(chosen) <- 0
    end
  end;
  t

let edge_count t = t.edges

let priority_pairs t =
  let acc = ref [] in
  for x = 0 to t.n - 1 do
    for y = t.n - 1 downto 0 do
      if B.mem x t.into.(y) then acc := (x, y) :: !acc
    done
  done;
  !acc

let sets t ~tid =
  if tid < 0 || tid >= t.n then invalid_arg "Fair_sched.sets";
  (e_set t tid, t.d.(tid), s_set t tid)

(* DFS 3-coloring over the reversed edges, which have the same cycles. *)
let is_acyclic t =
  let color = Array.make t.n 0 in
  let rec visit y =
    if color.(y) = 1 then false
    else if color.(y) = 2 then true
    else begin
      color.(y) <- 1;
      let ok = B.for_all visit t.into.(y) in
      color.(y) <- 2;
      ok
    end
  in
  let rec all y = y >= t.n || (visit y && all (y + 1)) in
  all 0
