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
   hold thread ids only, so [into] and [en_since] need no more.

   Sets are held as the words of [Bitset.t] and combined with [land], [lor]
   and [lnot] in this module: where [Bitset] is compiled opaquely (dune's
   default dev profile, which the benchmark builds) each of its operations
   is an indirect call, several of them per transition. *)
type t = {
  n : int;
  n0 : int;  (* threads at [create]: later threads are added one by one *)
  k : int;
  mutable clock : int;
  mutable es_last : int;
  mutable edges : int;
  into : int array;
  en_since : int array;
  last_run : int array;
  opened : int array;
  d : int array;
  yc : int array;  (* yields of t since its window opened (k-parameterization) *)
}

let bit x = 1 lsl x
let full n = bit n - 1

let rec cardinal s = if s = 0 then 0 else 1 + cardinal (s land (s - 1))

let create ~nthreads ?(k = 1) () =
  if nthreads < 0 || nthreads > B.max_capacity + 1 then invalid_arg "Fair_sched.create";
  if k < 1 then invalid_arg "Fair_sched.create: k must be >= 1";
  { n = nthreads; n0 = nthreads; k; clock = 0; es_last = 0; edges = 0;
    into = Array.make nthreads 0;
    en_since = Array.make nthreads 0;
    last_run = Array.make nthreads (-1);
    opened = Array.make nthreads (-1);
    d = Array.make nthreads (full nthreads);
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
    into = grow t.into 0; en_since = grow t.en_since 0;
    last_run = grow t.last_run (-1); opened = grow t.opened (-1);
    d = grow t.d (full n); yc = grow t.yc 0 }

(* The initial window of a thread created with [n] threads around has
   S = Tid = {0..n-1}: [n0] for the threads of [create], [u + 1] for a
   thread [u] added later. *)
let s_set t u =
  let o = t.opened.(u) in
  let s = ref (if o < 0 then full (max t.n0 (u + 1)) else 0) in
  for x = 0 to t.n - 1 do
    if t.last_run.(x) > o then s := !s lor bit x
  done;
  !s

let e_set t u =
  let o = t.opened.(u) in
  let e = ref 0 in
  for x = 0 to t.n - 1 do
    if t.es_last land bit x <> 0 && t.en_since.(x) <= o then e := !e lor bit x
  done;
  !e

(* T = ES \ pre(P, ES), and pre(P, ES) is the union of [into] over ES. *)
let schedulable t ~enabled =
  if t.edges = 0 then enabled
  else begin
    let en = (enabled : B.t :> int) and blocked = ref 0 in
    for y = 0 to t.n - 1 do
      if en land bit y <> 0 then blocked := !blocked lor t.into.(y)
    done;
    B.unsafe_of_int (en land lnot !blocked)
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
  let es_before = (es_before : B.t :> int) and es_after = (es_after : B.t :> int) in
  let now = t.clock in
  t.clock <- now + 1;
  (* Line 13: remove all edges with sink [chosen]. *)
  let sunk = t.into.(chosen) in
  if sunk <> 0 then begin
    let m = cardinal sunk in
    t.edges <- t.edges - m;
    (match obs with Some o -> o.edges_removed <- o.edges_removed + m | None -> ());
    t.into.(chosen) <- 0
  end;
  (* Lines 14–22: E(u) ∩= es_after by stamping the threads that entered
     es_after, D(chosen) ∪= newly disabled, S(u) += chosen. *)
  let entered = es_after land lnot t.es_last in
  if entered <> 0 then
    for x = 0 to t.n - 1 do
      if entered land bit x <> 0 then t.en_since.(x) <- now
    done;
  t.es_last <- es_after;
  let newly_disabled = es_before land lnot es_after in
  if newly_disabled <> 0 then t.d.(chosen) <- t.d.(chosen) lor newly_disabled;
  t.last_run.(chosen) <- now;
  (* Lines 23–29: on a (k-th) yield of [chosen], penalize it against the
     threads it starved in the closing window, then open a new window. *)
  if yielded then begin
    let yc = t.yc.(chosen) + 1 in
    if yc < t.k then t.yc.(chosen) <- yc
    else begin
      let h = (e_set t chosen lor t.d.(chosen)) land lnot (s_set t chosen) in
      let added = ref 0 in
      if h <> 0 then
        for y = 0 to t.n - 1 do
          if h land bit y <> 0 && t.into.(y) land bit chosen = 0 then begin
            t.into.(y) <- t.into.(y) lor bit chosen;
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
      t.d.(chosen) <- 0;
      t.yc.(chosen) <- 0
    end
  end;
  t

let edge_count t = t.edges

let priority_pairs t =
  let acc = ref [] in
  for x = 0 to t.n - 1 do
    for y = t.n - 1 downto 0 do
      if t.into.(y) land bit x <> 0 then acc := (x, y) :: !acc
    done
  done;
  !acc

let sets t ~tid =
  if tid < 0 || tid >= t.n then invalid_arg "Fair_sched.sets";
  (B.unsafe_of_int (e_set t tid), B.unsafe_of_int t.d.(tid), B.unsafe_of_int (s_set t tid))

(* DFS 3-coloring over the reversed edges, which have the same cycles. *)
let is_acyclic t =
  let color = Array.make t.n 0 in
  let rec visit y =
    if color.(y) = 1 then false
    else if color.(y) = 2 then true
    else begin
      color.(y) <- 1;
      let ok = B.for_all visit (B.unsafe_of_int t.into.(y)) in
      color.(y) <- 2;
      ok
    end
  in
  let rec all y = y >= t.n || (visit y && all (y + 1)) in
  all 0
