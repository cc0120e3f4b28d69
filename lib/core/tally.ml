(* Search-wide totals, in a shared mapping when workers share them. See
   tally.mli. *)

module A = Bigarray.Array1

(* Slot [s] is cells [3s] (executions), [3s + 1] (probe mass) and [3s + 2]
   (the split request, 0 or 1). *)
type t = { cells : (int, Bigarray.int_elt, Bigarray.c_layout) A.t; own : int }

let create ~slots =
  let cells = A.create Bigarray.int Bigarray.c_layout (3 * max 1 slots) in
  A.fill cells 0;
  { cells; own = 0 }

let shared ~slots =
  let path = Filename.temp_file "fairmc" ".tally" in
  let fd = Unix.openfile path [ Unix.O_RDWR ] 0o600 in
  Fun.protect
    ~finally:(fun () ->
      Unix.close fd;
      try Unix.unlink path with Unix.Unix_error _ -> ())
    (fun () ->
      (* A shared mapping grows the empty file with zeros. *)
      let g = Unix.map_file fd Bigarray.int Bigarray.c_layout true [| 3 * max 1 slots |] in
      { cells = Bigarray.array1_of_genarray g; own = 0 })

let slot t s =
  if s < 0 || 3 * s >= A.dim t.cells then invalid_arg "Tally.slot";
  { t with own = s }

let add t ~executions ~mass =
  let i = 3 * t.own in
  A.unsafe_set t.cells i (A.unsafe_get t.cells i + executions);
  A.unsafe_set t.cells (i + 1) (A.unsafe_get t.cells (i + 1) + mass)

let sum t first =
  let s = ref 0 in
  let i = ref first in
  while !i < A.dim t.cells do
    s := !s + A.unsafe_get t.cells !i;
    i := !i + 3
  done;
  !s

let executions t = sum t 0
let mass t = sum t 1
let ask_split t b = A.unsafe_set t.cells ((3 * t.own) + 2) (Bool.to_int b)
let split_asked t = A.unsafe_get t.cells ((3 * t.own) + 2) <> 0
