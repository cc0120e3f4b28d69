type t = int

let max_capacity = Sys.int_size - 2

let out_of_range i =
  invalid_arg (Printf.sprintf "Bitset: element %d out of range [0, %d]" i max_capacity)

(* [0 <= i <= max_capacity] as one test: either bound broken makes the
   [lor] negative. It inlines into callers; only its failure is a call. *)
let[@inline] in_range i = i lor (max_capacity - i) >= 0
let[@inline] check_elt i = if not (in_range i) then out_of_range i

let empty = 0
let is_empty s = s = 0

let singleton i =
  check_elt i;
  1 lsl i

let full n =
  if n < 0 || n > max_capacity + 1 then invalid_arg "Bitset.full";
  if n = 0 then 0 else (1 lsl n) - 1

(* The bit test first: most tests in a loop over thread ids miss, and skip
   the range test. An out-of-range shift gives some word, never a fault. *)
let[@inline] mem i s = s land (1 lsl i) <> 0 && in_range i

let[@inline] add i s =
  check_elt i;
  s lor (1 lsl i)

let remove i s =
  check_elt i;
  s land lnot (1 lsl i)

let union a b = a lor b
let inter a b = a land b
let diff a b = a land lnot b
let equal a b = a = b
let subset a b = a land lnot b = 0

(* Kernighan popcount; sets are small so the loop runs [cardinal] times. *)
let cardinal s =
  let rec go s acc = if s = 0 then acc else go (s land (s - 1)) (acc + 1) in
  go s 0

let lowest_bit_index s =
  (* [s <> 0]; index of least significant set bit. *)
  let rec go s i = if s land 1 <> 0 then i else go (s lsr 1) (i + 1) in
  go s 0

let choose s = if s = 0 then None else Some (lowest_bit_index s)
let min_elt s = if s = 0 then raise Not_found else lowest_bit_index s

let fold f s init =
  let rec go s acc =
    if s = 0 then acc
    else
      let i = lowest_bit_index s in
      go (s land (s - 1)) (f i acc)
  in
  go s init

let iter f s = fold (fun i () -> f i) s ()
let elements s = List.rev (fold (fun i acc -> i :: acc) s [])
let of_list l = List.fold_left (fun acc i -> add i acc) empty l
let exists p s = fold (fun i acc -> acc || p i) s false
let for_all p s = fold (fun i acc -> acc && p i) s true
let filter p s = fold (fun i acc -> if p i then add i acc else acc) s empty

let nth s i =
  let rec go s i =
    if s = 0 then raise Not_found
    else
      let e = lowest_bit_index s in
      if i = 0 then e else go (s land (s - 1)) (i - 1)
  in
  if i < 0 then raise Not_found else go s i

let to_int s = s
let unsafe_of_int i = i

let pp ppf s =
  Format.fprintf ppf "{%a}" (Format.pp_print_list ~pp_sep:(fun ppf () -> Format.fprintf ppf ",") Format.pp_print_int) (elements s)
