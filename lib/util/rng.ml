type t = { mutable state : int64 }

let make seed = { state = seed }

(* splitmix64 (Steele, Lea, Flood 2014). *)
let next_int64 t =
  let open Int64 in
  t.state <- add t.state 0x9E3779B97F4A7C15L;
  let z = t.state in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let mix key x =
  next_int64 { state = Int64.logxor key (Int64.mul (Int64.of_int x) 0x9E3779B97F4A7C15L) }

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int";
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

let bool t = Int64.logand (next_int64 t) 1L = 1L
