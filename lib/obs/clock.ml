let last = ref 0.

let now () =
  let t = Unix.gettimeofday () in
  if t > !last then begin
    last := t;
    t
  end
  else !last

let elapsed ~since = Float.max 0. (now () -. since)
