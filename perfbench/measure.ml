(* Clocks, CPU accounting and /proc readings shared by every workload. *)

let now = Unix.gettimeofday

(* User + system seconds of this process, and of its reaped descendants
   (a descendant counts once its parent has waited for it). *)
let cpu_self () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let cpu_children () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

(* A "Vm...: N kB" field of /proc/<pid>/status, in kB. *)
let status_kb pid field =
  let path = if pid = 0 then "/proc/self/status" else Printf.sprintf "/proc/%d/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> None
  | text ->
    List.find_map
      (fun line ->
        match String.index_opt line ':' with
        | Some i when String.sub line 0 i = field ->
          let rest = String.sub line (i + 1) (String.length line - i - 1) in
          (match String.split_on_char ' ' (String.trim rest) with
           | n :: _ -> int_of_string_opt n
           | [] -> None)
        | _ -> None)
      (String.split_on_char '\n' text)

let mb kb = float_of_int kb /. 1024.

(* Fisher-Yates over a list, from the workload's seeded state. *)
let shuffle rng xs =
  let a = Array.of_list xs in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

let mean = function
  | [] -> 0.
  | xs -> List.fold_left ( +. ) 0. xs /. float_of_int (List.length xs)

(* [batches] samples of the per-call time of [f], each the mean of
   [per_batch] back-to-back calls: one call is too short to time alone. *)
let batched ~batches ~per_batch f =
  List.init batches (fun _ ->
      let t0 = now () in
      for _ = 1 to per_batch do
        ignore (Sys.opaque_identity (f ()))
      done;
      (now () -. t0) /. float_of_int per_batch)
