type event = {
  step : int;
  tid : int;
  op : Op.t;
  alt : int;
  result : bool;
  yielded : bool;
  enabled : Fairmc_util.Bitset.t;
}

type t = { mutable events : event array; mutable len : int }

let dummy =
  { step = 0; tid = 0; op = Op.Yield; alt = 0; result = true; yielded = false;
    enabled = Fairmc_util.Bitset.empty }

(* Empty until its first push: a run that fast-forwards adopts the
   previous run's trace instead. *)
let create () = { events = [||]; len = 0 }

let push t e =
  if t.len = Array.length t.events then begin
    let a = Array.make (max 64 (2 * t.len)) dummy in
    Array.blit t.events 0 a 0 t.len;
    t.events <- a
  end;
  t.events.(t.len) <- e;
  t.len <- t.len + 1

let length t = t.len

let truncate t n =
  if n < 0 || n > t.len then invalid_arg "Trace.truncate";
  t.len <- n

let get t i =
  if i < 0 || i >= t.len then invalid_arg "Trace.get";
  t.events.(i)

let events t = Array.to_list (Array.sub t.events 0 t.len)

let last_n t n =
  let n = min n t.len in
  Array.to_list (Array.sub t.events (t.len - n) n)

let decisions t = List.map (fun e -> (e.tid, e.alt)) (events t)

let pp_event ~names ppf e =
  let pp_op ppf (op : Op.t) =
    match Op.obj_of op with
    | None -> Op.pp ppf op
    | Some o ->
      (* Re-render with the object's registered name. *)
      let base = Op.to_string op in
      (match String.index_opt base '(' with
       | Some i -> Format.fprintf ppf "%s(%a)" (String.sub base 0 i) names o
       | None -> Format.pp_print_string ppf base)
  in
  Format.fprintf ppf "%4d: t%d %a%s%s" e.step e.tid pp_op e.op
    (match e.op with
     | Try_lock _ | Timed_lock _ | Sem_try_wait _ | Sem_timed_wait _ | Ev_timed_wait _ ->
       if e.result then " -> ok" else " -> failed"
     | Choose _ -> Printf.sprintf " -> %d" e.alt
     | _ -> "")
    (if e.yielded then "  [yield]" else "")

let pp ?tail ~names ppf t =
  let evs = match tail with None -> events t | Some n -> last_n t n in
  let skipped = t.len - List.length evs in
  if skipped > 0 then Format.fprintf ppf "  ... (%d earlier steps elided)@," skipped;
  Format.pp_print_list ~pp_sep:Format.pp_print_cut (pp_event ~names) ppf evs
