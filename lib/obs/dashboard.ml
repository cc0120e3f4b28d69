type t = { out : out_channel; mutable drew : bool }

let create ?(out = stderr) () = { out; drew = false }

let bar_width = 30

let render (s : Progress.sample) =
  let buf = Buffer.create 96 in
  (match s.completion with
   | Some c ->
     let filled = int_of_float (Float.round (c *. float_of_int bar_width)) in
     let filled = max 0 (min bar_width filled) in
     Buffer.add_char buf '[';
     for i = 0 to bar_width - 1 do
       Buffer.add_char buf (if i < filled then '#' else '.')
     done;
     Buffer.add_string buf (Printf.sprintf "] %5.1f%%" (100. *. c))
   | None -> Buffer.add_string buf (Printf.sprintf "[%s] --.-%%" (String.make bar_width '.')));
  let rate = if s.elapsed > 0. then float_of_int s.executions /. s.elapsed else 0. in
  Buffer.add_string buf (Printf.sprintf "  execs=%d (%.0f/s)" s.executions rate);
  (match s.est_total with
   | Some t -> Buffer.add_string buf (Printf.sprintf " of ~%d" t)
   | None -> ());
  (match s.eta with
   | Some e -> Buffer.add_string buf (Printf.sprintf "  eta=%.0fs" e)
   | None -> ());
  if s.jobs > 1 then Buffer.add_string buf (Printf.sprintf "  jobs=%d" s.jobs);
  Buffer.add_string buf (Printf.sprintf "  %.1fs" s.elapsed);
  Buffer.contents buf

(* The dashboard redraws from poll points while graceful-interrupt signal
   handlers are installed, so terminal writes can land EINTR mid-flush;
   restart them rather than tearing down the search over a progress line. *)
let sink t s =
  t.drew <- true;
  (* \r + erase-to-end redraws in place; one write keeps it atomic. *)
  Fairmc_util.Retry.eintr (fun () -> Printf.fprintf t.out "\r\027[K%s%!" (render s))

let finish t =
  if t.drew then Fairmc_util.Retry.eintr (fun () -> Printf.fprintf t.out "\n%!")
