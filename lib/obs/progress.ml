type sample = {
  executions : int;
  elapsed : float;
  jobs : int;
  phase : string;
  completion : float option;
  est_total : int option;
  eta : float option;
}

let estimate ~executions ~mass ~elapsed ~jobs =
  { executions;
    elapsed;
    jobs;
    phase = "search";
    completion = (if mass > 0 then Some (Estimator.completion ~mass) else None);
    est_total = Estimator.est_total ~mass ~executions;
    eta = Estimator.eta ~mass ~elapsed }

type sink = sample -> unit

type t = {
  interval_us : int;
  mutable last_us : int;  (* 0 = never emitted *)
  sinks : sink list;
}

let us_of_clock () = int_of_float (Clock.now () *. 1e6)

let create ?(interval = 1.0) ~sinks () =
  { interval_us = int_of_float (Float.max 0. interval *. 1e6);
    last_us = 0;
    sinks }

let emit t sample_fn =
  let s = sample_fn () in
  List.iter (fun sink -> sink s) t.sinks

let tick t sample_fn =
  if t.sinks <> [] then begin
    let now = us_of_clock () in
    if now - t.last_us >= t.interval_us then begin
      t.last_us <- now;
      emit t sample_fn
    end
  end

let force t sample_fn =
  if t.sinks <> [] then begin
    t.last_us <- us_of_clock ();
    emit t sample_fn
  end

let stderr_sink s =
  let rate = if s.elapsed > 0. then float_of_int s.executions /. s.elapsed else 0. in
  let estimate =
    match s.completion with
    | None -> ""
    | Some c ->
      Printf.sprintf " ~%.1f%%%s%s" (100. *. c)
        (match s.est_total with Some t -> Printf.sprintf " of ~%d" t | None -> "")
        (match s.eta with Some e -> Printf.sprintf " eta=%.0fs" e | None -> "")
  in
  Printf.eprintf "[fairmc] phase=%s execs=%d (%.0f/s) elapsed=%.1fs%s%s\n%!" s.phase
    s.executions rate s.elapsed
    (if s.jobs > 1 then Printf.sprintf " jobs=%d" s.jobs else "")
    estimate
