(* Worker IPC protocol. See DESIGN.md, "Parallel search".

   The supervisor and its forked workers exchange length-prefixed JSON
   frames over pipes: an 8-lowercase-hex-digit payload length followed by
   the payload itself. JSON keeps the wire format debuggable (a hung
   worker's pipe can be read by hand) and lets reports and metric
   snapshots travel in exactly the checkpoint codec's wire form
   ({!Checkpoint.Codec}), so nothing is serialized two different ways.
   A raw frame ('r' and a 7-hex-digit length) carries bytes that are not
   decoded at all: chessd's runners send their event lines in them.

   Framing is deliberately asymmetric:
   - the child reads its request pipe with a blocking [recv] (it has
     nothing else to do), and
   - the parent feeds a per-slot [inbuf] from [select]-driven single
     [read(2)]s and extracts complete frames incrementally, so one slow or
     malicious worker can never stall the supervisor loop.

   Any framing violation (garbled header, oversized frame, non-JSON
   payload, truncation) is an [Error] — the supervisor treats it like a
   worker death and requeues the in-flight item. *)

module J = Fairmc_util.Json
module Retry = Fairmc_util.Retry
module CK = Checkpoint.Codec
module AH = Analysis_hook
module Events = Fairmc_obs.Events

let protocol = "fairmc-ipc/1"

type request =
  | Run of { q_index : int; q_attempt : int; q_time_left : float option; q_item : Checkpoint.item }
  | Quit

type response = {
  r_index : int;
  r_attempt : int;
  r_report : Report.t;
  r_states : int64 list;
  r_events : string list;
}

type reply = Rest of Checkpoint.item list | Response of response

(* ------------------------------------------------------------------ *)
(* Report codec. Parsers raise {!Checkpoint.Codec.Parse}.              *)

let failure_to_json = function
  | Engine.Assertion m -> J.Arr [ J.Str "assertion"; J.Str m ]
  | Engine.Sync_misuse m -> J.Arr [ J.Str "sync"; J.Str m ]
  | Engine.Resource m -> J.Arr [ J.Str "resource"; J.Str m ]
  | Engine.Uncaught m -> J.Arr [ J.Str "uncaught"; J.Str m ]

let failure_of_json = function
  | J.Arr [ J.Str "assertion"; J.Str m ] -> Engine.Assertion m
  | J.Arr [ J.Str "sync"; J.Str m ] -> Engine.Sync_misuse m
  | J.Arr [ J.Str "resource"; J.Str m ] -> Engine.Resource m
  | J.Arr [ J.Str "uncaught"; J.Str m ] -> Engine.Uncaught m
  | _ -> CK.fail "bad failure"

(* Unlike {!Report.cex_to_json} (which drops the rendering from the public
   report), the wire form keeps all three fields: the parent prints the
   counterexample the child rendered. *)
let cex_to_json (c : Report.counterexample) =
  J.Obj
    [ ("rendered", J.Str c.Report.rendered);
      ("decisions",
       J.Arr (List.map (fun (t, a) -> J.Arr [ J.Int t; J.Int a ]) c.Report.decisions));
      ("length", J.Int c.Report.length) ]

let cex_of_json o =
  { Report.rendered = CK.str_f o "rendered";
    decisions =
      List.map
        (function
          | J.Arr [ J.Int t; J.Int a ] -> (t, a)
          | _ -> CK.fail "bad cex decision")
        (CK.arr_f o "decisions");
    length = CK.int_f o "length" }

let op_of_json j =
  match Op.of_json j with Ok op -> op | Error e -> CK.fail "%s" e

let race_to_json (r : AH.race) =
  J.Obj
    [ ("detector", J.Str r.AH.detector);
      ("obj", J.Int r.obj);
      ("obj_name", J.Str r.obj_name);
      ("a_tid", J.Int r.a_tid);
      ("a_step", J.Int r.a_step);
      ("a_op", Op.to_json r.a_op);
      ("b_tid", J.Int r.b_tid);
      ("b_step", J.Int r.b_step);
      ("b_op", Op.to_json r.b_op);
      ("rendered", J.Str r.rendered);
      ("decisions",
       J.Arr (List.map (fun (t, a) -> J.Arr [ J.Int t; J.Int a ]) r.decisions));
      ("length", J.Int r.length) ]

let race_of_json o =
  { AH.detector = CK.str_f o "detector";
    obj = CK.int_f o "obj";
    obj_name = CK.str_f o "obj_name";
    a_tid = CK.int_f o "a_tid";
    a_step = CK.int_f o "a_step";
    a_op = op_of_json (CK.field o "a_op");
    b_tid = CK.int_f o "b_tid";
    b_step = CK.int_f o "b_step";
    b_op = op_of_json (CK.field o "b_op");
    rendered = CK.str_f o "rendered";
    decisions =
      List.map
        (function
          | J.Arr [ J.Int t; J.Int a ] -> (t, a)
          | _ -> CK.fail "bad race decision")
        (CK.arr_f o "decisions");
    length = CK.int_f o "length" }

let verdict_to_json = function
  | Report.Verified -> J.Obj [ ("kind", J.Str "verified") ]
  | Report.Limits_reached -> J.Obj [ ("kind", J.Str "limits") ]
  | Report.Safety_violation { tid; failure; cex } ->
    J.Obj
      [ ("kind", J.Str "safety");
        ("tid", J.Int tid);
        ("failure", failure_to_json failure);
        ("cex", cex_to_json cex) ]
  | Report.Deadlock { cex } ->
    J.Obj [ ("kind", J.Str "deadlock"); ("cex", cex_to_json cex) ]
  | Report.Divergence { kind; cex } ->
    J.Obj
      [ ("kind", J.Str "divergence");
        ("divergence",
         match kind with
         | Report.Fair_nontermination -> J.Str "fair"
         | Report.Good_samaritan_violation t -> J.Arr [ J.Str "gs"; J.Int t ]);
        ("cex", cex_to_json cex) ]
  | Report.Race { race; cex } ->
    J.Obj
      [ ("kind", J.Str "race"); ("race", race_to_json race); ("cex", cex_to_json cex) ]
  | Report.Crash { reason; cex } ->
    J.Obj
      [ ("kind", J.Str "crash"); ("reason", J.Str reason); ("cex", cex_to_json cex) ]

let verdict_of_json o =
  match CK.str_f o "kind" with
  | "verified" -> Report.Verified
  | "limits" -> Report.Limits_reached
  | "safety" ->
    Report.Safety_violation
      { tid = CK.int_f o "tid";
        failure = failure_of_json (CK.field o "failure");
        cex = cex_of_json (CK.field o "cex") }
  | "deadlock" -> Report.Deadlock { cex = cex_of_json (CK.field o "cex") }
  | "divergence" ->
    Report.Divergence
      { kind =
          (match CK.field o "divergence" with
           | J.Str "fair" -> Report.Fair_nontermination
           | J.Arr [ J.Str "gs"; J.Int t ] -> Report.Good_samaritan_violation t
           | _ -> CK.fail "bad divergence kind");
        cex = cex_of_json (CK.field o "cex") }
  | "race" ->
    Report.Race
      { race = race_of_json (CK.field o "race"); cex = cex_of_json (CK.field o "cex") }
  | "crash" ->
    Report.Crash
      { reason = CK.str_f o "reason"; cex = cex_of_json (CK.field o "cex") }
  | k -> CK.fail "unknown verdict kind %S" k

(* Analysis travels as its edge set only; the per-part cycles are a pure
   function of the edges ([AH.cycles]) and are recomputed on decode. *)
let report_to_json (r : Report.t) =
  J.Obj
    [ ("verdict", verdict_to_json r.Report.verdict);
      ("stats", CK.stats_to_json r.Report.stats);
      ("metrics", CK.metrics_to_json r.Report.metrics);
      ("analysis",
       CK.opt_to_json
         (fun (a : Report.analysis) -> CK.edges_to_json a.Report.lock_order_edges)
         r.Report.analysis) ]

let report_of_json o =
  { Report.verdict = verdict_of_json (CK.field o "verdict");
    stats = CK.stats_of_json (CK.field o "stats");
    metrics = CK.metrics_of_json "metrics" (CK.field o "metrics");
    analysis =
      CK.opt_of_json
        (fun v ->
          let edges = CK.edges_of_json "analysis" v in
          { Report.lock_order_edges = edges;
            potential_deadlock_cycles = AH.cycles edges })
        (CK.field o "analysis") }

(* ------------------------------------------------------------------ *)
(* Request/response codec.                                             *)

let request_to_json = function
  | Run { q_index; q_attempt; q_time_left; q_item } ->
    J.Obj
      [ ("op", J.Str "run");
        ("index", J.Int q_index);
        ("attempt", J.Int q_attempt);
        ("time_left", CK.opt_to_json (fun f -> J.Float f) q_time_left);
        ("item", CK.item_to_json q_item) ]
  | Quit -> J.Obj [ ("op", J.Str "quit") ]

let request_of_json o =
  match CK.str_f o "op" with
  | "run" ->
    Run
      { q_index = CK.int_f o "index";
        q_attempt = CK.int_f o "attempt";
        q_time_left = CK.opt_of_json (CK.as_float "time_left") (CK.field o "time_left");
        q_item = CK.item_of_json (CK.field o "item") }
  | "quit" -> Quit
  | op -> CK.fail "unknown request %S" op

let response_to_json r =
  J.Obj
    [ ("protocol", J.Str protocol);
      ("index", J.Int r.r_index);
      ("attempt", J.Int r.r_attempt);
      ("report", report_to_json r.r_report);
      ("states", CK.states_to_json r.r_states);
      ("events", J.Arr (List.map (fun line -> J.Str line) r.r_events)) ]

let response_of_json o =
  let p = CK.str_f o "protocol" in
  if p <> protocol then CK.fail "protocol mismatch: %S (expected %S)" p protocol;
  { r_index = CK.int_f o "index";
    r_attempt = CK.int_f o "attempt";
    r_report = report_of_json (CK.field o "report");
    r_states = CK.states_of_json "states" (CK.field o "states");
    r_events =
      List.map
        (function
          | J.Str line when Events.relayable line -> line
          | _ -> CK.fail "bad event line")
        (CK.arr_f o "events") }

let rest_to_json items =
  J.Obj [ ("protocol", J.Str protocol); ("rest", J.Arr (List.map CK.item_to_json items)) ]

let reply_of_json o =
  match o with
  | J.Obj kvs when List.mem_assoc "rest" kvs ->
    let p = CK.str_f o "protocol" in
    if p <> protocol then CK.fail "protocol mismatch: %S (expected %S)" p protocol;
    Rest (List.map CK.item_of_json (CK.arr_f o "rest"))
  | _ -> Response (response_of_json o)

(* ------------------------------------------------------------------ *)
(* Framing.                                                            *)

type frame = Json of J.t | Raw of string

(* A response is bounded by the item's subtree (counterexample rendering
   dominates); anything past this is a protocol violation, not data. *)
let max_frame = 64 * 1024 * 1024

let write_sub fd s off len =
  let stop = off + len in
  let off = ref off in
  while !off < stop do
    let w = Retry.eintr (fun () -> Unix.write_substring fd s !off (stop - !off)) in
    if w <= 0 then raise (Sys_error "worker pipe: short write");
    off := !off + w
  done

let write_string fd s = write_sub fd s 0 (String.length s)

let header ~raw n = if raw then Printf.sprintf "r%07x" n else Printf.sprintf "%08x" n

let framed ~raw payload = header ~raw (String.length payload) ^ payload
let frame j = framed ~raw:false (J.to_string j)
let send fd j = write_string fd (frame j)
let send_raw fd s = write_string fd (framed ~raw:true s)

let add_frame b j =
  let payload = J.to_string j in
  Buffer.add_string b (header ~raw:false (String.length payload));
  Buffer.add_string b payload

(* Fault injection ([--inject-fault slowpipe]): same bytes, trickled in
   small delayed chunks to exercise the parent's partial-frame reassembly. *)
let send_slowly ?(chunks = 8) ?(delay = 0.01) fd j =
  let b = frame j in
  let n = String.length b in
  let step = max 1 ((n + chunks - 1) / chunks) in
  let off = ref 0 in
  while !off < n do
    let len = min step (n - !off) in
    write_sub fd b !off len;
    off := !off + len;
    if !off < n then Retry.sleepf delay
  done

let hex_digit c =
  match c with
  | '0' .. '9' -> Char.code c - 48
  | 'a' .. 'f' -> Char.code c - 87
  | 'A' .. 'F' -> Char.code c - 55
  | _ -> -1

(* The 8-byte header at [off]: whether the frame is raw, and its length. *)
let parse_header b off =
  let raw = Bytes.get b off = 'r' in
  let rec digits i acc =
    if i = 8 then Some acc
    else
      let d = hex_digit (Bytes.get b (off + i)) in
      if d < 0 then None else digits (i + 1) ((acc * 16) + d)
  in
  match digits (if raw then 1 else 0) 0 with
  | Some len when len <= max_frame -> Ok (raw, len)
  | Some len -> Error (Printf.sprintf "frame length %d exceeds %d" len max_frame)
  | None -> Error (Printf.sprintf "garbled frame header %S" (Bytes.sub_string b off 8))

let decode ~raw payload =
  if raw then Ok (Raw payload)
  else
    match J.of_string payload with
    | Error e -> Error ("frame payload is not JSON: " ^ e)
    | Ok j -> Ok (Json j)

(* Blocking reads for the child side of the pipes. *)

let read_exact fd buf off len =
  let got = ref 0 and eof = ref false in
  while (not !eof) && !got < len do
    let r = Retry.eintr (fun () -> Unix.read fd buf (off + !got) (len - !got)) in
    if r = 0 then eof := true else got := !got + r
  done;
  !got

let recv fd =
  let hdr = Bytes.create 8 in
  match read_exact fd hdr 0 8 with
  | 0 -> Ok None
  | n when n < 8 -> Error "truncated frame header"
  | _ ->
    (match parse_header hdr 0 with
     | Error _ as e -> e
     | Ok (raw, len) ->
       let payload = Bytes.create len in
       if read_exact fd payload 0 len < len then Error "truncated frame payload"
       else
         (match decode ~raw (Bytes.unsafe_to_string payload) with
          | Ok (Json j) -> Ok (Some j)
          | Ok (Raw _) -> Error "unexpected raw frame"
          | Error _ as e -> e))

(* Incremental reassembly for the parent side: one [read(2)] per [feed]
   (driven by select readiness), frames extracted as they complete. The
   unread bytes are [data.[off .. len-1]]: [extract] only advances [off],
   and [feed] moves the unread tail to the front once, before it reads. *)

type inbuf = { mutable data : Bytes.t; mutable off : int; mutable len : int }

let inbuf () = { data = Bytes.create 65536; off = 0; len = 0 }

let feed t fd =
  if t.off > 0 then begin
    Bytes.blit t.data t.off t.data 0 (t.len - t.off);
    t.len <- t.len - t.off;
    t.off <- 0
  end;
  if Bytes.length t.data - t.len < 4096 then begin
    let bigger = Bytes.create (2 * Bytes.length t.data) in
    Bytes.blit t.data 0 bigger 0 t.len;
    t.data <- bigger
  end;
  let r = Retry.eintr (fun () -> Unix.read fd t.data t.len (Bytes.length t.data - t.len)) in
  if r = 0 then `Eof
  else begin
    t.len <- t.len + r;
    `Data r
  end

let extract t =
  if t.len - t.off < 8 then Ok None
  else
    match parse_header t.data t.off with
    | Error _ as e -> e
    | Ok (raw, len) ->
      if t.len - t.off < 8 + len then Ok None
      else begin
        let payload = Bytes.sub_string t.data (t.off + 8) len in
        t.off <- t.off + 8 + len;
        if t.off = t.len then begin
          t.off <- 0;
          t.len <- 0
        end;
        match decode ~raw payload with
        | Ok f -> Ok (Some f)
        | Error _ as e -> e
      end
