(* Streaming NDJSON search events. A search batches locally and flushes at
   path boundaries; the stream assigns gap-free sequence numbers. Events
   cross process boundaries as rendered lines: a worker's stream renders
   them and the parent's stream renumbers them ({!relay}). See events.mli
   for the envelope and the det/advisory split. *)

module Json = Fairmc_util.Json

let schema = "fairmc-events/1"

type event = {
  seq : int;
  ts_us : int;
  shard : int;
  det : bool;
  kind : string;
  data : Json.t;
}

(* A batched event before its sequence number exists. *)
type pending = { p_ts_us : int; p_det : bool; p_kind : string; p_data : Json.t }

(* A chunked sink: complete lines, newline-terminated, handed over in runs
   of up to [chunk_cap] bytes, and on [sync]. *)
type chunks = { c_write : string -> unit; c_buf : Buffer.t }

type sink = No_sink | Lines of (string -> unit) | Chunks of chunks

type stream = {
  t0 : float;
  sink : sink;
  collect : bool;
  spans : bool;
  mutable seq : int;
  mutable acc : event list;  (* reversed; only when [collect] *)
  fmt : Buffer.t;  (* scratch for line rendering *)
}

type buf = { stream : stream; shard : int; mutable pending : pending list (* reversed *) }

let chunk_cap = 64 * 1024

let make ~t0 ~sink ~collect ~spans =
  { t0; sink; collect; spans; seq = 0; acc = []; fmt = Buffer.create 256 }

let create ?write ?(chunked = false) ?(collect = false) () =
  let sink =
    match write with
    | None -> No_sink
    | Some w when chunked -> Chunks { c_write = w; c_buf = Buffer.create chunk_cap }
    | Some w -> Lines w
  in
  make ~t0:(Clock.now ()) ~sink ~collect ~spans:collect

let worker parent ~write =
  make ~t0:parent.t0 ~sink:(Lines write) ~collect:false ~spans:parent.spans

let origin t = t.t0
let spans t = t.spans

let buffer stream ~shard = { stream; shard; pending = [] }

let to_json (e : event) =
  Json.Obj
    [ ("schema", Json.Str schema);
      ("seq", Json.Int e.seq);
      ("ts_us", Json.Int e.ts_us);
      ("shard", Json.Int e.shard);
      ("det", Json.Bool e.det);
      ("kind", Json.Str e.kind);
      ("data", e.data) ]

(* Render an envelope into [b] without building the intermediate Json.Obj:
   the envelope shape is fixed and this runs once per event on the flush
   path. Field order must match {!to_json}. *)
let render b (e : event) =
  Buffer.add_string b {|{"schema":"|};
  Buffer.add_string b schema;
  Buffer.add_string b {|","seq":|};
  Json.add_int b e.seq;
  Buffer.add_string b {|,"ts_us":|};
  Json.add_int b e.ts_us;
  Buffer.add_string b {|,"shard":|};
  Json.add_int b e.shard;
  Buffer.add_string b
    (if e.det then {|,"det":true,"kind":|} else {|,"det":false,"kind":|});
  Json.to_buffer b (Json.Str e.kind);
  Buffer.add_string b {|,"data":|};
  Json.to_buffer b e.data;
  Buffer.add_char b '}'

let line e =
  let b = Buffer.create 160 in
  render b e;
  Buffer.contents b

let of_json j =
  match j with
  | Json.Obj fields ->
    let f name = List.assoc_opt name fields in
    (match f "schema" with
     | Some (Json.Str s) when s = schema ->
       (match (f "seq", f "ts_us", f "shard", f "det", f "kind", f "data") with
        | Some (Json.Int seq), Some (Json.Int ts_us), Some (Json.Int shard),
          Some (Json.Bool det), Some (Json.Str kind), Some data ->
          Ok { seq; ts_us; shard; det; kind; data }
        | _ -> Error "missing or ill-typed envelope field")
     | Some (Json.Str s) -> Error (Printf.sprintf "unsupported schema %S" s)
     | Some _ -> Error "schema is not a string"
     | None -> Error "missing schema field")
  | _ -> Error "event is not an object"

let of_line s =
  match Json.of_string s with Error e -> Error e | Ok j -> of_json j

let ts_us stream = int_of_float (Clock.elapsed ~since:stream.t0 *. 1e6)

let emit buf ?(det = false) ~kind data =
  buf.pending <-
    { p_ts_us = ts_us buf.stream; p_det = det; p_kind = kind; p_data = data } :: buf.pending

let chunk_flush c =
  if Buffer.length c.c_buf > 0 then begin
    c.c_write (Buffer.contents c.c_buf);
    Buffer.clear c.c_buf
  end

let has_sink stream = match stream.sink with No_sink -> false | Lines _ | Chunks _ -> true

(* Where the next line is rendered: straight into the chunk, or into the
   scratch buffer for a per-line sink. [line_done] hands it over. *)
let line_buf stream =
  match stream.sink with
  | Chunks c -> c.c_buf
  | No_sink | Lines _ ->
    Buffer.clear stream.fmt;
    stream.fmt

let line_done stream =
  match stream.sink with
  | No_sink -> ()
  | Lines w -> w (Buffer.contents stream.fmt)
  | Chunks c ->
    Buffer.add_char c.c_buf '\n';
    if Buffer.length c.c_buf >= chunk_cap then chunk_flush c

(* Number, write, collect — in batch order. *)
let publish stream ~shard p =
  let seq = stream.seq in
  stream.seq <- seq + 1;
  if has_sink stream || stream.collect then begin
    let e = { seq; ts_us = p.p_ts_us; shard; det = p.p_det; kind = p.p_kind; data = p.p_data } in
    if has_sink stream then begin
      render (line_buf stream) e;
      line_done stream
    end;
    if stream.collect then stream.acc <- e :: stream.acc
  end

let flush buf =
  match buf.pending with
  | [] -> ()
  | [ p ] ->
    buf.pending <- [];
    publish buf.stream ~shard:buf.shard p
  | pending ->
    buf.pending <- [];
    List.iter (publish buf.stream ~shard:buf.shard) (List.rev pending)

let post stream ~shard ?(det = false) ~kind data =
  publish stream ~shard { p_ts_us = ts_us stream; p_det = det; p_kind = kind; p_data = data }

(* A line as a worker's stream rendered it starts with this, then its
   sequence number: the one field a relay rewrites. *)
let seq_prefix = {|{"schema":"|} ^ schema ^ {|","seq":|}

(* Index of the comma that ends the line's sequence number, or -1. *)
let seq_end line =
  let p = String.length seq_prefix and n = String.length line in
  if n <= p || not (String.starts_with ~prefix:seq_prefix line) then -1
  else begin
    let i = ref p in
    while !i < n && line.[!i] >= '0' && line.[!i] <= '9' do incr i done;
    if !i > p && !i < n && line.[!i] = ',' then !i else -1
  end

let relayable line = seq_end line >= 0

let relay stream lines =
  let render = has_sink stream || stream.collect in
  List.iter
    (fun line ->
      let j = seq_end line in
      if j < 0 then invalid_arg "Events.relay: not an envelope line";
      let seq = stream.seq in
      stream.seq <- seq + 1;
      if render then begin
        let b = line_buf stream in
        let start = Buffer.length b in
        Buffer.add_string b seq_prefix;
        Json.add_int b seq;
        Buffer.add_substring b line j (String.length line - j);
        (if stream.collect then
           match of_line (Buffer.sub b start (Buffer.length b - start)) with
           | Ok e -> stream.acc <- e :: stream.acc
           | Error _ -> ());
        line_done stream
      end)
    lines

let sync stream =
  match stream.sink with
  | Chunks c -> chunk_flush c
  | No_sink | Lines _ -> ()

let collected stream = List.rev stream.acc
