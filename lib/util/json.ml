type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

(* Append the body of a string literal, copying the runs between escapes
   in one [add_substring] each: event lines travel between processes as
   JSON strings, so this is on the IPC path. *)
let add_escaped buf s =
  let n = String.length s in
  let start = ref 0 in
  for i = 0 to n - 1 do
    let c = String.unsafe_get s i in
    if c = '"' || c = '\\' || Char.code c < 0x20 then begin
      Buffer.add_substring buf s !start (i - !start);
      (match c with
       | '"' -> Buffer.add_string buf "\\\""
       | '\\' -> Buffer.add_string buf "\\\\"
       | '\n' -> Buffer.add_string buf "\\n"
       | '\r' -> Buffer.add_string buf "\\r"
       | '\t' -> Buffer.add_string buf "\\t"
       | '\b' -> Buffer.add_string buf "\\b"
       | '\012' -> Buffer.add_string buf "\\f"
       | c -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c)));
      start := i + 1
    end
  done;
  Buffer.add_substring buf s !start (n - !start)

(* [string_of_int] without the intermediate string: the telemetry stream
   renders several integers per event, so the allocation is worth dodging. *)
let add_int buf i =
  if i >= 0 && i < 10 then Buffer.add_char buf (Char.unsafe_chr (0x30 + i))
  else if i = min_int then Buffer.add_string buf (string_of_int i)
  else begin
    if i < 0 then Buffer.add_char buf '-';
    let rec go v =
      if v >= 10 then go (v / 10);
      Buffer.add_char buf (Char.unsafe_chr (0x30 + (v mod 10)))
    in
    go (abs i)
  end

(* Shortest decimal representation that parses back to the same float; JSON
   has no NaN/infinity, so those degrade to null at the call sites. *)
let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let s = Printf.sprintf "%.15g" f in
    if float_of_string s = f then s else Printf.sprintf "%.17g" f

let rec emit buf ~indent ~level v =
  let nl lv =
    match indent with
    | None -> ()
    | Some pad ->
      Buffer.add_char buf '\n';
      for _ = 1 to lv * pad do Buffer.add_char buf ' ' done
  in
  let seq open_c close_c items emit_item =
    Buffer.add_char buf open_c;
    List.iteri
      (fun i x ->
        if i > 0 then Buffer.add_char buf ',';
        nl (level + 1);
        emit_item x)
      items;
    if items <> [] then nl level;
    Buffer.add_char buf close_c
  in
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
    if Float.is_finite f then Buffer.add_string buf (float_repr f)
    else Buffer.add_string buf "null"
  | Str s ->
    Buffer.add_char buf '"';
    add_escaped buf s;
    Buffer.add_char buf '"'
  | Arr items -> seq '[' ']' items (emit buf ~indent ~level:(level + 1))
  | Obj members ->
    seq '{' '}' members (fun (k, v) ->
        Buffer.add_char buf '"';
        add_escaped buf k;
        Buffer.add_string buf "\":";
        (match indent with None -> () | Some _ -> Buffer.add_char buf ' ');
        emit buf ~indent ~level:(level + 1) v)

(* Compact emission without the pretty-printer's closures: this is the hot
   path (one call per telemetry event), so it is direct top-level recursion
   — no closure allocation per array/object node. *)
let rec emit_compact buf v =
  match v with
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> add_int buf i
  | Float f ->
    if Float.is_finite f then Buffer.add_string buf (float_repr f)
    else Buffer.add_string buf "null"
  | Str s ->
    Buffer.add_char buf '"';
    add_escaped buf s;
    Buffer.add_char buf '"'
  | Arr items ->
    Buffer.add_char buf '[';
    emit_items buf true items;
    Buffer.add_char buf ']'
  | Obj members ->
    Buffer.add_char buf '{';
    emit_members buf true members;
    Buffer.add_char buf '}'

and emit_items buf first = function
  | [] -> ()
  | x :: tl ->
    if not first then Buffer.add_char buf ',';
    emit_compact buf x;
    emit_items buf false tl

and emit_members buf first = function
  | [] -> ()
  | (k, x) :: tl ->
    if not first then Buffer.add_char buf ',';
    Buffer.add_char buf '"';
    add_escaped buf k;
    Buffer.add_string buf "\":";
    emit_compact buf x;
    emit_members buf false tl

let to_buffer buf v = emit_compact buf v

let to_string ?(pretty = false) v =
  let buf = Buffer.create 256 in
  if pretty then emit buf ~indent:(Some 2) ~level:0 v else emit_compact buf v;
  Buffer.contents buf

let to_file path v =
  let oc = open_out path in
  Fun.protect ~finally:(fun () -> close_out oc) @@ fun () ->
  output_string oc (to_string ~pretty:true v);
  output_char oc '\n'

(* ------------------------------------------------------------------ *)
(* Parser: recursive descent over the string, strict (whole input).    *)

exception Parse_error of string

let max_depth = 1024

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected %C" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  (* End of the run of plain bytes (no quote, backslash or control
     character) starting at [i]. *)
  let rec plain i =
    if i < n
       && (match String.unsafe_get s i with
           | '"' | '\\' -> false
           | c -> Char.code c >= 0x20)
    then plain (i + 1)
    else i
  in
  (* Strings are copied a run at a time: an event line shipped as a string
     is a few dozen runs between its escaped quotes, and a string with no
     escapes at all (most keys) is a single [String.sub]. *)
  let parse_string () =
    expect '"';
    let start = !pos in
    let stop = plain start in
    if stop < n && s.[stop] = '"' then begin
      pos := stop + 1;
      String.sub s start (stop - start)
    end
    else
    let buf = Buffer.create (stop - start + 16) in
    let rec go () =
      let stop = plain !pos in
      Buffer.add_substring buf s !pos (stop - !pos);
      pos := stop;
      if !pos >= n then fail "unterminated string"
      else begin
        let c = s.[!pos] in
        advance ();
        match c with
        | '"' -> Buffer.contents buf
        | '\\' ->
          (if !pos >= n then fail "unterminated escape";
           let e = s.[!pos] in
           advance ();
           match e with
           | '"' -> Buffer.add_char buf '"'
           | '\\' -> Buffer.add_char buf '\\'
           | '/' -> Buffer.add_char buf '/'
           | 'n' -> Buffer.add_char buf '\n'
           | 'r' -> Buffer.add_char buf '\r'
           | 't' -> Buffer.add_char buf '\t'
           | 'b' -> Buffer.add_char buf '\b'
           | 'f' -> Buffer.add_char buf '\012'
           | 'u' ->
             let hex4 () =
               if !pos + 4 > n then fail "truncated \\u escape";
               let hex = String.sub s !pos 4 in
               pos := !pos + 4;
               match int_of_string_opt ("0x" ^ hex) with
               | Some c -> c
               | None -> fail "malformed \\u escape"
             in
             let code = hex4 () in
             (* A high surrogate followed by \uDC00-\uDFFF encodes one
                non-BMP scalar (JSON strings are UTF-16 under the hood);
                combine the pair rather than emitting CESU-8. A lone
                surrogate is decoded as its 3-byte form — lenient, like the
                rest of this parser. *)
             let code =
               if code >= 0xD800 && code <= 0xDBFF
                  && !pos + 6 <= n && s.[!pos] = '\\' && s.[!pos + 1] = 'u'
               then begin
                 let save = !pos in
                 pos := !pos + 2;
                 let low = hex4 () in
                 if low >= 0xDC00 && low <= 0xDFFF then
                   0x10000 + ((code - 0xD800) lsl 10) + (low - 0xDC00)
                 else begin
                   pos := save;
                   code
                 end
               end
               else code
             in
             if code < 0x80 then Buffer.add_char buf (Char.chr code)
             else if code < 0x800 then begin
               Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
               Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
             end
             else if code < 0x10000 then begin
               Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
               Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
               Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
             end
             else begin
               Buffer.add_char buf (Char.chr (0xF0 lor (code lsr 18)));
               Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 12) land 0x3F)));
               Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
               Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
             end
           | _ -> fail "unknown escape");
          go ()
        | _ -> fail "raw control character in string"
      end
    in
    go ()
  in
  let parse_number () =
    let start = !pos in
    if peek () = Some '-' then advance ();
    let is_digit () = match peek () with Some ('0' .. '9') -> true | _ -> false in
    if not (is_digit ()) then fail "malformed number";
    while is_digit () do advance () done;
    let is_float = ref false in
    if peek () = Some '.' then begin
      is_float := true;
      advance ();
      if not (is_digit ()) then fail "malformed number";
      while is_digit () do advance () done
    end;
    (match peek () with
     | Some ('e' | 'E') ->
       is_float := true;
       advance ();
       (match peek () with Some ('+' | '-') -> advance () | _ -> ());
       if not (is_digit ()) then fail "malformed number";
       while is_digit () do advance () done
     | _ -> ());
    let text = String.sub s start (!pos - start) in
    if !is_float then Float (float_of_string text)
    else
      match int_of_string_opt text with
      | Some i -> Int i
      | None -> Float (float_of_string text)
  in
  (* [depth] counts the arrays and objects open around the value. Each
     costs a few stack frames, so a bound keeps a hostile document from
     overflowing the stack or holding the parser for seconds. *)
  let open_container depth =
    if depth >= max_depth then fail (Printf.sprintf "nesting deeper than %d" max_depth);
    advance ();
    depth + 1
  in
  let rec parse_value depth =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '"' -> Str (parse_string ())
    | Some '[' ->
      let depth = open_container depth in
      skip_ws ();
      if peek () = Some ']' then begin advance (); Arr [] end
      else begin
        let rec items acc =
          let v = parse_value depth in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); items (v :: acc)
          | Some ']' -> advance (); Arr (List.rev (v :: acc))
          | _ -> fail "expected ',' or ']'"
        in
        items []
      end
    | Some '{' ->
      let depth = open_container depth in
      skip_ws ();
      if peek () = Some '}' then begin advance (); Obj [] end
      else begin
        let member () =
          skip_ws ();
          let k = parse_string () in
          skip_ws ();
          expect ':';
          let v = parse_value depth in
          (k, v)
        in
        let rec members acc =
          let m = member () in
          skip_ws ();
          match peek () with
          | Some ',' -> advance (); members (m :: acc)
          | Some '}' -> advance (); Obj (List.rev (m :: acc))
          | _ -> fail "expected ',' or '}'"
        in
        members []
      end
    | Some _ -> parse_number ()
  in
  match
    let v = parse_value 0 in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error msg -> Error msg

let rec equal a b =
  match (a, b) with
  | Null, Null -> true
  | Bool x, Bool y -> x = y
  | Int x, Int y -> x = y
  | Float x, Float y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Str x, Str y -> String.equal x y
  | Arr x, Arr y -> List.length x = List.length y && List.for_all2 equal x y
  | Obj x, Obj y ->
    List.length x = List.length y
    && List.for_all2 (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && equal v1 v2) x y
  | _ -> false
