(* Observability tests: the JSON emitter/parser, metrics snapshot algebra,
   jobs-invariance of the deterministic counter slice, and the progress
   callback under sequential and parallel search. *)

open Fairmc_core
module Json = Fairmc_util.Json
module M = Fairmc_obs.Metrics
module W = Fairmc_workloads

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* JSON emitter/parser.                                                *)

let json_gen =
  let open QCheck.Gen in
  let scalar =
    oneof
      [ return Json.Null;
        map (fun b -> Json.Bool b) bool;
        map (fun i -> Json.Int i) int;
        (* Finite floats only: non-finite values intentionally emit null. *)
        map (fun f -> Json.Float f) (float_bound_inclusive 1e9);
        map (fun s -> Json.Str s) string_printable;
        map (fun s -> Json.Str s) string (* arbitrary bytes incl. controls *) ]
  in
  let rec value depth =
    if depth = 0 then scalar
    else
      frequency
        [ (3, scalar);
          (1, map (fun l -> Json.Arr l) (list_size (int_bound 4) (value (depth - 1))));
          ( 1,
            map
              (fun l -> Json.Obj l)
              (list_size (int_bound 4)
                 (pair string_printable (value (depth - 1)))) ) ]
  in
  value 3

let json_arb = QCheck.make ~print:(fun j -> Json.to_string j) json_gen

(* Decoder fuzzing: valid documents with one node replaced by random JSON
   reach the nested decoders instead of failing on the first field. *)

(* Replace the [at]-th node of [j] (pre-order) by [by]. *)
let replace_node j ~at ~by =
  let n = ref at in
  let rec go j =
    let here = !n = 0 in
    decr n;
    if here then by
    else
      match j with
      | Json.Arr l -> Json.Arr (List.map go l)
      | Json.Obj kv -> Json.Obj (List.map (fun (k, v) -> (k, go v)) kv)
      | j -> j
  in
  go j

let rec json_nodes = function
  | Json.Arr l -> List.fold_left (fun acc v -> acc + json_nodes v) 1 l
  | Json.Obj kv -> List.fold_left (fun acc (_, v) -> acc + json_nodes v) 1 kv
  | _ -> 1

let mutated_gen docs =
  let open QCheck.Gen in
  int_bound (List.length docs - 1) >>= fun k ->
  let doc = List.nth docs k in
  map2 (fun at by -> replace_node doc ~at ~by) (int_bound (json_nodes doc - 1)) json_gen

(* Text for a decoder's parser: noise, random and mutated documents, cut
   short or followed by junk. *)
let text_gen docs =
  let open QCheck.Gen in
  let mutated = mutated_gen docs in
  oneof
    [ string_size (int_bound 256);
      map Json.to_string json_gen;
      map Json.to_string mutated;
      map2
        (fun j cut ->
          let s = Json.to_string j in
          String.sub s 0 (min cut (String.length s)))
        mutated (int_bound 2048);
      map2 (fun j junk -> Json.to_string j ^ junk) mutated string ]

(* [decode] must not raise: callers catch the documented parse error
   themselves, and a test failure names anything else. *)
let decodes_cleanly decode x =
  match decode x with
  | _ -> true
  | exception e -> QCheck.Test.fail_reportf "escaped: %s" (Printexc.to_string e)

let json_qprops =
  [ QCheck.Test.make ~count:500 ~name:"json round-trip" json_arb (fun j ->
        match Json.of_string (Json.to_string j) with
        | Ok j' -> Json.equal j j'
        | Error e -> QCheck.Test.fail_reportf "parse error: %s" e);
    QCheck.Test.make ~count:500 ~name:"json round-trip (pretty)" json_arb (fun j ->
        match Json.of_string (Json.to_string ~pretty:true j) with
        | Ok j' -> Json.equal j j'
        | Error e -> QCheck.Test.fail_reportf "parse error: %s" e) ]

let json_unit_tests =
  [ Alcotest.test_case "escaping of controls, quotes, backslash" `Quick (fun () ->
        check_str "escaped" {|"a\"b\\c\n\t\r\u0001"|}
          (Json.to_string (Json.Str "a\"b\\c\n\t\r\001"));
        check_str "round-trips" "ok"
          (match Json.of_string {|"a\"b\\c\n\t\r\u0001"|} with
           | Ok (Json.Str s) when s = "a\"b\\c\n\t\r\001" -> "ok"
           | Ok _ -> "wrong value"
           | Error e -> e));
    Alcotest.test_case "unicode escapes decode as UTF-8" `Quick (fun () ->
        match Json.of_string {|"éA"|} with
        | Ok (Json.Str s) -> check_str "utf8" "\xc3\xa9A" s
        | Ok _ -> Alcotest.fail "not a string"
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "non-finite floats emit null" `Quick (fun () ->
        check_str "nan" "null" (Json.to_string (Json.Float Float.nan));
        check_str "inf" "null" (Json.to_string (Json.Float Float.infinity)));
    Alcotest.test_case "parser rejects garbage" `Quick (fun () ->
        let bad s = match Json.of_string s with Ok _ -> false | Error _ -> true in
        check "trailing" true (bad "1 x");
        check "unterminated" true (bad {|{"a": 1|});
        check "bare word" true (bad "flase");
        check "empty" true (bad ""));
    Alcotest.test_case "parser rejects NaN/Infinity literals" `Quick (fun () ->
        let bad s = match Json.of_string s with Ok _ -> false | Error _ -> true in
        (* JSON has no non-finite numbers; the emitter degrades them to null
           and the parser must not accept the JS spellings. *)
        check "NaN" true (bad "NaN");
        check "nan" true (bad "nan");
        check "Infinity" true (bad "Infinity");
        check "-Infinity" true (bad "-Infinity");
        check "inside array" true (bad "[1, NaN]"));
    Alcotest.test_case "deeply nested values round-trip" `Quick (fun () ->
        let deep =
          let rec build k acc =
            if k = 0 then acc
            else build (k - 1) (Json.Obj [ ("a", Json.Arr [ acc ]) ])
          in
          build 500 (Json.Int 42)
        in
        (match Json.of_string (Json.to_string deep) with
         | Ok v -> check "deep round-trip" true (Json.equal deep v)
         | Error e -> Alcotest.fail e);
        match Json.of_string (Json.to_string ~pretty:true deep) with
        | Ok v -> check "deep round-trip (pretty)" true (Json.equal deep v)
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "surrogate pairs decode to non-BMP UTF-8" `Quick (fun () ->
        (* U+1F600 as a UTF-16 surrogate pair must come back as one 4-byte
           UTF-8 scalar, not as CESU-8 (two 3-byte sequences). *)
        (match Json.of_string {|"\uD83D\uDE00"|} with
         | Ok (Json.Str s) -> check_str "emoji" "\xf0\x9f\x98\x80" s
         | Ok _ -> Alcotest.fail "not a string"
         | Error e -> Alcotest.fail e);
        (* Mixed with surrounding text. *)
        (match Json.of_string {|"a\uD83D\uDE00b"|} with
         | Ok (Json.Str s) -> check_str "embedded" "a\xf0\x9f\x98\x80b" s
         | Ok _ -> Alcotest.fail "not a string"
         | Error e -> Alcotest.fail e);
        (* A lone high surrogate stays lenient: 3-byte form, and the
           character after it is untouched. *)
        (match Json.of_string {|"\uD800x"|} with
         | Ok (Json.Str s) -> check_str "lone high" "\xed\xa0\x80x" s
         | Ok _ -> Alcotest.fail "not a string"
         | Error e -> Alcotest.fail e);
        (* High surrogate followed by a \u escape that is NOT a low
           surrogate: both decode independently. *)
        match Json.of_string {|"\uD800\u0041"|} with
        | Ok (Json.Str s) -> check_str "high then BMP" "\xed\xa0\x80A" s
        | Ok _ -> Alcotest.fail "not a string"
        | Error e -> Alcotest.fail e) ]

(* ------------------------------------------------------------------ *)
(* Metrics snapshots: merge algebra.                                   *)

(* A random snapshot over a small shared name pool (so merges actually
   collide). Kind is a function of the name, as in real registries. *)
let snapshot_gen =
  let open QCheck.Gen in
  let entry =
    let* i = int_bound 5 in
    let* v = int_bound 1_000 in
    let* kind = int_bound 2 in
    return (kind, Printf.sprintf "%c/%d" (Char.chr (Char.code 'a' + kind)) i, v)
  in
  let* entries = list_size (int_bound 8) entry in
  return
    (List.fold_left
       (fun (snap : M.Snapshot.t) (kind, name, v) ->
         match kind with
         | 0 ->
           let prev =
             match M.Snapshot.find snap name with
             | Some (M.Snapshot.Counter c) -> c
             | _ -> 0
           in
           M.Snapshot.with_counter snap name (prev + v)
         | 1 ->
           let prev =
             match M.Snapshot.find snap name with
             | Some (M.Snapshot.Gauge g) -> g
             | _ -> 0
           in
           M.Snapshot.with_gauge snap name (max prev v)
         | _ ->
           (* Histograms come from a real registry so bucket bookkeeping is
              exercised end to end. *)
           let reg = M.create () in
           let h = M.histogram reg name in
           M.observe h v;
           M.Snapshot.merge snap (M.snapshot reg))
       M.Snapshot.empty entries)

let snapshot_arb =
  QCheck.make
    ~print:(fun s -> Json.to_string ~pretty:true (M.Snapshot.to_json s))
    snapshot_gen

let snap_eq a b = Json.equal (M.Snapshot.to_json a) (M.Snapshot.to_json b)

let metrics_qprops =
  [ QCheck.Test.make ~count:300 ~name:"merge is associative"
      (QCheck.triple snapshot_arb snapshot_arb snapshot_arb)
      (fun (a, b, c) ->
        snap_eq
          (M.Snapshot.merge a (M.Snapshot.merge b c))
          (M.Snapshot.merge (M.Snapshot.merge a b) c));
    QCheck.Test.make ~count:300 ~name:"merge is commutative"
      (QCheck.pair snapshot_arb snapshot_arb)
      (fun (a, b) -> snap_eq (M.Snapshot.merge a b) (M.Snapshot.merge b a));
    QCheck.Test.make ~count:300 ~name:"empty is the merge identity" snapshot_arb
      (fun a ->
        snap_eq a (M.Snapshot.merge a M.Snapshot.empty)
        && snap_eq a (M.Snapshot.merge M.Snapshot.empty a)) ]

let metrics_unit_tests =
  [ Alcotest.test_case "registry basics" `Quick (fun () ->
        let reg = M.create () in
        let c = M.counter reg "a" in
        M.incr c;
        M.add c 4;
        check_int "counter" 5 (M.value c);
        let g = M.gauge reg "g" in
        M.set g 7;
        M.set_max g 3;
        check_int "gauge keeps max" 7
          (match M.Snapshot.find (M.snapshot reg) "g" with
           | Some (M.Snapshot.Gauge v) -> v
           | _ -> -1);
        (* Same name, same kind: same cell. Different kind: rejected. *)
        M.incr (M.counter reg "a");
        check_int "re-registration shares the cell" 6 (M.value c);
        check "kind mismatch rejected" true
          (match M.gauge reg "a" with
           | exception Invalid_argument _ -> true
           | _ -> false));
    Alcotest.test_case "histogram buckets" `Quick (fun () ->
        let reg = M.create () in
        let h = M.histogram reg "h" in
        List.iter (M.observe h) [ 0; 1; 1; 2; 3; 900 ];
        match M.Snapshot.find (M.snapshot reg) "h" with
        | Some (M.Snapshot.Histogram hs) ->
          check_int "count" 6 hs.M.Snapshot.count;
          check_int "sum" 907 hs.M.Snapshot.sum;
          check_int "max" 900 hs.M.Snapshot.max;
          (* v=0 -> bucket 0; v=1 -> bucket 1; v in [2,4) -> bucket 2;
             900 in [2^9, 2^10) -> bucket 10. *)
          Alcotest.(check (list (pair int int)))
            "buckets"
            [ (0, 1); (1, 2); (2, 2); (10, 1) ]
            hs.M.Snapshot.buckets
        | _ -> Alcotest.fail "histogram missing") ]

(* ------------------------------------------------------------------ *)
(* Jobs-invariance of the deterministic counter slice.                 *)

(* The replay/restored/fresh split depends on how the tree was sharded
   (workers replay their locked prefix, and restore only below it); only the
   sum is invariant. Fold it before comparing. *)
let folded_counters snap =
  let steps = ref 0 in
  let rest =
    List.filter
      (fun (name, v) ->
        if
          name = "search/steps/replay" || name = "search/steps/restored"
          || name = "search/steps/fresh"
        then begin
          steps := !steps + v;
          false
        end
        else true)
      (M.Snapshot.counters snap)
  in
  ("search/steps/systematic-total", !steps) :: rest

let assert_counters_jobs_invariant name cfg prog =
  let cfg = { cfg with Search_config.metrics = true } in
  let seq = Search.run cfg prog in
  List.iter
    (fun jobs ->
      let par = Checker.check ~config:{ cfg with Search_config.jobs } prog in
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "%s: counters j=1 vs j=%d" name jobs)
        (folded_counters seq.Report.metrics)
        (folded_counters par.Report.metrics))
    [ 2; 4 ]

let base = { Search_config.default with livelock_bound = Some 2_000 }

let determinism_tests =
  [ Alcotest.test_case "counters are jobs-invariant (verified workload)" `Quick
      (fun () ->
        assert_counters_jobs_invariant "dining-cov"
          { base with coverage = true }
          (W.Dining.coverage_program ~n:2));
    Alcotest.test_case "counters are jobs-invariant (deadlock workload)" `Quick
      (fun () ->
        assert_counters_jobs_invariant "dining-deadlock" base
          (W.Dining.program ~n:2 W.Dining.Deadlock));
    Alcotest.test_case "counters are jobs-invariant (sleep sets)" `Quick (fun () ->
        assert_counters_jobs_invariant "two-step-ss"
          { base with fair = false; sleep_sets = true }
          (W.Litmus.two_step_threads ~nthreads:2 ~steps:3));
    Alcotest.test_case "counters are jobs-invariant (ChessLang, restoring)" `Quick
      (fun () ->
        (* The VM restores states on backtrack: every counter a restored
           prefix skips is credited, so the slice matches the workers'. *)
        let prog =
          Fairmc_static.load_string
            "var x = 0; var y = 0; mutex m;\n\
             thread a { lock(m); x = x + 1; unlock(m); while (y == 0) { yield; } }\n\
             thread b { lock(m); y = x; unlock(m); }\n\
             thread c { local r = choose(2); x = x + r; }"
        in
        check "the sequential search restored states" true
          (let r = Search.run { base with metrics = true } prog in
           match M.Snapshot.find r.Report.metrics "search/steps/restored" with
           | Some (M.Snapshot.Counter n) -> n > 0
           | _ -> false);
        assert_counters_jobs_invariant "chesslang" { base with coverage = true } prog) ]

(* ------------------------------------------------------------------ *)
(* Progress callback.                                                  *)

(* A reporter that emits at every poll point into [sink]. *)
let reporter sink = Some (Fairmc_obs.Progress.create ~interval:0.0 ~sinks:[ sink ] ())

let progress_tests =
  [ Alcotest.test_case "callback fires (sequential)" `Quick (fun () ->
        let hits = Atomic.make 0 in
        let last_execs = ref (-1) in
        let cfg =
          { base with
            Search_config.progress =
              reporter (fun s ->
                  Atomic.incr hits;
                  last_execs := s.Fairmc_obs.Progress.executions) }
        in
        let r = Checker.check ~config:cfg (W.Dining.coverage_program ~n:2) in
        check "fired" true (Atomic.get hits > 0);
        check_int "final sample sees all executions" r.Report.stats.executions
          !last_execs);
    Alcotest.test_case "callback fires (parallel)" `Quick (fun () ->
        let hits = Atomic.make 0 in
        let cfg =
          { base with Search_config.jobs = 4; progress = reporter (fun _ -> Atomic.incr hits) }
        in
        let r = Checker.check ~config:cfg (W.Dining.coverage_program ~n:2) in
        check "fired" true (Atomic.get hits > 0);
        check "searched" true (r.Report.stats.executions > 0));
    Alcotest.test_case "no callback, no reporter" `Quick (fun () ->
        check "no reporter by default" true (Option.is_none Search_config.default.progress)) ]

(* ------------------------------------------------------------------ *)
(* Report JSON and trace export smoke tests.                           *)

let export_tests =
  [ Alcotest.test_case "report JSON round-trips through the parser" `Quick (fun () ->
        let cfg = { base with Search_config.metrics = true } in
        let r = Search.run cfg (W.Dining.program ~n:2 W.Dining.Deadlock) in
        let doc = Report.to_json ~program:"dining-2-deadlock" r in
        match Json.of_string (Json.to_string ~pretty:true doc) with
        | Ok doc' -> check "round-trip" true (Json.equal doc doc')
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "trace export covers the counterexample" `Quick (fun () ->
        let prog = W.Dining.program ~n:2 W.Dining.Deadlock in
        let r = Search.run base prog in
        match Trace_export.of_report prog r with
        | None -> Alcotest.fail "expected a counterexample"
        | Some doc ->
          (match doc with
           | Json.Obj fields ->
             (match List.assoc_opt "traceEvents" fields with
              | Some (Json.Arr evs) ->
                let cex = Option.get (Report.cex r) in
                let slices =
                  List.filter
                    (fun e ->
                      match e with
                      | Json.Obj f -> List.assoc_opt "ph" f = Some (Json.Str "X")
                      | _ -> false)
                    evs
                in
                check_int "one slice per step" cex.Report.length
                  (List.length slices)
              | _ -> Alcotest.fail "traceEvents missing")
           | _ -> Alcotest.fail "not an object")) ]

(* ------------------------------------------------------------------ *)
(* The parser's nesting bound and byte fuzz.                            *)

let nested d = String.make d '[' ^ String.make d ']'

let json_limit_tests =
  [ Alcotest.test_case "nesting beyond the bound is a parse error, promptly" `Quick
      (fun () ->
        check "at the bound: parses" true
          (Result.is_ok (Json.of_string (nested Json.max_depth)));
        check "one past the bound: error" true
          (Result.is_error (Json.of_string (nested (Json.max_depth + 1))));
        check "objects count too" true
          (Result.is_error
             (Json.of_string
                (String.concat "" (List.init (Json.max_depth + 1) (fun _ -> "{\"a\":"))
                 ^ "1" ^ String.make (Json.max_depth + 1) '}')));
        let t0 = Unix.gettimeofday () in
        check "100,000 deep: error" true (Result.is_error (Json.of_string (nested 100_000)));
        check "... within 0.5 s" true (Unix.gettimeofday () -. t0 < 0.5)) ]

let json_fuzz_props =
  let docs =
    [ Json.Obj
        [ ("schema", Json.Str "fairmc-report/2");
          ("stats", Json.Obj [ ("executions", Json.Int 3); ("rate", Json.Float 1.5) ]);
          ("verdict", Json.Arr [ Json.Arr [ Json.Int 0; Json.Int 1 ]; Json.Null ]) ];
      Json.Arr [ Json.Str "a\"b"; Json.Bool true; Json.Obj [] ] ]
  in
  [ QCheck.Test.make ~count:1000 ~name:"json: random and mutated text parses or fails cleanly"
      (QCheck.make ~print:String.escaped (text_gen docs))
      (decodes_cleanly Json.of_string) ]

let suite =
  json_unit_tests @ metrics_unit_tests @ determinism_tests @ progress_tests
  @ export_tests
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) (json_qprops @ metrics_qprops)
  @ json_limit_tests
  @ List.map (QCheck_alcotest.to_alcotest ~long:false) json_fuzz_props
