(* Unit and property tests for the utility layer: bitsets (checked against a
   sorted-list model), the splitmix RNG, and FNV hashing. *)

module B = Fairmc_util.Bitset
module Rng = Fairmc_util.Rng
module Fnv = Fairmc_util.Fnv

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let elt = QCheck.Gen.int_bound (B.max_capacity - 1)
let set_gen = QCheck.Gen.(map B.of_list (list_size (int_bound 12) elt))
let set_arb = QCheck.make ~print:(fun s -> Format.asprintf "%a" B.pp s) set_gen
let pair_arb = QCheck.pair set_arb set_arb

let model s = B.elements s

let qprops =
  [ QCheck.Test.make ~name:"bitset union = list union" pair_arb (fun (a, b) ->
        model (B.union a b)
        = List.sort_uniq compare (model a @ model b));
    QCheck.Test.make ~name:"bitset inter = list inter" pair_arb (fun (a, b) ->
        model (B.inter a b) = List.filter (fun x -> B.mem x b) (model a));
    QCheck.Test.make ~name:"bitset diff = list diff" pair_arb (fun (a, b) ->
        model (B.diff a b) = List.filter (fun x -> not (B.mem x b)) (model a));
    QCheck.Test.make ~name:"add then mem" (QCheck.pair set_arb (QCheck.make elt))
      (fun (s, x) -> B.mem x (B.add x s));
    QCheck.Test.make ~name:"remove then not mem" (QCheck.pair set_arb (QCheck.make elt))
      (fun (s, x) -> not (B.mem x (B.remove x s)));
    QCheck.Test.make ~name:"cardinal = length of elements" set_arb (fun s ->
        B.cardinal s = List.length (model s));
    QCheck.Test.make ~name:"subset iff diff empty" pair_arb (fun (a, b) ->
        B.subset a b = B.is_empty (B.diff a b));
    QCheck.Test.make ~name:"nth enumerates in order" set_arb (fun s ->
        List.mapi (fun i _ -> B.nth s i) (model s) = model s);
    QCheck.Test.make ~name:"fold visits each element once" set_arb (fun s ->
        B.fold (fun _ acc -> acc + 1) s 0 = B.cardinal s) ]

let unit_tests =
  [ Alcotest.test_case "empty and full" `Quick (fun () ->
        check "empty is empty" true (B.is_empty B.empty);
        check_int "full 5 cardinal" 5 (B.cardinal (B.full 5));
        check "full 0 = empty" true (B.equal (B.full 0) B.empty);
        check "mem in full" true (B.mem 4 (B.full 5));
        check "not mem outside full" false (B.mem 5 (B.full 5)));
    Alcotest.test_case "min_elt and choose" `Quick (fun () ->
        check_int "min of {3,7}" 3 (B.min_elt (B.of_list [ 7; 3 ]));
        check "choose empty" true (B.choose B.empty = None);
        Alcotest.check_raises "min_elt empty" Not_found (fun () ->
            ignore (B.min_elt B.empty)));
    Alcotest.test_case "out-of-range elements rejected" `Quick (fun () ->
        (try
           ignore (B.add (B.max_capacity + 1) B.empty);
           Alcotest.fail "expected Invalid_argument"
         with Invalid_argument _ -> ());
        try
          ignore (B.singleton (-1));
          Alcotest.fail "expected Invalid_argument"
        with Invalid_argument _ -> ());
    Alcotest.test_case "rng determinism" `Quick (fun () ->
        let a = Rng.make 42L and b = Rng.make 42L in
        for _ = 1 to 100 do
          check "same stream" true (Rng.next_int64 a = Rng.next_int64 b)
        done);
    Alcotest.test_case "rng bounds" `Quick (fun () ->
        let r = Rng.make 7L in
        for _ = 1 to 1000 do
          let v = Rng.int r 17 in
          check "in range" true (v >= 0 && v < 17)
        done;
        Alcotest.check_raises "nonpositive bound" (Invalid_argument "Rng.int")
          (fun () -> ignore (Rng.int r 0)));
    Alcotest.test_case "rng mix keys one generator per index" `Quick (fun () ->
        (* The search seeds execution i with [mix seed i]: the same key every
           time, a different key for every index. *)
        check "deterministic" true (Rng.mix 7L 3 = Rng.mix 7L 3);
        let keys = List.init 1000 (Rng.mix 7L) in
        check "distinct" true (List.length (List.sort_uniq compare keys) = 1000);
        check "the seed matters" true (Rng.mix 7L 0 <> Rng.mix 8L 0));
    Alcotest.test_case "fnv basics" `Quick (fun () ->
        check "string hash differs" true (Fnv.string Fnv.init "a" <> Fnv.string Fnv.init "b");
        check "int order matters" true
          (Fnv.int_list Fnv.init [ 1; 2 ] <> Fnv.int_list Fnv.init [ 2; 1 ]);
        check "negative ints hash distinctly" true (Fnv.int Fnv.init (-1) <> Fnv.int Fnv.init 1);
        check_int "hex width" 16 (String.length (Fnv.to_hex (Fnv.string Fnv.init "x"))));
    Alcotest.test_case "fnv stable across calls" `Quick (fun () ->
        check "deterministic" true
          (Fnv.string (Fnv.int Fnv.init 3) "abc" = Fnv.string (Fnv.int Fnv.init 3) "abc")) ]

let suite = unit_tests @ List.map (QCheck_alcotest.to_alcotest ~long:false) qprops
