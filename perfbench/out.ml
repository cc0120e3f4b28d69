(* What one workload process hands to run.py: named sample lists with
   their units, the operations attempted and failed, and why each failed
   operation failed. run.py turns sample lists into medians, spreads and
   tail percentiles, so every timing here stays a raw sample. *)

module J = Fairmc_util.Json

type metric = { name : string; unit : string; latency : bool; samples : float list }

let metrics : metric list ref = ref []
let attempted = ref 0
let failed = ref 0
let problems : string list ref = ref []

let add ?(latency = false) name unit samples =
  metrics := { name; unit; latency; samples } :: !metrics

let value name unit v = add name unit [ v ]

(* One operation (a check or a job) with the problems found in it; any
   problem fails the operation. *)
let operation = function
  | [] -> incr attempted
  | ps ->
    incr attempted;
    incr failed;
    problems := List.rev_append ps !problems

let print () =
  let metric m =
    J.Obj
      [ ("name", J.Str m.name);
        ("unit", J.Str m.unit);
        ("latency", J.Bool m.latency);
        ("samples", J.Arr (List.map (fun x -> J.Float x) m.samples)) ]
  in
  print_endline
    (J.to_string
       (J.Obj
          [ ("ocaml", J.Str Sys.ocaml_version);
            ("attempted", J.Int !attempted);
            ("failed", J.Int !failed);
            ("problems", J.Arr (List.rev_map (fun p -> J.Str p) !problems));
            ("metrics", J.Arr (List.rev_map metric !metrics)) ]))
