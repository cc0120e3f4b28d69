type machine = { nthreads : int; run : int -> int -> Op.t option }

type booted = {
  threads : (unit -> unit) list;
  machine : machine option;
  snapshot : (unit -> Fairmc_util.Fnv.t) option;
  capture : (unit -> unit -> unit) option;
}

type t = { name : string; boot : unit -> booted; facts : Static_facts.t option }

let make ~name ?facts boot = { name; boot; facts }

let of_threads ~name ?snapshot boot =
  { name;
    boot = (fun () -> { threads = boot (); machine = None; snapshot; capture = None });
    facts = None }

let with_facts t facts = { t with facts = Some facts }
