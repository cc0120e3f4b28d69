type _ Effect.t += Sched : Op.t -> int Effect.t

exception Assertion_failure of string

type ctx = {
  mutable store : Objects.t option;
  mutable in_thread : bool;
  mutable current_tid : int;
  mutable spawn_body : (unit -> unit) option;
  mutable spawn_result : int;
  mutable snapshotters : (Fairmc_util.Fnv.t -> Fairmc_util.Fnv.t) list;
  regions : (int, int) Hashtbl.t;
  mutable take : (Op.t -> int) option;
}

let fresh () =
  { store = None;
    in_thread = false;
    current_tid = -1;
    spawn_body = None;
    spawn_result = -1;
    snapshotters = [];
    regions = Hashtbl.create 16;
    take = None }

(* One context per process: exactly one of {engine, one thread} executes at
   any instant. *)
let ctx = fresh ()

let get_store () =
  match ctx.store with
  | Some s -> s
  | None -> failwith "Sync operation outside of a model-checked execution"

let reset s =
  ctx.store <- Some s;
  ctx.in_thread <- false;
  ctx.current_tid <- -1;
  ctx.spawn_body <- None;
  ctx.spawn_result <- -1;
  ctx.snapshotters <- [];
  Hashtbl.reset ctx.regions;
  ctx.take <- None;
  ctx
