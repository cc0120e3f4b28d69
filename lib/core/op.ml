type obj = int

type t =
  | Lock of obj
  | Try_lock of obj
  | Timed_lock of obj
  | Unlock of obj
  | Sem_wait of obj
  | Sem_try_wait of obj
  | Sem_timed_wait of obj
  | Sem_post of obj
  | Ev_wait of obj
  | Ev_timed_wait of obj
  | Ev_set of obj
  | Ev_reset of obj
  | Var_read of obj
  | Var_write of obj
  | Var_rmw of obj
  | Yield
  | Sleep
  | Join of int
  | Spawn
  | Choose of int

let obj_of = function
  | Lock o | Try_lock o | Timed_lock o | Unlock o
  | Sem_wait o | Sem_try_wait o | Sem_timed_wait o | Sem_post o
  | Ev_wait o | Ev_timed_wait o | Ev_set o | Ev_reset o
  | Var_read o | Var_write o | Var_rmw o -> Some o
  | Yield | Sleep | Join _ | Spawn | Choose _ -> None

let equal a b =
  match (a, b) with
  | Lock x, Lock y
  | Try_lock x, Try_lock y
  | Timed_lock x, Timed_lock y
  | Unlock x, Unlock y
  | Sem_wait x, Sem_wait y
  | Sem_try_wait x, Sem_try_wait y
  | Sem_timed_wait x, Sem_timed_wait y
  | Sem_post x, Sem_post y
  | Ev_wait x, Ev_wait y
  | Ev_timed_wait x, Ev_timed_wait y
  | Ev_set x, Ev_set y
  | Ev_reset x, Ev_reset y
  | Var_read x, Var_read y
  | Var_write x, Var_write y
  | Var_rmw x, Var_rmw y
  | Join x, Join y
  | Choose x, Choose y -> Int.equal x y
  | Yield, Yield | Sleep, Sleep | Spawn, Spawn -> true
  | _ -> false

let alternatives = function Choose n -> n | _ -> 1

let pp ppf = function
  | Lock o -> Format.fprintf ppf "lock(#%d)" o
  | Try_lock o -> Format.fprintf ppf "trylock(#%d)" o
  | Timed_lock o -> Format.fprintf ppf "timedlock(#%d)" o
  | Unlock o -> Format.fprintf ppf "unlock(#%d)" o
  | Sem_wait o -> Format.fprintf ppf "sem_wait(#%d)" o
  | Sem_try_wait o -> Format.fprintf ppf "sem_trywait(#%d)" o
  | Sem_timed_wait o -> Format.fprintf ppf "sem_timedwait(#%d)" o
  | Sem_post o -> Format.fprintf ppf "sem_post(#%d)" o
  | Ev_wait o -> Format.fprintf ppf "ev_wait(#%d)" o
  | Ev_timed_wait o -> Format.fprintf ppf "ev_timedwait(#%d)" o
  | Ev_set o -> Format.fprintf ppf "ev_set(#%d)" o
  | Ev_reset o -> Format.fprintf ppf "ev_reset(#%d)" o
  | Var_read o -> Format.fprintf ppf "read(#%d)" o
  | Var_write o -> Format.fprintf ppf "write(#%d)" o
  | Var_rmw o -> Format.fprintf ppf "rmw(#%d)" o
  | Yield -> Format.fprintf ppf "yield"
  | Sleep -> Format.fprintf ppf "sleep"
  | Join t -> Format.fprintf ppf "join(t%d)" t
  | Spawn -> Format.fprintf ppf "spawn"
  | Choose n -> Format.fprintf ppf "choose(%d)" n

let to_string op = Format.asprintf "%a" pp op

let kind_index = function
  | Lock _ -> 0
  | Try_lock _ -> 1
  | Timed_lock _ -> 2
  | Unlock _ -> 3
  | Sem_wait _ -> 4
  | Sem_try_wait _ -> 5
  | Sem_timed_wait _ -> 6
  | Sem_post _ -> 7
  | Ev_wait _ -> 8
  | Ev_timed_wait _ -> 9
  | Ev_set _ -> 10
  | Ev_reset _ -> 11
  | Var_read _ -> 12
  | Var_write _ -> 13
  | Var_rmw _ -> 14
  | Yield -> 15
  | Sleep -> 16
  | Join _ -> 17
  | Spawn -> 18
  | Choose _ -> 19

let kind_names =
  [| "lock"; "trylock"; "timedlock"; "unlock"; "sem_wait"; "sem_trywait";
     "sem_timedwait"; "sem_post"; "ev_wait"; "ev_timedwait"; "ev_set"; "ev_reset";
     "var_read"; "var_write"; "var_rmw"; "yield"; "sleep"; "join"; "spawn"; "choose" |]

let n_kinds = Array.length kind_names

let kind_name i =
  if i < 0 || i >= n_kinds then invalid_arg "Op.kind_name";
  kind_names.(i)

(* Wire form (worker IPC, race reports): obj-carrying operations are
   ["<kind>", obj]; [Join]/[Choose] carry their tid/arity the same way;
   the nullary ones are bare kind strings. *)

module Json = Fairmc_util.Json

let to_json op =
  match obj_of op with
  | Some o -> Json.Arr [ Json.Str (kind_name (kind_index op)); Json.Int o ]
  | None ->
    (match op with
     | Join t -> Json.Arr [ Json.Str "join"; Json.Int t ]
     | Choose n -> Json.Arr [ Json.Str "choose"; Json.Int n ]
     | op -> Json.Str (kind_name (kind_index op)))

let of_kind_obj k o =
  match k with
  | "lock" -> Some (Lock o)
  | "trylock" -> Some (Try_lock o)
  | "timedlock" -> Some (Timed_lock o)
  | "unlock" -> Some (Unlock o)
  | "sem_wait" -> Some (Sem_wait o)
  | "sem_trywait" -> Some (Sem_try_wait o)
  | "sem_timedwait" -> Some (Sem_timed_wait o)
  | "sem_post" -> Some (Sem_post o)
  | "ev_wait" -> Some (Ev_wait o)
  | "ev_timedwait" -> Some (Ev_timed_wait o)
  | "ev_set" -> Some (Ev_set o)
  | "ev_reset" -> Some (Ev_reset o)
  | "var_read" -> Some (Var_read o)
  | "var_write" -> Some (Var_write o)
  | "var_rmw" -> Some (Var_rmw o)
  | "join" -> Some (Join o)
  | "choose" -> Some (Choose o)
  | _ -> None

let of_json j =
  let bad () = Error "malformed op" in
  match j with
  | Json.Str "yield" -> Ok Yield
  | Json.Str "sleep" -> Ok Sleep
  | Json.Str "spawn" -> Ok Spawn
  | Json.Arr [ Json.Str k; Json.Int o ] ->
    (match of_kind_obj k o with Some op -> Ok op | None -> bad ())
  | _ -> bad ()
