(** Fair stateless model checking — core library.

    An OCaml reproduction of the CHESS fair scheduler (Musuvathi & Qadeer,
    "Fair Stateless Model Checking", PLDI 2008). See {!Checker} for the
    entry point, {!Sync} for the API programs under test use, and
    {!Fair_sched} for the paper's Algorithm 1. *)

module Op = Op
module Objects = Objects
module Runtime = Runtime
module Sync = Sync
module Sync_extras = Sync_extras
module Static_facts = Static_facts
module Program = Program
module Engine = Engine
module Trace = Trace
module Fair_sched = Fair_sched
module Analysis_hook = Analysis_hook
module Search_config = Search_config
module Checkpoint = Checkpoint
module Tally = Tally
module Search = Search
module Worker = Worker
module Supervisor = Supervisor
module Report = Report
module Trace_export = Trace_export
module Checker = Checker
module Repro = Repro
module Indep = Indep
