(** Span-based tracing of the search's own phases.

    A span is a timed segment of checker work — replaying a decision prefix,
    executing fresh decisions, saving a checkpoint, running analysis
    observers. Recording one feeds two sinks at
    once: a per-phase latency histogram ([span/<phase>/us]) in the shard's
    metrics registry, merged across shards by the ordinary snapshot algebra,
    and an advisory ["span"] event in the telemetry stream
    ({!Events}), from which {!to_trace} renders the whole search as a
    Perfetto-loadable trace (one track per shard, one slice per span).

    Durations are wall time, so spans are advisory by construction: they
    never carry the [det] flag and never feed the jobs-determinism
    guarantee. *)

type t
(** An open span (a captured start time). *)

val start : unit -> t

val elapsed_us : t -> int

val elapsed_us_between : t -> t -> int
(** [elapsed_us_between a b] is the µs from [a]'s start to [b]'s start —
    lets a caller timing several sub-spans of one segment read the clock
    once ([start]) and derive every duration from it. *)

val record :
  ?hist:Metrics.histogram ->
  ?events:Events.buf ->
  phase:string ->
  dur_us:int ->
  unit ->
  unit
(** Feed a measured duration to whichever sinks exist: observe [hist] and
    emit an advisory ["span"] event with data
    [{"phase": ..., "dur_us": ...}] (its slice start is the envelope
    timestamp minus [dur_us]). Zero-cost when both sinks are [None]. *)

val finish :
  ?hist:Metrics.histogram -> ?events:Events.buf -> phase:string -> t -> int
(** [record] the span's elapsed time; returns the duration in µs. *)

val time : (unit -> 'a) -> 'a * int
(** Run a thunk and measure it: [(result, dur_us)]. *)

val hist_name : string -> string
(** [hist_name phase] is ["span/<phase>/us"]. *)

val to_trace : Events.event list -> Fairmc_util.Json.t
(** Render the ["span"] events of a collected stream as a Chrome
    trace_event document (load in ui.perfetto.dev): one track per shard
    (track -1 is the coordinator), one complete slice per span, named by
    phase. Non-span events are ignored. *)
