(** Versioned NDJSON event stream of a running search.

    A search appends events to its {!buf} while it executes a path (no
    I/O on the hot path) and flushes the batch at its next path boundary,
    where the {!stream} assigns globally monotonic sequence numbers and
    writes one NDJSON line per event. Events within a batch keep their emit
    order; batches interleave in flush order. A worker process renders its
    events on a {!worker} stream of its own and ships the lines; the parent
    puts them on this stream with {!relay}, which assigns their sequence
    numbers here. A process has one domain, so nothing here locks.

    Envelope, schema [fairmc-events/1]:

    {v {"schema":"fairmc-events/1","seq":N,"ts_us":N,"shard":N,
    "det":BOOL,"kind":STR,"data":OBJ} v}

    [seq] is the global emission index (0-based, gap-free), [ts_us]
    microseconds since the stream was created (its {!worker} streams share
    that epoch, so a worker's events keep the time they happened at),
    [shard] the emitting worker
    (-1 for the coordinator). [det] classifies the payload: a [det] event's
    [(kind, data)] pair is jobs-invariant — an error-free systematic search
    emits exactly the same multiset of deterministic [(kind, data)] pairs
    for every [jobs] value, only [seq]/[ts_us]/[shard] and the advisory
    events (spans, progress, worker/checkpoint lifecycle) differ.

    The det slice of a plain stream is [run_start], [error] (when the
    search finds one) and [run_end], whose [path_digest] stands for the
    explored paths: the order-free sum of a hash of each path's end, step
    count and schedule ([Report.stats] in lib/core). A stream behind the
    span gate ({!spans}: one that collects) also carries one det ["path"]
    event per execution, [{"end": STR, "steps": N, "schedule": HEX}],
    its schedule hash as 16 hex digits as [run_end]'s digest is (an int up
    to 2^62 would lose bits in a reader that parses numbers as doubles); a
    plain stream does not, so a job's event volume grows with its work
    items, not its executions. See DESIGN.md, "Telemetry". *)

val schema : string
(** ["fairmc-events/1"]. *)

type event = {
  seq : int;
  ts_us : int;
  shard : int;
  det : bool;
  kind : string;
  data : Fairmc_util.Json.t;
}

type stream
type buf

val create :
  ?write:(string -> unit) -> ?chunked:bool -> ?collect:bool -> unit -> stream
(** [write] receives one NDJSON line (no trailing newline) per event, called
    in sequence order. With [~chunked:true] it receives chunks instead: runs
    of complete lines, each ending in a newline, handed over once the run
    reaches {!chunk_cap} bytes, and by {!sync}, which the stream's owner
    calls before it waits. [collect] additionally keeps every event in
    memory for {!collected} (tests, span trace export) and turns on the
    per-path span events ({!spans}). Omitting both yields a stream that
    discards events. *)

val chunk_cap : int
(** 64 KiB: a chunked stream hands over a run once it is this long. *)

val worker : stream -> write:(string -> unit) -> stream
(** The stream a worker process records one work item on, for [parent]:
    the same epoch (so [ts_us] agrees across the processes) and the same
    span gate, one line per [write], never collecting. The parent puts the
    lines on its own stream with {!relay}. *)

val origin : stream -> float
(** The stream's epoch ({!Clock.now} at creation); [ts_us] is relative to
    it. *)

val spans : stream -> bool
(** Whether the search emits per-path events on this stream — its ["path"]
    event and its span events (prefix [replay], [fresh] execution,
    [analysis]): only when it collects ([create ~collect:true]: the span
    trace export, tests), or is the {!worker} stream of one that does. A
    plain streaming sink pays for no per-path event; coarse spans
    (checkpoint saves) are always emitted. *)

val buffer : stream -> shard:int -> buf
(** A batch buffer whose events carry [shard]. *)

val emit : buf -> ?det:bool -> kind:string -> Fairmc_util.Json.t -> unit
(** Append to the local batch ([det] defaults to [false]); timestamps are
    taken now, sequence numbers at flush. *)

val flush : buf -> unit
(** Publish the batch: assign sequence numbers, write the lines. No-op on
    an empty batch. *)

val post : stream -> shard:int -> ?det:bool -> kind:string -> Fairmc_util.Json.t -> unit
(** Emit and flush a single event (coordinator lifecycle events). *)

val relayable : string -> bool
(** Whether a line starts like one a stream renders, up to and including
    its sequence number: what {!relay} needs. *)

val relay : stream -> string list -> unit
(** Put lines a {!worker} stream rendered on this stream, in order: each
    gets the next sequence number here and keeps the rest
    of its envelope ([ts_us], [shard]) and its payload as rendered. No
    [Json.t] is built unless the stream collects. Raises
    [Invalid_argument] on a line that is not {!relayable}. *)

val sync : stream -> unit
(** Hand a chunked stream's pending lines to its writer now; a no-op for
    other streams. *)

val collected : stream -> event list
(** Every flushed event in sequence order; [[]] unless [collect] was set. *)

val to_json : event -> Fairmc_util.Json.t
val line : event -> string
(** One NDJSON line (no newline). *)

val of_json : Fairmc_util.Json.t -> (event, string) result
(** Parse an envelope back; rejects unknown schemas and missing fields. *)

val of_line : string -> (event, string) result
