(** Observability: structured tracing, metrics, and their JSON codec.

    This library is the telemetry backbone of the system. It is
    deliberately dependency-free (stdlib only) so that every other
    layer — optimizer, policy evaluator, executor, CLI, bench — can
    emit events and counters without introducing cycles.

    Three sub-modules:

    - {!Json}: a minimal JSON value type with a printer and parser,
      sufficient for the trace/metrics export formats (round-trips its
      own output; not a general-purpose JSON library).
    - {!Trace}: a typed event tracer — spans and instants with
      attributes, buffered in a bounded ring. {b Off by default}; when
      disabled every emission is a single flag test, so instrumented
      hot paths stay at their un-instrumented speed and produce
      byte-identical results (locked in by [test/test_obs.ml]'s
      differential tests).
    - {!Metrics}: a global registry of monotonic counters, histograms
      and sampled gauges with Prometheus-style labels. Always on
      (increments are a few nanoseconds); rendered as text or dumped
      as JSON.

    Both {!Trace} and {!Metrics} are plain global state: a process runs
    the library on one domain. The event schema and metric naming
    convention are in [docs/TRACING.md]. *)

(** Minimal JSON values, printer and parser. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Num of float
    | Str of string
    | Arr of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact rendering. Integral [Num]s print without a decimal
      point; strings are escaped per RFC 8259 (double-quote,
      backslash, control characters). *)

  val of_string : string -> (t, string) result
  (** Parse a single JSON value; [Error msg] carries the byte offset
      of the failure. Accepts everything {!to_string} emits. *)

  val member : string -> t -> t option
  (** Field lookup in an [Obj]; [None] on anything else. *)
end

(** Typed event tracing: spans + instants in a bounded ring buffer. *)
module Trace : sig
  type kind =
    | Begin  (** span start *)
    | End  (** span end (matches the most recent unmatched [Begin]) *)
    | Instant  (** point event *)

  type event = {
    seq : int;  (** emission index since {!enable} or {!clear} *)
    ts_ms : float;  (** milliseconds since {!enable} (see {!set_clock}) *)
    kind : kind;
    name : string;  (** dotted event name, e.g. ["memo.explore"] *)
    depth : int;  (** span-nesting depth at emission *)
    attrs : (string * Json.t) list;  (** event attributes *)
  }

  val enabled : unit -> bool
  (** Whether events are being recorded. Instrumentation sites guard
      attribute construction on this, so a disabled tracer costs one
      load per site. *)

  val enable : ?capacity:int -> unit -> unit
  (** Start recording into a fresh ring of [capacity] events (default
      65536). When the ring is full the {e oldest} events are dropped
      and {!dropped} counts them. *)

  val disable : unit -> unit
  (** Stop recording. Buffered events remain readable. *)

  val clear : unit -> unit
  (** Drop all buffered events and reset [seq], depth and the drop
      counter (recording state is unchanged). Call outside any span. *)

  val set_clock : (unit -> float) -> unit
  (** Replace the timestamp source (milliseconds, monotone). The
      default is [Sys.time () *. 1000.] — process CPU time, which
      keeps this library dependency-free; a caller with [unix] linked
      can install a wall clock. Tests install a deterministic
      counter. *)

  val now_ms : unit -> float
  (** Read the current clock (independent of {!enabled}). *)

  val instant : string -> (string * Json.t) list -> unit
  (** Emit a point event. No-op when disabled. *)

  val span : string -> ?attrs:(string * Json.t) list -> (unit -> 'a) -> 'a
  (** [span name f] runs [f ()] bracketed by a [Begin]/[End] pair;
      the [End] carries a ["dur_ms"] attribute (and ["error"] if [f]
      raised — the exception is re-raised). When disabled this is
      exactly [f ()]. *)

  val events : unit -> event list
  (** Buffered events, oldest first (ascending [seq]). *)

  val dropped : unit -> int
  (** Events evicted from the ring since the last {!clear}. *)

  val event_to_json : event -> Json.t
  val event_of_json : Json.t -> (event, string) result
  (** Inverse of {!event_to_json}. Unknown fields are ignored, so lines
      that still carry the retired ["dom"] field decode too. *)

  val to_jsonl : unit -> string
  (** All buffered events, one JSON object per line (the [--trace]
      export format). *)

  val write_jsonl : out_channel -> unit

  val pp_event : Format.formatter -> event -> unit
  (** One-line human-readable rendering. *)
end

(** Global metrics registry: counters, histograms, gauges.

    Instruments are registered (get-or-create) under a name plus an
    optional label set, following the naming convention documented in
    [docs/TRACING.md]: [cgqp_<subsystem>_<quantity>[_<unit>]], with
    [_total] suffix for monotonic counters. *)
module Metrics : sig
  type counter
  type histogram

  val counter : ?labels:(string * string) list -> string -> counter
  (** Get-or-create the monotonic counter registered under
      [name]/[labels] (label order is irrelevant). Raises
      [Invalid_argument] if [name]/[labels] is already registered as a
      different instrument kind. *)

  val inc : ?by:int -> counter -> unit
  (** Add [by] (default 1) to the counter. *)

  val value : counter -> int

  val histogram :
    ?labels:(string * string) list -> ?buckets:float list -> string -> histogram
  (** Get-or-create a histogram. [buckets] are inclusive upper bounds
      of the counting buckets (an implicit [+inf] bucket is always
      appended); the default is a decade ladder from [0.001] to
      [10000] suited to millisecond latencies. Bucket bounds are fixed
      at first registration. *)

  val observe : histogram -> float -> unit
  (** Record one observation. *)

  val hist_count : histogram -> int
  (** Number of observations. *)

  val hist_sum : histogram -> float
  (** Sum of all observed values. *)

  val gauge : ?labels:(string * string) list -> string -> (unit -> float) -> unit
  (** Register (or replace) a sampled gauge: the callback is invoked
      at {!dump}/{!render} time. Used to expose externally-owned
      state, e.g. the intern-pool sizes and hit counts. *)

  val reset : unit -> unit
  (** Zero every counter and histogram (registrations and gauge
      callbacks are kept). Intended for tests and bench isolation. *)

  val dump : unit -> Json.t
  (** The whole registry as one JSON object
      [{"counters": [...]; "histograms": [...]; "gauges": [...]}],
      instruments sorted by name then labels — the [--metrics] /
      [CGQP_METRICS_OUT] export format. *)

  val render : Format.formatter -> unit -> unit
  (** Human-readable table of every instrument with a nonzero value
      (and all gauges). *)
end
