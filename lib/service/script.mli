(** The workload-script format driven by [cgqp serve] — a line-based
    DSL (one statement per line, [#] comments) describing tenants,
    sessions and the statements each session submits:

    {v
    seed 7
    tenant analytics max-inflight 2 ship-budget 500000 window 1000 on-deny queue
    open s1 tenant analytics policies CR
    submit s1 Q3
    policy s1 ship custkey, name from customer to Europe
    submit s1 SELECT ...
    clear-policies s1
    wait s1 250
    close s1
    v}

    Statements: [seed N] · [tenant NAME (max-inflight N | ship-budget
    BYTES | window MS | on-deny reject|queue)*] · [open SID (tenant
    NAME)? (policies SET)?] · [submit SID SQL] · [policy SID TEXT] ·
    [set-policies SID SET] · [clear-policies SID] · [mode SID
    compliant|traditional] · [wait SID MS] · [close SID].

    Sessions without an explicit tenant belong to a tenant named after
    the session; tenants without a [tenant] line run {!Admission.unlimited}.
    [SET] names (e.g. the built-in TPC-H policy sets) and [Qn] query
    names are resolved by the scheduler's environment, not here. The
    full grammar is documented in [docs/SERVICE.md]. *)

type action =
  | Submit of string  (** SQL text, or a name the environment resolves *)
  | Add_policy of string  (** one policy expression, appended *)
  | Set_policy_set of string  (** replace policies with a named set *)
  | Clear_policies
  | Set_mode of Optimizer.Memo.mode
  | Wait of float  (** advance the session's clock by [ms] *)

type session_spec = {
  sid : string;
  tenant : string;
  actions : action list;  (** executed in order, interleaved across sessions *)
}

type t = {
  seed : int option;  (** [seed N] statement, if any *)
  tenants : (string * Admission.quota) list;
  sessions : session_spec list;  (** in [open] order *)
}

val zipf_workload :
  ?skew:float ->
  sessions:int ->
  statements:int ->
  universe:int ->
  make_statement:(int -> string) ->
  seed:int ->
  unit ->
  t
(** Generate a skewed point-lookup workload: [statements] submissions
    spread round-robin over [sessions] sessions, each statement's
    parameter drawn from a Zipf distribution over [0, universe) with
    exponent [skew] (default 1.1 — rank-1 dominates, a long tail of
    cold values). [make_statement v] renders the SQL for parameter [v];
    with a template-friendly shape (a single equality literal) the hot
    ranks collapse onto one cached template plan, which is what [bench
    feedback] measures. Sampling is CDF inversion over a splitmix64
    stream seeded from [seed], so the script — including its embedded
    [seed] statement — is a pure function of the arguments. Raises
    [Invalid_argument] on non-positive [sessions], [statements],
    [universe] or [skew]. *)

val parse : string -> (t, string) result
(** Parse script text; [Error msg] carries the offending line number. *)

val parse_file : string -> (t, string) result

val to_string : t -> string
(** Render in the {!parse} grammar (round-trips structurally; the
    [open ... policies SET] sugar is emitted as a [set-policies]
    statement). *)

val pp : Format.formatter -> t -> unit
