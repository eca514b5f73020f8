(* Generic hash-consing (interning) in the style of Filliâtre &
   Conchon's "Type-safe modular hash-consing": every structurally
   distinct term is stored once, with a unique integer id, so that
   structural equality of interned terms degenerates to pointer
   equality and the ids can key O(1) memo tables. Interned predicate
   ids key the implication-verdict cache and the memo's join and filter
   keys; the compliance-verdict cache hashes whole summaries instead
   (see [Summary.hash]).

   Ids are monotonically increasing and never reused, even across
   [clear]: a stale id held by some cache can then never alias a
   different term interned later. *)

type stats = { mutable hits : int; mutable misses : int }

module type HashedType = sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
end

module type S = sig
  type elt

  (* The canonical representative of a term together with its id. *)
  type node = { node : elt; id : int }

  val intern : elt -> node
  (** Canonical node for [x]; physically the same node for all
      structurally equal arguments. *)

  val hits : unit -> int
  val misses : unit -> int
  val size : unit -> int
  val reset_counters : unit -> unit

  val clear : unit -> unit
  (** Drop the table (counters included). Terms interned before the
      clear keep their ids but are no longer canonical: mixing them
      with freshly interned terms breaks pointer-equality, so only
      clear when no interned terms are retained. *)
end

module Make (H : HashedType) : S with type elt = H.t = struct
  type elt = H.t
  type node = { node : elt; id : int }

  module T = Hashtbl.Make (H)

  let table : node T.t = T.create 256
  let st = { hits = 0; misses = 0 }
  let next = ref 0

  let intern x =
    match T.find_opt table x with
    | Some n ->
      st.hits <- st.hits + 1;
      n
    | None ->
      st.misses <- st.misses + 1;
      let n = { node = x; id = !next } in
      incr next;
      T.add table x n;
      n

  let hits () = st.hits
  let misses () = st.misses
  let size () = T.length table

  let reset_counters () =
    st.hits <- 0;
    st.misses <- 0

  let clear () =
    T.reset table;
    reset_counters ()
end
