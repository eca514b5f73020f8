(** The splitmix64 finalizer: a pure, high-quality 64-bit mixing
    function. Transient-drop fates ({!Catalog.Network.Fault}), policy
    fingerprints ([Policy.Pcatalog]), plan-cache keys ([Plan_cache]) and
    the seeded generator ([Storage.Prng]) all mix through this one
    copy, so each is a function of its inputs alone and replays
    bit-for-bit. *)

val mix64 : int64 -> int64

val gamma : int64
(** [0x9e3779b97f4a7c15], the golden-ratio increment of the splitmix64
    generator. *)

val hash_str : int64 -> string -> int64
(** [hash_str h s] folds the bytes of [s] into [h], one {!mix64} per
    byte. *)
