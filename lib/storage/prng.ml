(* Deterministic splitmix64 pseudo-random generator. All data and
   workload generation in the repository goes through this module so
   that every experiment is reproducible from a seed. *)

type t = { mutable state : int64 }

let create ~seed = { state = Int64.of_int seed }

let next_int64 t =
  t.state <- Int64.add t.state Relalg.Splitmix.gamma;
  Relalg.Splitmix.mix64 t.state

(* Uniform int in [0, bound). The top two bits are discarded so the
   value fits OCaml's 63-bit native int without going negative. *)
let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let r = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  r mod bound

(* Uniform int in [lo, hi] inclusive. *)
let range t lo hi =
  if hi < lo then invalid_arg "Prng.range: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  let r = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  r /. 9007199254740992.0 *. bound (* 2^53 *)

let bool t = int t 2 = 0

let pick t xs =
  match xs with
  | [] -> invalid_arg "Prng.pick: empty list"
  | _ -> List.nth xs (int t (List.length xs))

(* Pick [k] distinct elements (k <= length). *)
let pick_k t k xs =
  let n = List.length xs in
  if k > n then invalid_arg "Prng.pick_k: not enough elements";
  let arr = Array.of_list xs in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done;
  Array.to_list (Array.sub arr 0 k)

let shuffle t xs = pick_k t (List.length xs) xs

(* Split off an independent generator (for parallel streams). *)
let split t = { state = next_int64 t }
