(* The splitmix64 finalizer, shared by every seeded hash and generator
   in the repository (see splitmix.mli). *)

let mix64 (x : int64) : int64 =
  let open Int64 in
  let x = mul (logxor x (shift_right_logical x 30)) 0xbf58476d1ce4e5b9L in
  let x = mul (logxor x (shift_right_logical x 27)) 0x94d049bb133111ebL in
  logxor x (shift_right_logical x 31)

let gamma = 0x9e3779b97f4a7c15L

let hash_str h s =
  let acc = ref h in
  String.iter (fun c -> acc := mix64 (Int64.logxor !acc (Int64.of_int (Char.code c)))) s;
  !acc
