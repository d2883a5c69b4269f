type t = { seed : int }

let create seed = { seed }

let seed c = c.seed

(* Stable 62-bit string hash (FNV-1a folded through the SplitMix mixer);
   Hashtbl.hash only keeps 30 bits and is version-dependent, so roll our
   own to keep runs reproducible across OCaml releases. *)
let string_key label =
  let h = ref 0x3bf29ce484222325 in
  String.iter (fun c -> h := (!h lxor Char.code c) * 0x100000001b3) label;
  Stdx.Hashing.mix64 (!h land max_int)

let global c label = Stdx.Prng.split_seed c.seed (string_key label)
let keyed c label i = Stdx.Prng.split_seed c.seed (string_key label lxor Stdx.Hashing.mix64 (i + 1))

let derive c label i =
  { seed = Stdx.Hashing.mix64 (c.seed lxor string_key label lxor Stdx.Hashing.mix64 (i + 0x51)) }
