module Graph = Dgraph.Graph

type view = { n : int; vertex : int; neighbors : int array }

let view g v = { n = Graph.n g; vertex = v; neighbors = Graph.neighbors g v }
let views g = Array.init (Graph.n g) (view g)

type ('v, 'a) protocol_over = {
  name : string;
  player : 'v -> Public_coins.t -> Stdx.Bitbuf.Writer.t;
  referee : n:int -> sketches:Stdx.Bitbuf.Reader.t array -> Public_coins.t -> 'a;
}

type 'a protocol = (view, 'a) protocol_over

let success_rate ~trials ~seed experiment =
  if trials <= 0 then invalid_arg "Model.success_rate";
  let successes = ref 0 in
  for trial = 0 to trials - 1 do
    let coins = Public_coins.create (Stdx.Hashing.mix64 (seed + (trial * 7919))) in
    if experiment coins then incr successes
  done;
  float_of_int !successes /. float_of_int trials
