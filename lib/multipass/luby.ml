module Model = Sketchmodel.Model
module Rounds = Sketchmodel.Rounds
module Public_coins = Sketchmodel.Public_coins
module Writer = Stdx.Bitbuf.Writer
module Reader = Stdx.Bitbuf.Reader

type priority = Random | Degree | Index

let priority_name = function
  | Random -> "random"
  | Degree -> "degree"
  | Index -> "index"

type state = {
  degs : int array option;
  degs_fresh : bool;
  chosen : bool array;
  blocked : bool array;
  label : string;
  draws : int array;
}

(* The round's public-coin priorities, filled on first use: each
   (round, vertex) draw is derived at most once, by whichever player or
   comparison needs it first. Draws lie in [0, 2^40), so -1 marks "not yet
   drawn". Index priority never draws and carries an empty array. *)
let undrawn = -1

let draw coins ~label draws v =
  let d = draws.(v) in
  if d <> undrawn then d
  else begin
    let d = Stdx.Prng.int (Public_coins.keyed coins label v) (1 lsl 40) in
    draws.(v) <- d;
    d
  end

(* u strictly beats v; a total order (id tie-breaks), so two active
   neighbours can never join in the same round. *)
let beats kind ~degs ~prio u v =
  match kind with
  | Index -> u > v
  | Random ->
      let pu = prio u and pv = prio v in
      pu > pv || (pu = pv && u > v)
  | Degree ->
      let du = degs.(u) and dv = degs.(v) in
      du < dv
      ||
      (du = dv
      &&
      let pu = prio u and pv = prio v in
      pu > pv || (pu = pv && u > v))

let round_label kind lr = Printf.sprintf "mp-luby-%s-r%d" (priority_name kind) lr

(* The coin label and an unfilled draw array for Luby round [lr]. *)
let priorities kind ~n lr =
  match kind with
  | Index -> ("", [||])
  | Random | Degree -> (round_label kind lr, Array.make n undrawn)

let needs_degrees = function Degree -> true | Random | Index -> false

let protocol kind ~n =
  let prep = if needs_degrees kind then 1 else 0 in
  {
    Rounds.name = "luby-mis-" ^ priority_name kind;
    max_rounds = n + 2 + prep;
    init =
      (fun ~n _coins ->
        let label, draws = priorities kind ~n 1 in
        {
          degs = None;
          degs_fresh = false;
          chosen = Array.make n false;
          blocked = Array.make n false;
          label;
          draws;
        });
    player =
      (fun ~round (view : Model.view) state coins ->
        let w = Writer.create () in
        let v = view.Model.vertex in
        if round <= prep then Writer.uvarint w (Array.length view.Model.neighbors)
        else if not (state.chosen.(v) || state.blocked.(v)) then begin
          let degs = match state.degs with Some d -> d | None -> [||] in
          let prio = draw coins ~label:state.label state.draws in
          let blocked_now =
            Array.exists (fun u -> state.chosen.(u)) view.Model.neighbors
          in
          let joins =
            (not blocked_now)
            && Array.for_all
                 (fun u ->
                   state.chosen.(u) || state.blocked.(u)
                   || beats kind ~degs ~prio v u)
                 view.Model.neighbors
          in
          Writer.bit w joins;
          Writer.bit w blocked_now
        end;
        w);
    referee =
      (fun ~round ~n ~state ~sketches _coins ->
        if round <= prep then begin
          let degs = Array.map Reader.uvarint sketches in
          (* Prep players never draw: Luby round 1's priorities from
             [init] are still unfilled. *)
          Rounds.Continue { state with degs = Some degs; degs_fresh = true }
        end
        else begin
          let chosen = Array.copy state.chosen
          and blocked = Array.copy state.blocked in
          Array.iteri
            (fun v r ->
              if Reader.remaining_bits r >= 2 then begin
                let joins = Reader.bit r in
                let blocked_now = Reader.bit r in
                if joins then chosen.(v) <- true
                else if blocked_now then blocked.(v) <- true
              end)
            sketches;
          let active = ref false in
          for v = 0 to n - 1 do
            if not (chosen.(v) || blocked.(v)) then active := true
          done;
          if !active then begin
            let label, draws = priorities kind ~n (round - prep + 1) in
            Rounds.Continue { state with chosen; blocked; degs_fresh = false; label; draws }
          end
          else begin
            let out = ref [] in
            for v = n - 1 downto 0 do
              if chosen.(v) then out := v :: !out
            done;
            Rounds.Finish !out
          end
        end);
    encode_broadcast =
      (fun state ->
        let w = Writer.create () in
        (match (state.degs_fresh, state.degs) with
        | true, Some degs -> Array.iter (Writer.uvarint w) degs
        | _ -> ());
        Array.iter (Writer.bit w) state.chosen;
        Array.iter (Writer.bit w) state.blocked;
        w);
  }

let run kind g coins = Rounds.run (protocol kind ~n:(Dgraph.Graph.n g)) g coins
