(* Per-domain keyed scratch arenas (PERFORMANCE.md).

   The hot experiment loops (AGM sketch stacks, L0-sampler decode work
   buffers, CSR fill scratch) want the same transient buffers over and
   over, once per trial. Allocating them fresh each time is exactly the
   GC churn BENCH_tables.json exposes, so instead each worker domain
   owns one arena: a hash table from string keys to flat unboxed
   buffers. A borrow returns the cached buffer when the requested
   length matches the cached one and reallocates otherwise — steady
   workloads (every trial at the same [n]) reallocate once per domain
   and then only reset. An at-least borrow also takes a longer cached
   buffer, for callers whose lengths vary from one call to the next.

   Ownership is by key: a borrow of key [k] invalidates every earlier
   borrow of [k] in the same domain (same backing store), so each call
   site owns its keys exclusively. Arenas are never shared across
   domains — [domain ()] hands each domain its own via [Domain.DLS] —
   which is what makes borrowing race-free without locks and keeps
   [Parallel]'s determinism contract intact (a buffer's contents are a
   function of the trial that filled it, never of a sibling domain).

   An arena caches for one table, not for the process: the registry
   ([Core.Exp_registry.table], [measured_table]) calls [clear] on the
   calling domain's arena when each table ends, so one table's largest
   buffers are garbage by the time the next table runs. *)

type buf = Ints of int array | Floats of float array

type t = {
  tbl : (string, buf) Hashtbl.t;
  mutable borrows : int;
  mutable reallocs : int;
}

let create () = { tbl = Hashtbl.create 32; borrows = 0; reallocs = 0 }

(* One arena per domain, created lazily on first use. [Domain.DLS] gives
   every domain (including short-lived [Parallel.init] workers) its own
   slot; a worker that dies takes its arena with it. *)
let key = Domain.DLS.new_key create
let domain () = Domain.DLS.get key

(* Chunk notifications from [Parallel]: today this only warms the
   arena so the table itself is not allocated mid-trial; the counter
   hook point is kept separate from [create] so the contract "the arena
   outlives the chunk's trials" is visible in code. *)
let chunks = Domain.DLS.new_key (fun () -> ref 0)
let chunk_begin () =
  incr (Domain.DLS.get chunks);
  ignore (domain ())

let chunk_count () = !(Domain.DLS.get chunks)

let ints_raw t name len ~zero ~at_least =
  if len < 0 then invalid_arg "Scratch.ints: negative length";
  t.borrows <- t.borrows + 1;
  match Hashtbl.find_opt t.tbl name with
  | Some (Ints a) when Array.length a = len || (at_least && Array.length a > len) ->
      if zero then Array.fill a 0 len 0;
      a
  | _ ->
      t.reallocs <- t.reallocs + 1;
      let a = Array.make len 0 in
      Hashtbl.replace t.tbl name (Ints a);
      a

let ints t name len = ints_raw t name len ~zero:true ~at_least:false
let dirty_ints t name len = ints_raw t name len ~zero:false ~at_least:false
let dirty_ints_at_least t name len = ints_raw t name len ~zero:false ~at_least:true

let floats_raw t name len ~zero =
  if len < 0 then invalid_arg "Scratch.floats: negative length";
  t.borrows <- t.borrows + 1;
  match Hashtbl.find_opt t.tbl name with
  | Some (Floats a) when Array.length a = len ->
      if zero then Array.fill a 0 len 0.0;
      a
  | _ ->
      t.reallocs <- t.reallocs + 1;
      let a = Array.make len 0.0 in
      Hashtbl.replace t.tbl name (Floats a);
      a

let floats t name len = floats_raw t name len ~zero:true
let dirty_floats t name len = floats_raw t name len ~zero:false

let clear t =
  Hashtbl.reset t.tbl;
  t.borrows <- 0;
  t.reallocs <- 0

(* Declared after the functions that mutate [t]: the [stats] fields
   share names with [t]'s mutable ones and would otherwise shadow them
   in field resolution. *)
type stats = { keys : int; borrows : int; reallocs : int; live_words : int }

let stats t =
  let live_words =
    Hashtbl.fold
      (fun _ b acc ->
        acc
        + (match b with
          | Ints a -> 1 + Array.length a
          | Floats a -> 1 + Array.length a))
      t.tbl 0
  in
  { keys = Hashtbl.length t.tbl; borrows = t.borrows; reallocs = t.reallocs; live_words }
