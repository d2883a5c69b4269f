(* Experiment registry: a first-class-module interface every DESIGN.md §4
   table implements, plus a global registry with unique-id enforcement.

   An experiment declares its parameter spec once ([params], including the
   uniform [seed]/[jobs] knobs) and the CLI, the `all` runner, the bench
   JSON writer and the tests all derive their behaviour from it — adding a
   workload is one new [Exp_*] module plus one line in [Exp_all]. *)

module T = Report.Tabular

exception Duplicate_id of string
exception Unknown_param of string
exception Wrong_param_type of string

(* ------------------------------------------------------------------ *)
(* Parameter specs                                                     *)

type pvalue = Vint of int | Vints of int list

type param = {
  name : string;  (* merge key, JSON name *)
  keys : string list;  (* CLI flag names, e.g. ["j"; "jobs"] *)
  doc : string;
  default : pvalue;
}

type params = (string * pvalue) list

let int_param ?keys ?(doc = "") name default =
  { name; keys = Option.value keys ~default:[ name ]; doc; default = Vint default }

let ints_param ?keys ?(doc = "") name default =
  { name; keys = Option.value keys ~default:[ name ]; doc; default = Vints default }

let seed_param ?(doc = "Random seed.") () = int_param "seed" ~doc 7

let jobs_param =
  int_param "jobs" ~keys:[ "j"; "jobs" ]
    ~doc:"Worker domains for trial sharding (0 = Domain.recommended_domain_count)." 0

(* Every experiment takes [seed] and [jobs], uniformly — no CLI special
   cases. Tables that are deterministic or sequential simply ignore them
   (their [~doc] says so). *)
let std_params ?seed_doc specific = specific @ [ seed_param ?doc:seed_doc (); jobs_param ]

let int_value ps name =
  match List.assoc_opt name ps with
  | Some (Vint i) -> i
  | Some (Vints _) -> raise (Wrong_param_type name)
  | None -> raise (Unknown_param name)

let ints_value ps name =
  match List.assoc_opt name ps with
  | Some (Vints l) -> l
  | Some (Vint _) -> raise (Wrong_param_type name)
  | None -> raise (Unknown_param name)

let seed ps = int_value ps "seed"
let jobs ps = match int_value ps "jobs" with j when j <= 0 -> None | j -> Some j

(* Spec defaults overlaid with caller overrides; overriding a name the
   spec does not declare is an error (it would be silently ignored). *)
let merge spec overrides =
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun p -> p.name = name) spec) then raise (Unknown_param name))
    overrides;
  List.map
    (fun p ->
      (p.name, match List.assoc_opt p.name overrides with Some v -> v | None -> p.default))
    spec

(* ------------------------------------------------------------------ *)
(* The experiment interface                                            *)

module type EXPERIMENT = sig
  type row

  val id : string  (* CLI subcommand / registry key, e.g. "claim31" *)
  val title : string  (* short table tag, e.g. "T3" *)
  val doc : string  (* one-line description (CLI help, `list`) *)
  val params : param list
  val schema : T.col list
  val to_row : row -> T.row
  val run : params -> row list
  val preamble : params -> row list -> string list  (* text-format title block *)
  val footer : row list -> string list  (* text-format trailer *)
  val fast_overrides : params  (* `all --fast` sizes *)
  val full_overrides : params  (* `all` sizes *)
  val smoke : params  (* tiny sizes for the registry test *)
end

type experiment = (module EXPERIMENT)

let id (module E : EXPERIMENT) = E.id
let title (module E : EXPERIMENT) = E.title
let doc (module E : EXPERIMENT) = E.doc
let params (module E : EXPERIMENT) = E.params
let schema (module E : EXPERIMENT) = E.schema
let smoke (module E : EXPERIMENT) = E.smoke
let overrides_for ~fast (module E : EXPERIMENT) = if fast then E.fast_overrides else E.full_overrides

(* Trace annotations for one experiment run: every (name, value) of the
   merged parameter list, so a span in the viewer identifies the exact
   configuration (seed included) that produced it. Built lazily — the
   thunk is only evaluated when tracing is enabled. *)
let trace_args ps () =
  List.map
    (fun (name, v) ->
      match v with
      | Vint i -> (name, Stdx.Trace.Int i)
      | Vints l -> (name, Stdx.Trace.Str (String.concat "," (List.map string_of_int l))))
    ps

(* GC cost of one experiment body, measured on the calling domain. *)
type gc_cost = { alloc_bytes : float; minor_collections : int; major_collections : int }

(* Run an experiment and package the result for any renderer, with the
   GC cost of the body. The snapshots bracket [E.run] alone — parameter
   merging, row rendering and preamble/footer formatting stay outside the
   window, so the figure is the experiment's own allocation, not the
   harness's. [Gc.allocated_bytes] counts the minor heap only up to its
   last collection, so when [exact] a minor collection precedes each
   reading: without it the same table read 0.18 or 2.0 MB depending on
   what ran before. The collection counters are read before the second
   forced collection, so the forcing itself is not counted. Only
   [measured_table] forces them: in a process with idle worker domains
   (the daemon) each forced collection stops every domain, about 2 ms
   on a 2-vCPU host, and [table] discards the cost anyway. All of this
   covers the calling domain only: at jobs>1 worker-domain shares are
   invisible, so bench measures at jobs=1 when the absolute number
   matters.

   The calling domain's scratch arena is cleared when the body ends,
   also when it raises: a table's buffers live as long as the table, not
   for the rest of the process. *)
let run_table ~exact (module E : EXPERIMENT) overrides =
  let ps = merge E.params overrides in
  let cost = ref { alloc_bytes = 0.; minor_collections = 0; major_collections = 0 } in
  let rows =
    Stdx.Trace.span ~args:(trace_args ps) ("exp." ^ E.id) (fun () ->
        if exact then Gc.minor ();
        let s0 = Gc.quick_stat () in
        let a0 = Gc.allocated_bytes () in
        let rows =
          Fun.protect
            ~finally:(fun () -> Stdx.Scratch.clear (Stdx.Scratch.domain ()))
            (fun () -> E.run ps)
        in
        let s1 = Gc.quick_stat () in
        if exact then Gc.minor ();
        let a1 = Gc.allocated_bytes () in
        cost :=
          {
            alloc_bytes = a1 -. a0;
            minor_collections = s1.Gc.minor_collections - s0.Gc.minor_collections;
            major_collections = s1.Gc.major_collections - s0.Gc.major_collections;
          };
        rows)
  in
  ( {
      T.schema = E.schema;
      rows = List.map E.to_row rows;
      preamble = E.preamble ps rows;
      footer = E.footer rows;
    },
    !cost )

let measured_table e overrides = run_table ~exact:true e overrides
let table e overrides = fst (run_table ~exact:false e overrides)

(* ------------------------------------------------------------------ *)
(* The registry                                                        *)

let registered : (string, experiment) Hashtbl.t = Hashtbl.create 32
let order : string list ref = ref []

let register e =
  let key = id e in
  if Hashtbl.mem registered key then raise (Duplicate_id key);
  Hashtbl.replace registered key e;
  order := key :: !order

let find key = Hashtbl.find_opt registered key
let ids () = List.rev !order
let all () = List.rev_map (fun key -> Hashtbl.find registered key) !order
