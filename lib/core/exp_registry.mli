(** The experiment registry: a first-class-module interface every
    DESIGN.md §4 table implements, plus a global catalogue with
    unique-id enforcement.

    An experiment declares its parameter spec once ({!EXPERIMENT.params},
    including the uniform [seed]/[jobs] knobs) and the CLI, the [all]
    runner, the bench JSON writer and the tests all derive their
    behaviour from it — adding a workload is one new [Exp_*] module plus
    one line in {!Exp_all}. Rendering goes through {!table}, which runs
    the experiment inside an [exp.<id>] trace span annotated with the
    merged parameters. *)

exception Duplicate_id of string
(** Raised by {!register} when an experiment id is already taken. *)

exception Unknown_param of string
(** Raised when an override or lookup names a parameter the spec does
    not declare (a silent typo would otherwise be ignored). *)

exception Wrong_param_type of string
(** Raised when a parameter is read at the wrong shape (int vs list). *)

(** {1 Parameter specs} *)

(** A parameter value: a single int or an int list (sweep axes). *)
type pvalue = Vint of int | Vints of int list

type param = {
  name : string;  (** Merge key and JSON name. *)
  keys : string list;  (** CLI flag spellings, e.g. [\["j"; "jobs"\]]. *)
  doc : string;  (** One-line help text. *)
  default : pvalue;
}
(** One declared parameter of an experiment. *)

type params = (string * pvalue) list
(** A merged assignment: every declared parameter bound to a value. *)

val int_param : ?keys:string list -> ?doc:string -> string -> int -> param
(** [int_param name default] declares a scalar int parameter; [keys]
    defaults to [\[name\]]. *)

val ints_param : ?keys:string list -> ?doc:string -> string -> int list -> param
(** [ints_param name default] declares an int-list parameter (a sweep
    axis, comma-separated on the CLI). *)

val seed_param : ?doc:string -> unit -> param
(** The uniform ["seed"] parameter (default 7). *)

val jobs_param : param
(** The uniform ["jobs"] parameter ([-j]; 0 means
    [Domain.recommended_domain_count]). Excluded from cache keys — every
    table is bit-identical at any job count. *)

val std_params : ?seed_doc:string -> param list -> param list
(** [std_params specific] appends the uniform [seed] and [jobs]
    parameters — every experiment takes both, with no CLI special cases
    (deterministic or sequential tables simply ignore them). *)

val int_value : params -> string -> int
(** Read a scalar parameter; raises {!Unknown_param} or
    {!Wrong_param_type}. *)

val ints_value : params -> string -> int list
(** Read a list parameter; raises {!Unknown_param} or
    {!Wrong_param_type}. *)

val seed : params -> int
(** [int_value ps "seed"]. *)

val jobs : params -> int option
(** The jobs override, with [<= 0] mapped to [None] (engine default). *)

val merge : param list -> params -> params
(** [merge spec overrides] overlays caller overrides on the spec
    defaults, in spec order. Overriding an undeclared name raises
    {!Unknown_param}. *)

(** {1 The experiment interface} *)

(** What a DESIGN.md §4 table implements. [run] produces typed rows;
    [schema]/[to_row] render them through {!Report.Tabular}; the
    override sets pin the [all] (full/fast) and test sizes. *)
module type EXPERIMENT = sig
  type row

  val id : string
  (** CLI subcommand and registry key, e.g. ["claim31"]. *)

  val title : string
  (** Short table tag, e.g. ["T3"]. *)

  val doc : string
  (** One-line description (CLI help, the daemon's [list]). *)

  val params : param list
  val schema : Report.Tabular.col list
  val to_row : row -> Report.Tabular.row
  val run : params -> row list

  val preamble : params -> row list -> string list
  (** Text-format title block. *)

  val footer : row list -> string list
  (** Text-format trailer. *)

  val fast_overrides : params
  (** [all --fast] sizes. *)

  val full_overrides : params
  (** [all] sizes. *)

  val smoke : params
  (** Tiny sizes for the registry smoke test. *)
end

type experiment = (module EXPERIMENT)

(** {2 Accessors} *)

val id : experiment -> string
val title : experiment -> string
val doc : experiment -> string
val params : experiment -> param list
val schema : experiment -> Report.Tabular.col list
val smoke : experiment -> params

val overrides_for : fast:bool -> experiment -> params
(** The [all] override set for the chosen speed. *)

type gc_cost = {
  alloc_bytes : float;
      (** [Gc.allocated_bytes] delta across the body, each reading taken
          right after a minor collection, so the figure is exact: the
          same table measured twice in one process reads the same bytes. *)
  minor_collections : int;  (** Minor-collection count delta. *)
  major_collections : int;  (** Major-collection cycle delta. *)
}
(** GC cost of one experiment body. The snapshots bracket
    {!EXPERIMENT.run} alone — parameter merging and row/preamble/footer
    rendering stay outside the window — and count the calling domain
    only, so worker-domain shares are invisible at [jobs > 1]. The bench
    harness measures at [jobs = 1] when the absolute figure matters; see
    PERFORMANCE.md ("Reading the bench columns"). *)

val table : experiment -> params -> Report.Tabular.table
(** Merge overrides, run the experiment inside an [exp.<id>] trace span
    annotated with every merged parameter (seed included), and package
    rows, preamble and footer for any renderer. The calling domain's
    {!Stdx.Scratch} arena is cleared when the experiment ends, also when
    it raises, so no table's buffers outlive it. *)

val measured_table : experiment -> params -> Report.Tabular.table * gc_cost
(** Like {!table}, and additionally reports the {!gc_cost} of the
    experiment body — allocation bytes and minor/major collection deltas
    measured around {!EXPERIMENT.run} only. *)

(** {1 The global catalogue} *)

val register : experiment -> unit
(** Register under {!id}; raises {!Duplicate_id} on a collision.
    {!Exp_all} registers the canonical list at module initialisation. *)

val find : string -> experiment option
val ids : unit -> string list
(** Registered ids, in registration order. *)

val all : unit -> experiment list
(** Registered experiments, in registration order. *)
