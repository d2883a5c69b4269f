(* Chrome trace_event exporter for Stdx.Trace.

   Renders a dumped event list as the Chrome/Perfetto "JSON Object
   Format": {"traceEvents":[...],"displayTimeUnit":"ms","otherData":...}.
   Events become Complete ("X"), Instant ("i") or Counter ("C") records;
   timestamps/durations are microseconds, the unit the format mandates.
   Rendering goes through Tabular's [json] type and [string_of_json], so
   the output obeys the repo-wide canonical JSON contract (field order,
   escaping, float_repr) and round-trips through [Tabular.json_of_string]
   — which is what `jsoncheck` and the qcheck re-parse test rely on.

   The whole trace is one JSON object written as a single line, so a
   trace file is simultaneously valid JSON-lines (jsoncheck-able) and
   directly loadable in https://ui.perfetto.dev / chrome://tracing. *)

open Tabular

let json_of_arg = function
  | Stdx.Trace.Int i -> Jint i
  | Stdx.Trace.Float f -> Jfloat f
  | Stdx.Trace.Str s -> Jstr s
  | Stdx.Trace.Bool b -> Jbool b

let phase_string = function
  | Stdx.Trace.Complete -> "X"
  | Stdx.Trace.Instant -> "i"
  | Stdx.Trace.Counter -> "C"

(* One trace_event record. Field presence follows the format spec:
   Complete events carry "dur"; Instant events carry scope "s":"t"
   (thread-scoped); Counter values ride in "args". All events share
   pid 1 — there is one process; tid is the recording domain. *)
let json_of_event (e : Stdx.Trace.event) =
  let base =
    [
      ("name", Jstr e.name);
      ("cat", Jstr e.cat);
      ("ph", Jstr (phase_string e.ph));
      ("ts", Jfloat e.ts_us);
    ]
  in
  let dur = match e.ph with Stdx.Trace.Complete -> [ ("dur", Jfloat e.dur_us) ] | _ -> [] in
  let scope = match e.ph with Stdx.Trace.Instant -> [ ("s", Jstr "t") ] | _ -> [] in
  let ids = [ ("pid", Jint 1); ("tid", Jint e.tid) ] in
  let args =
    match e.args with
    | [] -> []
    | l -> [ ("args", Jobj (List.map (fun (k, v) -> (k, json_of_arg v)) l)) ]
  in
  Jobj (base @ dur @ scope @ ids @ args)

let json_of_events ?(dropped = 0) events =
  Jobj
    [
      ("traceEvents", Jarr (List.map json_of_event events));
      ("displayTimeUnit", Jstr "ms");
      ( "otherData",
        Jobj
          [
            ("producer", Jstr ("sketchlb " ^ Stdx.Version.current));
            ("droppedEvents", Jint dropped);
          ] );
    ]

let to_string ?dropped events = string_of_json (json_of_events ?dropped events)

(* Single line + trailing newline: valid JSON-lines for jsoncheck, valid
   JSON object for Perfetto. *)
let write_channel ?dropped oc events =
  output_string oc (to_string ?dropped events);
  output_char oc '\n'

(* Sum of Complete-span durations by name, in seconds, within the
   [since, until] window (ts_us clock) — bench's per-phase breakdown.
   A span belongs to the window iff it *started* inside it. *)
let phase_totals ?(since = neg_infinity) ?(until = infinity) events =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (e : Stdx.Trace.event) ->
      if e.ph = Stdx.Trace.Complete && e.ts_us >= since && e.ts_us <= until then begin
        if not (Hashtbl.mem tbl e.name) then order := e.name :: !order;
        Hashtbl.replace tbl e.name
          (e.dur_us +. try Hashtbl.find tbl e.name with Not_found -> 0.)
      end)
    events;
  List.rev_map (fun name -> (name, Hashtbl.find tbl name /. 1e6)) !order

(* The CLI entry point: [with_file (Some path) f] enables tracing, runs
   [f], and writes the merged trace to [path] even if [f] raises — a
   crashed run still leaves an inspectable trace. [with_file None f] is
   just [f ()]. Tracing state is left enabled so callers composing
   several phases (bench) keep recording. Each domain's ring holds 2^20
   events (8 MB of slots): a traced sketchd answering tens of thousands
   of requests a second records several events per request, and the
   default 65536-event ring would drop the start of a one-second burst. *)
let with_file out f =
  match out with
  | None -> f ()
  | Some path ->
      Stdx.Trace.enable ~capacity:(1 lsl 20) ();
      let write () =
        let events = Stdx.Trace.dump () in
        let dropped = (Stdx.Trace.stats ()).Stdx.Trace.dropped in
        let oc = open_out path in
        Fun.protect
          ~finally:(fun () -> close_out oc)
          (fun () -> write_channel ~dropped oc events)
      in
      (match f () with
      | v ->
          write ();
          v
      | exception e ->
          let bt = Printexc.get_raw_backtrace () in
          (try write () with _ -> ());
          Printexc.raise_with_backtrace e bt)
