(* Complete spans read back from Stdx.Trace: either dumped in-process or
   parsed from a Chrome trace_event file a server wrote with --trace.

   Self time folds nested spans: a span's self time is its duration minus
   the part of its interval that its direct children cover (children that
   overlap each other count once). Spans are nested per recording domain
   (tid); a span that starts inside another but ends after it is treated
   as unrelated to it. *)

module T = Report.Tabular

type span = { name : string; tid : int; ts : float; dur : float }
(** Times in microseconds, as Stdx.Trace records them. *)

let of_events (events : Stdx.Trace.event list) =
  List.filter_map
    (fun (e : Stdx.Trace.event) ->
      if e.ph = Stdx.Trace.Complete then
        Some { name = e.name; tid = e.tid; ts = e.ts_us; dur = e.dur_us }
      else None)
    events

let num = function T.Jint i -> Some (float_of_int i) | T.Jfloat f -> Some f | _ -> None

(* A trace file as written by Report.Trace_export: the Complete spans and
   the [otherData.droppedEvents] count. *)
let of_trace_json text =
  let j = T.json_of_string text in
  let spans =
    match T.member "traceEvents" j with
    | Some (T.Jarr evs) ->
        List.filter_map
          (fun e ->
            match (T.member "ph" e, T.member "name" e, T.member "tid" e) with
            | Some (T.Jstr "X"), Some (T.Jstr name), Some (T.Jint tid) -> (
                match
                  (Option.bind (T.member "ts" e) num, Option.bind (T.member "dur" e) num)
                with
                | Some ts, Some dur -> Some { name; tid; ts; dur }
                | _ -> None)
            | _ -> None)
          evs
    | _ -> failwith "spans: trace file has no traceEvents array"
  in
  let dropped =
    match Option.bind (T.member "otherData" j) (T.member "droppedEvents") with
    | Some (T.Jint n) -> n
    | _ -> failwith "spans: trace file has no otherData.droppedEvents"
  in
  (spans, dropped)

let durations name spans =
  Array.of_list (List.filter_map (fun s -> if s.name = name then Some s.dur else None) spans)

(* Self time (microseconds) of every span, paired with the span. *)
let self_times spans =
  let by_tid = Hashtbl.create 4 in
  List.iter
    (fun s ->
      Hashtbl.replace by_tid s.tid (s :: Option.value ~default:[] (Hashtbl.find_opt by_tid s.tid)))
    spans;
  Hashtbl.fold
    (fun _ group acc ->
      (* Start ascending, longer first on ties, so a parent precedes the
         children it contains. *)
      let sorted =
        List.sort
          (fun a b -> if a.ts = b.ts then Float.compare b.dur a.dur else Float.compare a.ts b.ts)
          group
      in
      (* Stack frames: span, covered time so far, end of the covered prefix. *)
      let stack = ref [] in
      let finished = ref acc in
      let close (s, covered, _) = finished := (s, s.dur -. covered) :: !finished in
      List.iter
        (fun s ->
          let s_end = s.ts +. s.dur in
          let rec unwind () =
            match !stack with
            | ((p, _, _) as top) :: rest when p.ts +. p.dur <= s.ts || p.ts +. p.dur < s_end ->
                close top;
                stack := rest;
                unwind ()
            | _ -> ()
          in
          unwind ();
          (match !stack with
          | (p, covered, upto) :: rest ->
              let from = Float.max s.ts upto in
              let add = Float.max 0. (s_end -. from) in
              stack := (p, covered +. add, Float.max upto s_end) :: rest
          | [] -> ());
          stack := (s, 0., s.ts) :: !stack)
        sorted;
      List.iter close !stack;
      !finished)
    by_tid []

(* Total self time per span name, in seconds. *)
let self_totals spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      Hashtbl.replace tbl s.name (self +. Option.value ~default:0. (Hashtbl.find_opt tbl s.name)))
    (self_times spans);
  fun name -> Option.value ~default:0. (Hashtbl.find_opt tbl name) /. 1e6
