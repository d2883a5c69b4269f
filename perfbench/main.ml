(* The repository benchmark. Run it through run.sh, which builds the
   programs under test first:

     bash perfbench/run.sh                       every workload once, end-to-end metrics
     bash perfbench/run.sh --traced              every workload once, per-layer metrics
     bash perfbench/run.sh --repeat N            N seeds per workload: median, quartiles, spread
     bash perfbench/run.sh --smoke               all four workloads at tiny sizes, both modes
     bash perfbench/run.sh --workload W --seed S --seconds T --trace 0|1
                                                 one run; the last stdout line is its JSON result

   See perfbench/README.md for the workloads, metrics and bounds. *)

module T = Report.Tabular

let usage =
  "usage: main.exe [--workload NAME --seed INT --seconds N --trace 0|1] [--traced] [--repeat INT]\n\
  \                [--smoke] [--print-digests]"

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 2)
    fmt

(* Paths relative to the repository root, where run.sh starts this. *)
let bin_dir = "_build/default/bin"
let run_dir = "perfbench/.run"

type opts = {
  workload : string option;
  seed : int;
  seconds : float;
  trace : bool;
  traced : bool;
  repeat : int;
  smoke : bool;
  mode : [ `Bench | `Probe_registry | `Print_digests ];
}

let parse argv =
  let int_arg flag v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> die "%s needs an integer, got %S\n%s" flag v usage
  in
  let rec go o = function
    | [] -> o
    | "--workload" :: v :: rest -> go { o with workload = Some v } rest
    | "--seed" :: v :: rest -> go { o with seed = int_arg "--seed" v } rest
    | "--seconds" :: v :: rest -> (
        match float_of_string_opt v with
        | Some s when s > 0. -> go { o with seconds = s } rest
        | _ -> die "--seconds needs a positive number, got %S\n%s" v usage)
    | "--trace" :: (("0" | "1") as v) :: rest -> go { o with trace = v = "1" } rest
    | "--traced" :: rest -> go { o with traced = true } rest
    | "--repeat" :: v :: rest -> go { o with repeat = max 1 (int_arg "--repeat" v) } rest
    | "--smoke" :: rest -> go { o with smoke = true } rest
    | "--probe-registry" :: rest -> go { o with mode = `Probe_registry } rest
    | "--print-digests" :: rest -> go { o with mode = `Print_digests } rest
    | arg :: _ -> die "unknown or incomplete argument %S\n%s" arg usage
  in
  go
    {
      workload = None;
      seed = 1;
      seconds = 20.;
      trace = false;
      traced = false;
      repeat = 1;
      smoke = false;
      mode = `Bench;
    }
    (List.tl (Array.to_list argv))

(* ------------------------------------------------------------------ *)
(* One run                                                             *)

let run_one o name =
  let env = { Serve.bin_dir; run_dir; smoke = o.smoke } in
  match name with
  | "tables-full" ->
      (* Its inputs are the registered paper instances; the seed does not
         change them. *)
      if o.trace then Tables.run_traced ~smoke:o.smoke
      else Tables.run_untraced ~smoke:o.smoke ~seconds:o.seconds
  | _ -> (
      match List.find_opt (fun (w : Serve.workload) -> w.name = name) Serve.workloads with
      | Some w ->
          if o.trace then Serve.run_traced env w ~seed:o.seed ~seconds:o.seconds
          else Serve.run_untraced env w ~seed:o.seed ~seconds:o.seconds
      | None -> die "unknown workload %S\n%s" name usage)

let json_result ~correct (r : Catalogue.run) declared =
  let value name =
    match List.assoc_opt name r.metrics with Some v when Float.is_finite v -> v | _ -> 0.
  in
  let metric (m : Catalogue.metric) =
    (m.name, T.Jobj [ ("value", T.Jfloat (value m.name)); ("unit", T.Jstr m.unit) ])
  in
  T.string_of_json
    (T.Jobj
       [
         ("correct", T.Jbool correct);
         ("attempted", T.Jint r.attempted);
         ("failed", T.Jint r.failed);
         ("metrics", T.Jobj (List.map metric declared));
       ])

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* A run that has not ended by then is stopped and reported as failed, so
   a wedged server cannot hang the benchmark or outlive it. *)
let watchdog_s = 150

let single o name =
  mkdir_p run_dir;
  at_exit Servers.kill_all;
  (* A server that closes a connection must fail requests, not kill the
     generator on a write. *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle (fun _ -> failwith (Printf.sprintf "run exceeded %d s" watchdog_s)));
  ignore (Unix.alarm watchdog_s);
  (* A run that raises is reported like one whose checks failed. *)
  let r =
    try run_one o name
    with e ->
      {
        Catalogue.metrics = [];
        attempted = 1;
        failed = 1;
        errors = [ Printexc.to_string e ];
        summary = [];
      }
  in
  ignore (Unix.alarm 0);
  List.iter (fun l -> Printf.printf "%s: %s\n" name l) r.summary;
  let declared = if o.trace then Catalogue.per_layer else Catalogue.end_to_end in
  (* A per-layer metric the workload does not exercise reads 0; an
     end-to-end metric must always be measured, and every measured name
     must be declared (a misspelt one would otherwise read 0 silently). *)
  List.iter
    (fun (m : Catalogue.metric) ->
      if (not o.trace) && r.errors = [] && not (List.mem_assoc m.name r.metrics) then
        failwith ("end-to-end metric not measured: " ^ m.name))
    declared;
  List.iter
    (fun (name, _) ->
      if not (List.exists (fun (m : Catalogue.metric) -> m.name = name) declared) then
        failwith ("measured metric not in the catalogue: " ^ name))
    r.metrics;
  List.iter (fun e -> Printf.printf "%s: CHECK FAILED: %s\n" name e) r.errors;
  let correct = r.errors = [] in
  print_endline (json_result ~correct r declared);
  exit (if correct then 0 else 1)

(* ------------------------------------------------------------------ *)
(* Suites: every workload, run as child processes of this executable   *)

type spec_metric = { sname : string; sunit : string; bound : float option }
type spec = { workloads : string list; e2e : spec_metric list; layers : spec_metric list }

let read_spec path =
  let j =
    try T.json_of_string (Procfs.read_file path)
    with Sys_error _ | T.Parse_error _ -> die "cannot read the benchmark spec %s" path
  in
  let list key =
    match T.member key j with Some (T.Jarr l) -> l | _ -> die "%s: no %s list" path key
  in
  let str key x =
    match T.member key x with Some (T.Jstr s) -> s | _ -> die "%s: entry without %s" path key
  in
  let metric x =
    {
      sname = str "name" x;
      sunit = str "unit" x;
      bound =
        (match T.member "bound" x with
        | Some (T.Jfloat f) -> Some f
        | Some (T.Jint i) -> Some (float_of_int i)
        | _ -> None);
    }
  in
  {
    workloads = List.map (str "name") (list "workloads");
    e2e = List.map metric (list "end_to_end");
    layers = List.map metric (list "per_layer");
  }

type child = {
  ok : bool;  (** Exit code 0. *)
  correct : bool;
  values : (string * (float * string)) list;  (** metric -> value, unit *)
  lines : string list;  (** Output before the JSON line. *)
}

let run_child o ~workload ~seed ~trace =
  let args =
    [ "--workload"; workload; "--seed"; string_of_int seed ]
    @ [ "--seconds"; Printf.sprintf "%g" o.seconds; "--trace"; (if trace then "1" else "0") ]
    @ if o.smoke then [ "--smoke" ] else []
  in
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let rec lines acc =
    match input_line ic with l -> lines (l :: acc) | exception End_of_file -> List.rev acc
  in
  let lines = lines [] in
  close_in ic;
  let status = snd (Unix.waitpid [] pid) in
  let parsed =
    match List.rev lines with
    | last :: _ -> ( try Some (T.json_of_string last) with T.Parse_error _ -> None)
    | [] -> None
  in
  let values =
    match Option.bind parsed (T.member "metrics") with
    | Some (T.Jobj fields) ->
        List.filter_map
          (fun (name, m) ->
            match (T.member "value" m, T.member "unit" m) with
            | Some (T.Jfloat v), Some (T.Jstr u) -> Some (name, (v, u))
            | Some (T.Jint v), Some (T.Jstr u) -> Some (name, (float_of_int v, u))
            | _ -> None)
          fields
    | _ -> []
  in
  {
    ok = status = Unix.WEXITED 0;
    correct = Option.bind parsed (T.member "correct") = Some (T.Jbool true);
    values;
    lines = (match List.rev lines with _ :: rest -> List.rev rest | [] -> []);
  }

(* Every workload at tiny sizes and 1 s, untraced and traced: each must
   pass its output checks and print every declared metric in its unit. *)
let smoke_suite o spec =
  let o = { o with seconds = 1. } in
  let t0 = Unix.gettimeofday () in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let names l = List.map (fun m -> m.sname) l in
  let catalogue l = List.map (fun (m : Catalogue.metric) -> m.name) l in
  if names spec.e2e <> catalogue Catalogue.end_to_end then
    problem "BENCHMARK.json end_to_end names differ from the benchmark's";
  if names spec.layers <> catalogue Catalogue.per_layer then
    problem "BENCHMARK.json per_layer names differ from the benchmark's";
  List.iter
    (fun workload ->
      List.iter
        (fun trace ->
          let c = run_child o ~workload ~seed:o.seed ~trace in
          List.iter print_endline c.lines;
          if not (c.ok && c.correct) then
            problem "%s (trace %b): run failed or a check failed" workload trace;
          List.iter
            (fun m ->
              match List.assoc_opt m.sname c.values with
              | Some (_, u) when u = m.sunit -> ()
              | Some (_, u) ->
                  problem "%s: %s printed in %s, declared in %s" workload m.sname u m.sunit
              | None -> problem "%s: %s not printed" workload m.sname)
            (if trace then spec.layers else spec.e2e))
        [ false; true ])
    spec.workloads;
  Printf.printf "smoke: %d workloads in %.1f s\n" (List.length spec.workloads)
    (Unix.gettimeofday () -. t0);
  List.iter (fun p -> Printf.printf "smoke: FAILED: %s\n" p) (List.rev !problems);
  exit (if !problems = [] then 0 else 1)

(* One run per workload, or [--repeat N] runs at seeds 1..N with each
   metric's median, quartiles and spread; an end-to-end metric whose
   spread exceeds its bound is flagged. *)
let suite o spec =
  let failures = ref 0 in
  let metrics = if o.traced then spec.layers else spec.e2e in
  List.iter
    (fun workload ->
      let runs =
        List.init o.repeat (fun i ->
            let seed = if o.repeat = 1 then o.seed else i + 1 in
            let c = run_child o ~workload ~seed ~trace:o.traced in
            if o.repeat = 1 then List.iter print_endline c.lines;
            if not (c.ok && c.correct) then begin
              incr failures;
              Printf.printf "%s seed %d: FAILED\n%s\n" workload seed (String.concat "\n" c.lines)
            end;
            c)
      in
      if o.repeat = 1 then
        print_endline "| workload | metric | value | unit |\n| --- | --- | --- | --- |"
      else
        print_endline
          "| workload | metric | median | q1 | q3 | unit | spread | bound | values |\n\
           | --- | --- | --- | --- | --- | --- | --- | --- | --- |";
      List.iter
        (fun m ->
          let values =
            Array.of_list
              (List.filter_map (fun c -> Option.map fst (List.assoc_opt m.sname c.values)) runs)
          in
          let g = Printf.sprintf "%.6g" in
          if Array.length values < o.repeat then
            Printf.printf "| %s | %s | missing | %s |\n" workload m.sname m.sunit
          else if o.repeat = 1 then
            Printf.printf "| %s | %s | %s | %s |\n" workload m.sname (g values.(0)) m.sunit
          else begin
            let q1, _, q3 = Summary.quartiles values in
            let spread = Summary.spread values in
            Printf.printf "| %s | %s | %s | %s | %s | %s | %.1f%% | %s | %s |%s\n" workload m.sname
              (g (Summary.median values)) (g q1) (g q3) m.sunit (spread *. 100.)
              (match m.bound with Some b -> Printf.sprintf "%.0f%%" (b *. 100.) | None -> "-")
              (String.concat " " (Array.to_list (Array.map g values)))
              (match m.bound with Some b when spread > b -> " SPREAD > BOUND" | _ -> "")
          end)
        metrics)
    spec.workloads;
  exit (if !failures = 0 then 0 else 1)

let print_digests () =
  let results = List.map (Tables.run_one ~size:Tables.Full ~traced:false) (Core.Exp_all.all ()) in
  print_endline "let expected_full =\n  [";
  List.iter (fun (r : Tables.result) -> Printf.printf "    (%S, %S);\n" r.id r.digest) results;
  print_endline "  ]";
  let smoke = List.map (Tables.run_one ~size:Tables.Smoke ~traced:false) (Core.Exp_all.all ()) in
  Printf.printf "let expected_smoke = %S\n" (Tables.combined smoke)

let () =
  let o = parse Sys.argv in
  match o.mode with
  | `Probe_registry ->
      ignore (Core.Exp_all.all ());
      exit 0
  | `Print_digests -> print_digests ()
  | `Bench -> (
      match o.workload with
      | Some w -> single o w
      | None ->
          let spec = read_spec "BENCHMARK.json" in
          if o.smoke then smoke_suite o spec else suite o spec)
