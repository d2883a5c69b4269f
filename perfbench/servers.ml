(* The programs under test as separate processes: spawn sketchd and
   sketchproxy from the build tree, learn their ports from --port-file,
   talk to them with [Server.Client]'s blocking calls, and stop them with
   SIGTERM (a graceful drain that also writes their --trace file). *)

module T = Report.Tabular
module Client = Server.Client

type proc = { pid : int; port : int; label : string; trace : string option }

let addr p = Printf.sprintf "127.0.0.1:%d" p.port

let ping = {|{"op":"ping"}|}

let stats port =
  Client.with_connection ~port (fun c -> Client.request_json_exn c (T.Jobj [ ("op", T.Jstr "stats") ]))

let rec int_at j = function
  | [] -> ( match j with T.Jint i -> i | _ -> failwith "stats: expected an integer")
  | k :: rest -> (
      match T.member k j with Some v -> int_at v rest | None -> failwith ("stats: no field " ^ k))

let wait_until ~what ~timeout_s f =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match f () with
    | Some v -> v
    | None ->
        if Unix.gettimeofday () > deadline then failwith ("timed out waiting for " ^ what);
        (* Short: a sketchd starts in a few milliseconds, and the wait is
           part of the measured set-up time. *)
        Unix.sleepf 0.0002;
        go ()
  in
  go ()

let read_port path =
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let line = try Some (input_line ic) with End_of_file -> None in
      close_in ic;
      Option.bind line (fun l -> int_of_string_opt (String.trim l))

(* Every process spawned and not yet stopped; [kill_all] reaps them when
   the run ends early. *)
let live = ref []

let kill_all () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !live;
  live := []

(* Spawn [exe] with [args], wait for its port, then for a first ok ping. *)
let spawn ~run_dir ~exe ~label ?(trace = false) args =
  let port_file = Filename.concat run_dir (label ^ ".port") in
  let trace_file = Filename.concat run_dir (label ^ ".trace.json") in
  List.iter (fun f -> if Sys.file_exists f then Sys.remove f) [ port_file; trace_file ];
  let argv =
    [ exe ] @ args @ [ "--port"; "0"; "--port-file"; port_file; "-q" ]
    @ if trace then [ "--trace"; trace_file ] else []
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid = Unix.create_process exe (Array.of_list argv) null null null in
  Unix.close null;
  live := pid :: !live;
  let port =
    wait_until ~what:(label ^ " port file") ~timeout_s:30. (fun () -> read_port port_file)
  in
  wait_until ~what:(label ^ " ping") ~timeout_s:30. (fun () ->
      match Client.with_connection ~port (fun c -> Client.request c ping) with
      | reply when Loadgen.is_ok reply -> Some ()
      | _ | (exception Unix.Unix_error _) | (exception Server.Wire.Closed) -> None);
  { pid; port; label; trace = (if trace then Some trace_file else None) }

let cpu_s p = Procfs.cpu_s p.pid
let hwm_mb p = Procfs.hwm_mb p.pid

(* How long a stopping server may drain before it is killed. *)
let grace_s = 30.

(* SIGTERM to every process at once (their drains overlap), then wait for
   each exit; SIGKILL after [grace_s]. *)
let stop procs =
  List.iter (fun p -> try Unix.kill p.pid Sys.sigterm with Unix.Unix_error _ -> ()) procs;
  let deadline = Unix.gettimeofday () +. grace_s in
  let rec reap p =
    match Unix.waitpid [ Unix.WNOHANG ] p.pid with
    | 0, _ ->
        if Unix.gettimeofday () > deadline then begin
          (try Unix.kill p.pid Sys.sigkill with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] p.pid);
          failwith (p.label ^ " did not stop within the grace period")
        end;
        Unix.sleepf 0.005;
        reap p
    | _ -> live := List.filter (( <> ) p.pid) !live
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> reap p
  in
  List.iter reap procs

(* Idle connections held open for the whole run; opening them is part of
   set-up. They are opened in batches, each closed by a ping on its last
   connection: the server accepts in order, so the reply proves the whole
   batch accepted, and the listen backlog (511) never overflows into 1 s
   SYN retransmits. *)
let open_herd port n =
  let batch = 256 in
  Array.init n (fun i ->
      let c = Client.connect ~port () in
      if (i mod batch = batch - 1 || i = n - 1) && not (Loadgen.is_ok (Client.request c ping)) then
        failwith "herd ping failed";
      c)
