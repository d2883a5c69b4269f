(* Unit tests for the benchmark's own measuring code: the percentile rule,
   quartiles, open-loop stall accounting, connections the server closes,
   self-time folding and the /proc parsers. The smoke pass of all four workloads is
   `bash perfbench/run.sh --smoke`. *)

let feq = Alcotest.float 1e-9

let test_tail_rule () =
  let check n want =
    Alcotest.(check (option (float 0.))) (Printf.sprintf "n=%d" n) want (Summary.tail_percentile n)
  in
  check 19 None;
  check 20 (Some 0.5);
  check 99 (Some 0.5);
  check 100 (Some 0.9);
  check 999 (Some 0.9);
  check 1000 (Some 0.99);
  check 9999 (Some 0.99);
  check 10000 (Some 0.999);
  Alcotest.(check string) "label" "p99.9" (Summary.percentile_label 0.999)

(* Reference values from Python's statistics.quantiles(data, n=4). *)
let test_quartiles () =
  let q a = Summary.quartiles (Array.of_list a) in
  let check name (a, b, c) (x, y, z) =
    Alcotest.check feq (name ^ " q1") a x;
    Alcotest.check feq (name ^ " q2") b y;
    Alcotest.check feq (name ^ " q3") c z
  in
  check "1..10" (2.75, 5.5, 8.25) (q [ 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. ]);
  check "1..4" (1.25, 2.5, 3.75) (q [ 4.; 3.; 2.; 1. ]);
  (* With two values Python extrapolates past both ends. *)
  check "two" (0.75, 1.5, 2.25) (q [ 1.; 2. ]);
  Alcotest.check feq "spread" ((8.25 -. 2.75) /. 5.5)
    (Summary.spread [| 1.; 2.; 3.; 4.; 5.; 6.; 7.; 8.; 9.; 10. |])

(* An in-process server whose handler stalls once: every request that
   was due while it stalled must carry the wait, although the generator
   kept sending on schedule. *)
let test_open_loop_stall () =
  let stall_s = 0.3 and stall_at = 40 in
  let count = Atomic.make 0 in
  let handle ~cancelled:_ _payload =
    if Atomic.fetch_and_add count 1 = stall_at then Thread.delay stall_s;
    { Server.Service.payload = {|{"ok":true,"op":"ping"}|}; shutdown = false }
  in
  let d = Server.Daemon.start_handler ~handle () in
  let port = Server.Daemon.port d in
  let conns = List.init 2 (fun _ -> Loadgen.connect port) in
  let rate = 200. in
  let o =
    Loadgen.run ~conns ~mode:(Loadgen.Open rate) ~duration:1.0
      ~payload:(fun _ -> {|{"op":"ping"}|})
      ~on_reply:(fun _ _ -> ())
  in
  List.iter Loadgen.close conns;
  Server.Daemon.stop d;
  Server.Daemon.wait d;
  Alcotest.(check int) "all answered" o.Loadgen.sent o.Loadgen.answered;
  Alcotest.(check int) "none failed" 0 o.Loadgen.failed;
  let lat = o.Loadgen.latencies_ms in
  let slow = Array.fold_left (fun n l -> if l > 100. then n + 1 else n) 0 lat in
  (* On the stalled connection a request is due every 10 ms; those due in
     the first 200 ms of the stall wait at least 100 ms. *)
  Alcotest.(check bool)
    (Printf.sprintf "%d requests waited > 100 ms" slow)
    true (slow >= 15);
  Alcotest.(check bool)
    "the stall itself is counted" true
    (Array.fold_left Float.max 0. lat >= 250.);
  (* The wait came from the server: the generator kept its schedule to
     well within the stall, even on a loaded machine. *)
  Alcotest.(check bool)
    "the generator stayed on time" true
    (Summary.quantile o.Loadgen.late_ms 0.99 < 150.)

(* A server that closes one of the two connections after its first
   request: everything sent on that connection is lost and counted as
   failed, while the other connection keeps being answered. *)
let test_dropped_connection () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let listen = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind listen (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  Unix.listen listen 8;
  let port = match Unix.getsockname listen with Unix.ADDR_INET (_, p) -> p | _ -> assert false in
  let server =
    Thread.create
      (fun () ->
        let a, _ = Unix.accept listen in
        let b, _ = Unix.accept listen in
        ignore (Server.Wire.read_frame a);
        Unix.close a;
        (try
           while true do
             ignore (Server.Wire.read_frame b);
             Server.Wire.write_frame b {|{"ok":true,"op":"ping"}|}
           done
         with Server.Wire.Closed | Unix.Unix_error _ -> ());
        Unix.close b)
      ()
  in
  let conns = List.init 2 (fun _ -> Loadgen.connect port) in
  let o =
    Loadgen.run ~conns ~mode:(Loadgen.Open 100.) ~duration:0.5
      ~payload:(fun _ -> {|{"op":"ping"}|})
      ~on_reply:(fun _ _ -> ())
  in
  List.iter Loadgen.close conns;
  Thread.join server;
  Unix.close listen;
  Alcotest.(check int) "sent" 50 o.Loadgen.sent;
  Alcotest.(check int) "answered on the open connection" 25 o.Loadgen.answered;
  Alcotest.(check int) "lost on the closed one" 25 o.Loadgen.lost;
  Alcotest.(check int) "lost requests fail" 25 o.Loadgen.failed;
  Alcotest.(check int) "none left in flight" 0 o.Loadgen.unanswered

let span ?(tid = 0) name ts dur = { Spans.name; tid; ts; dur }

let test_self_time () =
  let spans =
    [
      span "parent" 0. 100.;
      span "a" 10. 20.;
      span "grandchild" 12. 3.;
      span "b" 20. 30.;
      (* Another domain: never a child of [parent]. *)
      span ~tid:1 "other" 5. 50.;
    ]
  in
  let self = List.map (fun ((s : Spans.span), t) -> (s.name, t)) (Spans.self_times spans) in
  let get n = List.assoc n self in
  (* [a] and [b] overlap: together they cover 10..50 once. [b] ends after
     [a], so it is not [a]'s child. *)
  Alcotest.check feq "parent" 60. (get "parent");
  Alcotest.check feq "a" 17. (get "a");
  Alcotest.check feq "b" 30. (get "b");
  Alcotest.check feq "grandchild" 3. (get "grandchild");
  Alcotest.check feq "other" 50. (get "other");
  let totals = Spans.self_totals (span "a" 200. 10. :: spans) in
  Alcotest.check feq "totals in seconds" 27e-6 (totals "a");
  Alcotest.check feq "absent" 0. (totals "nope")

let test_trace_file () =
  let text =
    String.concat ""
      [
        {|{"traceEvents":[|};
        {|{"name":"rpc.run","cat":"rpc","ph":"X","ts":10.5,"dur":4.0,"pid":1,"tid":3},|};
        {|{"name":"cache.hit","cat":"cache","ph":"i","ts":11.0,"s":"t","pid":1,"tid":3}],|};
        {|"displayTimeUnit":"ms","otherData":{"producer":"x","droppedEvents":2}}|};
      ]
  in
  let spans, dropped = Spans.of_trace_json text in
  Alcotest.(check int) "dropped" 2 dropped;
  Alcotest.(check int) "complete spans only" 1 (List.length spans);
  Alcotest.check feq "duration" 4. (Spans.durations "rpc.run" spans).(0)

let test_procfs () =
  let stat = "1234 (my (odd) proc) S 1 1 1 0 -1 4194560 100 0 0 0 250 50 0 0 20 0 1 0 100 0" in
  Alcotest.check feq "utime + stime" 3.0 (Procfs.cpu_s_of_stat stat);
  let status = "Name:\tsketchd\nVmPeak:\t  100000 kB\nVmHWM:\t   20480 kB\nVmRSS:\t 1 kB\n" in
  Alcotest.check feq "VmHWM" 20. (Procfs.hwm_mb_of_status status);
  Alcotest.check_raises "no VmHWM" (Failure "procfs: no VmHWM line") (fun () ->
      ignore (Procfs.hwm_mb_of_status "Name:\tx\n"));
  Alcotest.(check bool) "own process" true (Procfs.hwm_mb 0 > 0. && Procfs.cpu_s 0 >= 0.)

let () =
  Alcotest.run "perfbench"
    [
      ( "summary",
        [
          Alcotest.test_case "tail percentile rule" `Quick test_tail_rule;
          Alcotest.test_case "quartiles match Python" `Quick test_quartiles;
        ] );
      ( "loadgen",
        [
          Alcotest.test_case "open-loop stall accounting" `Quick test_open_loop_stall;
          Alcotest.test_case "connection closed by the server" `Quick test_dropped_connection;
        ] );
      ( "spans",
        [
          Alcotest.test_case "self-time folding" `Quick test_self_time;
          Alcotest.test_case "trace file parsing" `Quick test_trace_file;
        ] );
      ("procfs", [ Alcotest.test_case "stat and status parsing" `Quick test_procfs ]);
    ]
