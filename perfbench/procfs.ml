(* Process accounting from /proc: CPU time from /proc/<pid>/stat and peak
   resident memory (VmHWM) from /proc/<pid>/status. The parsers take the
   file contents so tests can feed them fixed text. *)

(* Linux reports utime/stime in clock ticks of USER_HZ, which is 100 on
   every mainstream kernel configuration. *)
let ticks_per_s = 100.

(* /proc/<pid>/stat: "pid (comm) state ppid ...". [comm] may hold spaces
   and parentheses, so fields are counted from the last ')'. utime and
   stime are fields 14 and 15 of the whole line, i.e. the 12th and 13th
   after the command. *)
let cpu_s_of_stat text =
  match String.rindex_opt text ')' with
  | None -> failwith "procfs: malformed stat line"
  | Some i -> (
      let rest = String.sub text (i + 1) (String.length text - i - 1) in
      let fields = List.filter (( <> ) "") (String.split_on_char ' ' (String.trim rest)) in
      match (List.nth_opt fields 11, List.nth_opt fields 12) with
      | Some u, Some s -> (
          match (int_of_string_opt u, int_of_string_opt s) with
          | Some u, Some s -> float_of_int (u + s) /. ticks_per_s
          | _ -> failwith "procfs: non-numeric utime/stime")
      | _ -> failwith "procfs: short stat line")

(* "VmHWM:\t   12345 kB" -> 12345 * 1024 bytes, reported in MB. *)
let hwm_mb_of_status text =
  let line =
    List.find_opt
      (fun l -> String.length l > 6 && String.sub l 0 6 = "VmHWM:")
      (String.split_on_char '\n' text)
  in
  match line with
  | None -> failwith "procfs: no VmHWM line"
  | Some l -> (
      let words =
        List.filter (( <> ) "")
          (String.split_on_char ' ' (String.map (fun c -> if c = '\t' then ' ' else c) l))
      in
      match words with
      | [ _; kb; "kB" ] -> (
          match int_of_string_opt kb with
          | Some kb -> float_of_int kb /. 1024.
          | None -> failwith "procfs: non-numeric VmHWM")
      | _ -> failwith "procfs: malformed VmHWM line")

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () ->
      (* /proc files report size 0; read until EOF. *)
      let buf = Buffer.create 4096 in
      let chunk = Bytes.create 4096 in
      let rec go () =
        let n = input ic chunk 0 4096 in
        if n > 0 then begin
          Buffer.add_subbytes buf chunk 0 n;
          go ()
        end
      in
      go ();
      Buffer.contents buf)

(* [pid] 0 is this process. *)
let pid_path pid file =
  Printf.sprintf "/proc/%s/%s" (if pid = 0 then "self" else string_of_int pid) file

let cpu_s pid = cpu_s_of_stat (read_file (pid_path pid "stat"))
let hwm_mb pid = hwm_mb_of_status (read_file (pid_path pid "status"))
