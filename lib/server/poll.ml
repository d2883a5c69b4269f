(* OCaml face of the epoll(7) stub: one kernel registration set plus a
   preallocated ready buffer of (key, events) pairs, two int slots per
   ready descriptor, overwritten by each [wait]. *)

external epoll_create : unit -> Unix.file_descr = "sketchlb_epoll_create"

external epoll_ctl : Unix.file_descr -> int -> Unix.file_descr -> int -> int -> unit
  = "sketchlb_epoll_ctl"

external epoll_wait : Unix.file_descr -> int array -> int -> int = "sketchlb_epoll_wait"
external constants : unit -> int * int * int * int = "sketchlb_epoll_constants"

let pollin, pollout, pollerr, pollhup = constants ()

(* Indices into the stub's op table. *)
let op_add = 0
let op_mod = 1
let op_del = 2

type t = { epfd : Unix.file_descr; ready : int array }

(* Ready descriptors reported per wait; level-triggered readiness left
   over is reported by the next one. *)
let max_events = 256

let create () = { epfd = epoll_create (); ready = Array.make (2 * max_events) 0 }

let close t = Unix.close t.epfd
let add t fd ~key interest = epoll_ctl t.epfd op_add fd key interest
let modify t fd ~key interest = epoll_ctl t.epfd op_mod fd key interest

(* A descriptor already closed (EBADF) or never registered (ENOENT) has
   nothing left to remove. *)
let remove t fd =
  try epoll_ctl t.epfd op_del fd 0 0
  with Unix.Unix_error ((Unix.EBADF | Unix.ENOENT), _, _) -> ()

let wait t ~timeout_ms = epoll_wait t.epfd t.ready timeout_ms
let key t i = t.ready.(2 * i)
let events t i = t.ready.((2 * i) + 1)

external reserve : int -> int = "sketchlb_reserve_fds"
