(** A thin binding to Linux [epoll(7)]: a persistent, level-triggered
    registration set kept in the kernel. A descriptor is registered once
    with {!add}, its interest changed with {!modify} only when it flips,
    and a {!wait} costs O(ready descriptors), not O(registered) — an idle
    connection costs nothing per wait. No [FD_SETSIZE] cliff either (the
    stdlib only exposes [select(2)], capped at 1024 descriptors).

    Every registration carries an integer key chosen by the caller and
    reported back with its readiness. Keying by a per-object id rather
    than the descriptor number keeps a stale report for a closed
    descriptor from reaching a newer owner of the same number.

    The wait runs with the OCaml runtime lock released; worker domains
    and completion posters keep running while the event thread sleeps.
    Not thread-safe — a [t] is owned by one thread. *)

val pollin : int
(** Readable (or a pending connection on a listener). *)

val pollout : int
(** Writable without blocking. *)

val pollerr : int
(** Error condition (always reported, never requested). *)

val pollhup : int
(** Hang-up (always reported, never requested). *)

type t
(** An epoll instance plus its preallocated ready buffer. *)

val create : unit -> t
(** A fresh, empty registration set. Each {!wait} reports at most 256
    descriptors; readiness left unreported stays pending for the next
    wait (level-triggered). *)

val close : t -> unit
(** Release the epoll descriptor. *)

val add : t -> Unix.file_descr -> key:int -> int -> unit
(** [add t fd ~key interest] registers [fd] with an interest mask (an
    [lor] of {!pollin}/{!pollout}; [0] reports only {!pollerr} and
    {!pollhup}). Raises [Unix.Unix_error] if [fd] is already registered
    or invalid. *)

val modify : t -> Unix.file_descr -> key:int -> int -> unit
(** Replace a registered descriptor's key and interest mask. *)

val remove : t -> Unix.file_descr -> unit
(** Deregister [fd]; call it before closing the descriptor. Removing a
    descriptor that is closed or not registered is a no-op. *)

val wait : t -> timeout_ms:int -> int
(** Block until at least one registered descriptor is ready or the
    timeout lapses ([-1] = forever, [0] = non-blocking probe). Returns
    the number [n] of ready descriptors, readable with {!key} and
    {!events} at indices [0 .. n-1] until the next wait; [EINTR]
    surfaces as [0] (the caller re-loops). Raises [Unix.Unix_error] on
    real failures. *)

val key : t -> int -> int
(** The key of the [i]-th ready descriptor of the last {!wait}. *)

val events : t -> int -> int
(** Its readiness mask — test with [events land pollin <> 0] etc. *)

val reserve : int -> int
(** [reserve n] grows this process's descriptor table to hold at least
    [n] descriptors, [n] clamped to the soft [RLIMIT_NOFILE], and returns
    the count it now covers ([0] if it could not grow it). It opens no
    descriptor that outlives the call and closes none of the caller's
    ([fcntl(F_DUPFD_CLOEXEC)] on a throwaway descriptor, not [dup2]).

    Why: Linux grows the table by doubling, and once a process has a
    second thread each doubling waits an RCU grace period (about 14 ms
    on a 2-vCPU VM). Reserved while the process has one thread, the table costs no
    grace period, and later [accept]s never grow it. *)
