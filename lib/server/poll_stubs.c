/* A minimal epoll(7) binding for the event-driven daemon core, plus the
 * descriptor-table reservation the daemon makes before its first thread.
 *
 * The OCaml standard library only exposes select(2), whose fd_set caps
 * out at FD_SETSIZE (1024 on Linux), and poll(2) makes the caller hand
 * the kernel its whole interest set on every call.  epoll keeps the
 * registration in the kernel: a descriptor is added once, changed only
 * when its interest flips, and a wait costs O(ready), not O(registered).
 *
 * Each registration carries an opaque integer key (epoll_event.data),
 * chosen by the caller; the wait stub copies (key, events) pairs into a
 * preallocated OCaml int array, two slots per ready descriptor.  The
 * runtime lock is released for the duration of epoll_wait (other threads
 * — worker domains, completion posters — keep running), and the kernel
 * writes into a C stack buffer, never the OCaml heap.  Unix.file_descr
 * is an int on Unix, so Int_val moves descriptors directly.
 */

#include <sys/epoll.h>
#include <sys/resource.h>
#include <errno.h>
#include <fcntl.h>
#include <unistd.h>

#include <caml/mlvalues.h>
#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/fail.h>
#include <caml/signals.h>
#include <caml/unixsupport.h>

/* Upper bound on events returned by one wait (the OCaml buffer holds
 * 256).  Level-triggered readiness left unreported stays ready and is
 * returned by the next wait. */
#define SKETCHLB_MAX_EVENTS 256

CAMLprim value sketchlb_epoll_create(value unit)
{
  int fd = epoll_create1(EPOLL_CLOEXEC);
  (void) unit;
  if (fd < 0) uerror("epoll_create1", Nothing);
  return Val_int(fd);
}

CAMLprim value sketchlb_epoll_ctl(value v_epfd, value v_op, value v_fd,
                                  value v_key, value v_events)
{
  static const int ops[] = { EPOLL_CTL_ADD, EPOLL_CTL_MOD, EPOLL_CTL_DEL };
  struct epoll_event ev;
  ev.events = (uint32_t) Int_val(v_events);
  ev.data.u64 = (uint64_t) Long_val(v_key);
  if (epoll_ctl(Int_val(v_epfd), ops[Int_val(v_op)], Int_val(v_fd), &ev) < 0)
    uerror("epoll_ctl", Nothing);
  return Val_unit;
}

CAMLprim value sketchlb_epoll_wait(value v_epfd, value v_buf, value v_timeout_ms)
{
  CAMLparam1(v_buf);
  struct epoll_event evs[SKETCHLB_MAX_EVENTS];
  int epfd = Int_val(v_epfd);
  int timeout_ms = Int_val(v_timeout_ms);
  int max = (int) (Wosize_val(v_buf) / 2);
  int n, err, i;

  if (max > SKETCHLB_MAX_EVENTS) max = SKETCHLB_MAX_EVENTS;
  if (max < 1) caml_invalid_argument("Poll.wait: empty ready buffer");

  caml_enter_blocking_section();
  n = epoll_wait(epfd, evs, max, timeout_ms);
  err = errno;
  caml_leave_blocking_section();

  if (n < 0) {
    if (err == EINTR) CAMLreturn(Val_int(0));
    unix_error(err, "epoll_wait", Nothing);
  }
  /* Immediates into an int array: Store_field stays cheap and correct. */
  for (i = 0; i < n; i++) {
    Store_field(v_buf, 2 * i, Val_long((intnat) evs[i].data.u64));
    Store_field(v_buf, 2 * i + 1, Val_int(evs[i].events));
  }
  CAMLreturn(Val_int(n));
}

/* The event-bit constants are platform-defined; export them rather than
 * hard-coding Linux's values in OCaml. */
CAMLprim value sketchlb_epoll_constants(value unit)
{
  CAMLparam1(unit);
  CAMLlocal1(res);
  res = caml_alloc_tuple(4);
  Store_field(res, 0, Val_int(EPOLLIN));
  Store_field(res, 1, Val_int(EPOLLOUT));
  Store_field(res, 2, Val_int(EPOLLERR));
  Store_field(res, 3, Val_int(EPOLLHUP));
  CAMLreturn(res);
}

/* Grow the descriptor table to cover [want] descriptors (clamped to the
 * soft RLIMIT_NOFILE) in one step, and return the table size reached.
 *
 * Linux grows a process's table by doubling inside the syscall that first
 * needs a higher number (accept, open, ...).  Once the process has a
 * second thread, each doubling waits out an RCU grace period
 * (expand_fdtable's synchronize_rcu), about 14 ms on a 2-vCPU VM, so a
 * server that lets accept grow the table from 64 to 8192 slots stalls
 * seven times.  Called
 * while the process still has one thread, the growth costs no grace
 * period at all, and later accepts never grow the table.
 *
 * F_DUPFD takes the lowest free number >= the target, so unlike dup2 it
 * never closes a descriptor that happens to be open there, and it fails
 * cleanly (EMFILE/EINVAL) past the limit.  The throwaway descriptor is an
 * epoll instance: it needs no file system path.  Best effort: 0 when the
 * table could not be grown. */
CAMLprim value sketchlb_reserve_fds(value v_want)
{
  struct rlimit rl;
  long want = Long_val(v_want);
  int probe, copy;

  if (getrlimit(RLIMIT_NOFILE, &rl) == 0 && rl.rlim_cur != RLIM_INFINITY
      && (rlim_t) want > rl.rlim_cur)
    want = (long) rl.rlim_cur;
  if (want < 1) return Val_int(0);
  probe = epoll_create1(EPOLL_CLOEXEC);
  if (probe < 0) return Val_int(0);
  caml_enter_blocking_section();
  copy = fcntl(probe, F_DUPFD_CLOEXEC, (int) (want - 1));
  if (copy >= 0) close(copy);
  close(probe);
  caml_leave_blocking_section();
  return Val_long(copy < 0 ? 0 : (long) copy + 1);
}
