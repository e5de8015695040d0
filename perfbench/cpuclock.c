/* CPU-time clocks for the benchmark's busy-time measurements.

   The kernel charges a thread only for the time it actually ran: time
   it waited for a core, whether behind another process or because the
   hypervisor ran another guest ("steal"), is not counted. These clocks
   read that charge in nanoseconds. */

#define _GNU_SOURCE
#include <time.h>
#include <sys/types.h>
#include <caml/mlvalues.h>

static value read_clock(clockid_t id)
{
  struct timespec ts;
  if (clock_gettime(id, &ts) != 0) return Val_long(-1);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}

/* CPU time of the calling thread. */
value perfbench_thread_cpu_ns(value unit)
{
  (void)unit;
  return read_clock(CLOCK_THREAD_CPUTIME_ID);
}

/* CPU time of every thread of process [pid], finished ones included;
   -1 when it cannot be read (the process is gone). */
value perfbench_pid_cpu_ns(value pid)
{
  clockid_t id;
  if (clock_getcpuclockid((pid_t)Long_val(pid), &id) != 0) return Val_long(-1);
  return read_clock(id);
}
