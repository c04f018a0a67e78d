package main

import (
	"os"
	"strconv"
	"strings"
	"syscall"
	"time"
	"unsafe"
)

// Linux's CLOCK_PROCESS_CPUTIME_ID and CLOCK_THREAD_CPUTIME_ID.
const (
	clockProcessCPUTime = 2
	clockThreadCPUTime  = 3
)

// processCPU returns the CPU time all of the process's threads have used.
// That includes the garbage collector's workers and the sweeper, which
// run on other threads than the caller, so a change that allocates more
// shows in the engine times. The kernel leaves out time the virtual CPUs
// were descheduled by the hypervisor (steal), which on a shared host
// otherwise moves engine run times by several percent between runs. The
// engine workloads have a single caller, so no other work of the
// benchmark's is counted.
func processCPU() time.Duration { return cpuClock(clockProcessCPUTime) }

// threadCPU returns the CPU time the calling OS thread has used. Callers
// lock the goroutine to its thread between the two readings they
// subtract.
func threadCPU() time.Duration { return cpuClock(clockThreadCPUTime) }

func cpuClock(id uintptr) time.Duration {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic("perfbench: clock_gettime: " + errno.Error())
	}
	return time.Duration(ts.Nano())
}

// timed runs f and returns its wall-clock start and end and the CPU time
// the process spent in it. Engine runs are single-threaded and CPU-bound,
// and the engine workloads run with one P, so on an idle host the CPU
// time, the garbage collector's share included, is about the wall time.
func timed(f func()) (start, end time.Time, cpu time.Duration) {
	start = time.Now()
	c0 := processCPU()
	f()
	cpu = processCPU() - c0
	end = time.Now()
	return start, end, cpu
}

// vmTicks are the virtual machine's CPU time accounts from the first line
// of /proc/stat: the steal column and the sum of all columns.
type vmTicks struct{ steal, total uint64 }

func readTicks() vmTicks {
	var t vmTicks
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return t
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			break
		}
		if i == 7 {
			t.steal = v
		}
		t.total += v
	}
	return t
}

// stealFrac is the share of the virtual machine's CPU time between a and
// b that the hypervisor gave to other tenants. Wall-clock times multiplied
// by 1 − stealFrac leave that time out, as the process CPU clock does.
func stealFrac(a, b vmTicks) float64 {
	if b.total <= a.total {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}
