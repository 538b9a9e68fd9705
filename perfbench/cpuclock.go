package main

import (
	"errors"
	"os"
	"strconv"
	"syscall"
	"time"
	"unsafe"
)

// selfCPU is the CPU time this process has used over all its threads.
// It reads the kernel's scheduler clock of the process, which advances
// only while one of its threads runs: time the machine gave to other
// processes, or to other guests of a shared host (steal), does not
// count.
func selfCPU() time.Duration {
	const clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	var ts syscall.Timespec
	// Linux always has this clock; on failure ts stays zero.
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPU, uintptr(unsafe.Pointer(&ts)), 0)
	return time.Duration(ts.Nano())
}

// cpuMask is a Linux CPU affinity mask for up to 1024 CPUs.
type cpuMask [16]uint64

// pinToOneCPU binds every thread of this process to the last CPU it may
// run on. Threads created later, and processes it starts, inherit the
// binding. So the benchmark and each rewire-serve it starts share one
// core: handing a request from client to daemon and back is a switch on
// that core, never a wake-up of an idle core, whose delay on a shared
// host depends on the other guests' load.
func pinToOneCPU() error {
	var allowed cpuMask
	if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(allowed), uintptr(unsafe.Pointer(&allowed))); e != 0 {
		return e
	}
	last := -1
	for c := 0; c < len(allowed)*64; c++ {
		if allowed[c/64]&(1<<(c%64)) != 0 {
			last = c
		}
	}
	if last < 0 {
		return errors.New("no CPU in the affinity mask")
	}
	var one cpuMask
	one[last/64] = 1 << (last % 64)
	// Twice, in case a thread not yet bound started another in between.
	for round := 0; round < 2; round++ {
		tasks, err := os.ReadDir("/proc/self/task")
		if err != nil {
			return err
		}
		for _, t := range tasks {
			tid, err := strconv.Atoi(t.Name())
			if err != nil {
				continue
			}
			if _, _, e := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, uintptr(tid), unsafe.Sizeof(one), uintptr(unsafe.Pointer(&one))); e != 0 && e != syscall.ESRCH {
				return e
			}
		}
	}
	return nil
}
