package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"syscall"
	"unsafe"
)

// pinToOneCPU confines the process, the kernel's work on its behalf included,
// to the first CPU it is allowed on, so that GOMAXPROCS is 1 and nothing
// migrates. On the build machine's two shared vCPUs that is what makes round
// time follow the yardstick in proportion: with both in use, time and CPU per
// round grow two to four times as fast as the yardstick when the host is busy
// (spinning scheduler threads, cross-CPU wake-ups), and with GOMAXPROCS 1
// alone the one busy thread wanders between the vCPUs and round time is
// bimodal. README.md, "Host speed", has the measurements.
//
// An affinity mask set on a thread covers only that thread and the threads
// it starts later, and the Go runtime has started some already; so the mask
// is set on this thread and the program executed again on it, which every
// thread of the new image inherits. The second time round the process sees
// one CPU and returns at once, as do the child processes of an
// all-workloads run.
func pinToOneCPU() error {
	if runtime.NumCPU() == 1 {
		return nil
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var mask [128]uint64 // room for 8192 CPUs
	_, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return fmt.Errorf("sched_getaffinity: %w", errno)
	}
	first := -1
	for i := range mask {
		for bit := 0; bit < 64 && first < 0; bit++ {
			if mask[i]&(1<<bit) != 0 {
				first = i*64 + bit
			}
		}
		mask[i] = 0
	}
	if first < 0 {
		return errors.New("empty CPU affinity mask")
	}
	mask[first/64] = 1 << (first % 64)
	_, _, errno = syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(mask), uintptr(unsafe.Pointer(&mask)))
	if errno != 0 {
		return fmt.Errorf("sched_setaffinity: %w", errno)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	return fmt.Errorf("exec %s: %w", self, syscall.Exec(self, os.Args, os.Environ()))
}
