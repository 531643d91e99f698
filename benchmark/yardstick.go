package main

import (
	"fmt"
	"syscall"
	"time"
)

// The build machine is a small VM on a shared host whose memory system the
// neighbours load in episodes of seconds to tens of minutes: the same code
// then runs 30-70% slower for a while (README.md, "Host speed"). A loop in
// registers does not see it; a copy through DRAM does, in step with the
// workloads. The yardstick is that copy, timed between rounds, and every
// bounded time metric is scaled to what it would read on a host where the
// yardstick takes yardNominalMS. Raw values and the factor are reported too.
const (
	yardBytes     = 16 << 20 // source and destination each: well past any cache share
	yardNominalMS = 2.8      // the copy on the build machine with quiet neighbours
	yardEvery     = 250 * time.Millisecond
)

// yardstick owns two buffers outside the Go heap, so that they neither move
// the collector's pacing nor get scanned.
type yardstick struct {
	mem   []byte        // source half, destination half
	spent time.Duration // total time inside measure: CPU the program did not use
}

func newYardstick() (*yardstick, error) {
	mem, err := syscall.Mmap(-1, 0, 2*yardBytes, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("yardstick buffers: %w", err)
	}
	for i := range mem {
		mem[i] = byte(i) // fault every page in before the first timed copy
	}
	return &yardstick{mem: mem}, nil
}

func (y *yardstick) close() error { return syscall.Munmap(y.mem) }

// measure times one copy, in milliseconds.
func (y *yardstick) measure() float64 {
	t0 := time.Now()
	copy(y.mem[yardBytes:], y.mem[:yardBytes])
	d := time.Since(t0)
	y.spent += d
	return float64(d.Nanoseconds()) / 1e6
}

// hostScale is what a time measured while the yardstick read yardMS is
// multiplied by: the share of it the process spent on a CPU shrinks or grows
// with the yardstick, the share it spent waiting (pacing sleeps, timers) does
// not. The callers take CPU time over wall time, capped at 1, for that share:
// exact on one core, and on more an upper bound that only the UDP workloads,
// which sleep for a third of a round, stay under.
func hostScale(busyShare, yardMS float64) float64 {
	busyShare = min(max(busyShare, 0), 1)
	return (1 - busyShare) + busyShare*yardNominalMS/yardMS
}
