//go:build linux

package transport

import (
	"net"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"aggregathor/internal/tensor"
)

// TestModelBurstShortReadBuffer is the kernel-overflow regression at
// paper-ish scale: an unpaced burst larger than the receive buffer is
// silently truncated by the kernel (the "loss-free" channel genuinely
// drops, and pre-fix the worker wedged on the torn broadcast), while a
// paced sender with a concurrently draining receiver delivers the same
// burst intact through the same short buffer. It is linux-only for the
// SIOCINQ ioctl that tells the paced sender the receiver has caught up.
func TestModelBurstShortReadBuffer(t *testing.T) {
	const dim = 20000 // 160 KB of float64 coordinates: >> a 4 KB socket buffer
	const mtu = DefaultMTU

	// Unpaced: the burst overflows the buffer, the broadcast is torn, and
	// the collector recovers within the bounded wait instead of pinning
	// the partial for the idle timeout.
	recv, send, codec := modelFixture(t, dim, mtu)
	if err := recv.conn.SetReadBuffer(4 << 10); err != nil {
		t.Fatal(err)
	}
	sendModelPackets(t, send, codec, 0, mtu, modelParams(dim), nil)
	col := NewModelCollector(ModelCollectorConfig{Dim: dim, MTU: mtu, Codec: codec})
	ev, err := recvModel(recv, col, tensor.NewVector(dim), 300*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !ev.Lost {
		t.Fatalf("unpaced 160KB burst into a 4KB buffer delivered %+v, want genuine loss", ev)
	}
	if col.InFlight() {
		t.Fatalf("torn partial still pinned after eviction: %d pending", len(col.pending))
	}

	// Paced: same short buffer, sender rate-limited, receiver draining
	// concurrently — the broadcast must complete. The pause between bursts
	// lasts until the receiver has emptied its queue, not a wall-clock
	// guess at how soon the reader gets scheduled: delivery then rests on
	// the sender pausing every burst, which is what pacing is.
	recv2, send2, _ := modelFixture(t, dim, mtu)
	if err := recv2.conn.SetReadBuffer(4 << 10); err != nil {
		t.Fatal(err)
	}
	send2.SetPacing(2048, time.Millisecond)
	send2.chunk.sleep = func(time.Duration) { waitQueueEmpty(t, recv2.conn) }
	params := modelParams(dim)
	done := make(chan error, 1)
	go func() {
		pkts := codec.Split(&GradientMsg{Worker: ModelWorkerID, Step: 0, Grad: params}, mtu)
		for i := range pkts {
			if err := send2.SendPackets([]Packet{pkts[i]}, nil); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	col2 := NewModelCollector(ModelCollectorConfig{Dim: dim, MTU: mtu, Codec: codec})
	ev, err = recvModel(recv2, col2, tensor.NewVector(dim), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if sendErr := <-done; sendErr != nil {
		t.Fatal(sendErr)
	}
	if !ev.Complete || ev.Step != 0 {
		t.Fatalf("paced burst through a short buffer settled as %+v, want complete step 0", ev)
	}
	for i := range params {
		if ev.Params[i] != params[i] {
			t.Fatalf("paced delivery corrupted coordinate %d", i)
		}
	}
}

// waitQueueEmpty returns once conn's receive queue holds no datagram
// (SIOCINQ reads the size of the next one, 0 when there is none), or after
// 10 s, so a reader that stopped fails the test instead of hanging it. It
// runs on the sender's goroutine, so it reports with t.Error.
func waitQueueEmpty(t *testing.T, conn *net.UDPConn) {
	rc, err := conn.SyscallConn()
	if err != nil {
		t.Error(err)
		return
	}
	for deadline := time.Now().Add(10 * time.Second); ; {
		var next int32
		var errno syscall.Errno
		if err := rc.Control(func(fd uintptr) {
			_, _, errno = syscall.Syscall(syscall.SYS_IOCTL, fd, syscall.TIOCINQ, uintptr(unsafe.Pointer(&next)))
		}); err != nil || errno != 0 {
			t.Errorf("SIOCINQ: %v %v", err, errno)
			return
		}
		if next == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Error("the receive queue was not drained in 10 s")
			return
		}
		time.Sleep(50 * time.Microsecond)
	}
}
