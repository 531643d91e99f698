package transport

import (
	"fmt"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestMain is the package's leak gate, over every test the package has:
// once they have all run, no goroutine may still have a frame in this
// package, and no more descriptors may be open than before the first test.
// Goroutines get 5 s to exit, as in internal/cluster's gate.
func TestMain(m *testing.M) {
	fds := openFDs()
	code := m.Run()
	if code == 0 {
		if err := leaks("aggregathor/internal/transport", fds); err != nil {
			fmt.Fprintln(os.Stderr, "leak gate:", err)
			code = 1
		}
	}
	os.Exit(code)
}

// openFDs counts the process's open descriptors on linux (0 elsewhere). The
// netpoller's own descriptors open with the process's first socket, so one
// is opened and closed before counting.
func openFDs() int {
	if pc, err := net.ListenPacket("udp", "127.0.0.1:0"); err == nil {
		pc.Close()
	}
	if runtime.GOOS != "linux" {
		return 0
	}
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		panic(err)
	}
	return len(fds)
}

// leaks waits up to 5 s for every other goroutine with a frame in pkg to
// exit, then reports those still alive and any descriptors open above fds.
func leaks(pkg string, fds int) error {
	var alive []string
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		buf := make([]byte, 1<<16)
		n := runtime.Stack(buf, true)
		for ; n == len(buf); n = runtime.Stack(buf, true) {
			buf = make([]byte, 2*len(buf))
		}
		alive = alive[:0]
		for _, g := range strings.Split(string(buf[:n]), "\n\n")[1:] { // [0] is this goroutine
			if strings.Contains(g, pkg+".") {
				alive = append(alive, g)
			}
		}
		if len(alive) == 0 || time.Now().After(deadline) {
			break
		}
	}
	if len(alive) > 0 {
		return fmt.Errorf("%d goroutines still run %s code:\n%s", len(alive), pkg, strings.Join(alive, "\n\n"))
	}
	if n := openFDs(); n > fds {
		return fmt.Errorf("%d descriptors open, %d before the first test", n, fds)
	}
	return nil
}
