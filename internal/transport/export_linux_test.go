//go:build linux && (amd64 || arm64)

package transport

// SetMaxSegs sets the segs a socket opened from now on probes where the
// kernel knows UDP_SEGMENT, and returns the previous value — for the tests
// of package transport_test, which reach sockets only through the clusters
// that own them.
func SetMaxSegs(n int) (old int) {
	old, maxSegs = maxSegs, n
	return old
}
