//go:build linux && (amd64 || arm64)

package transport_test

import (
	"math"
	"math/rand"
	"testing"

	"aggregathor/internal/cluster"
	"aggregathor/internal/data"
	"aggregathor/internal/gar"
	"aggregathor/internal/nn"
	"aggregathor/internal/opt"
	"aggregathor/internal/transport"
)

// TestUDPBackendSegmentedMatchesUnsegmented: how many datagrams share a trip
// through the kernel is invisible to training. The paper's lossyMPI
// configuration — float32 wire, 10 % scheduled uplink drops, a lossy model
// channel, fill-random recoup, a reversed-gradient worker — gives bit-equal
// losses and parameters with every socket of the deployment held at one
// datagram a message and with the sockets as probed (and
// TestInProcessLossyMatchesUDPBackend pins both to the in-process twin).
func TestUDPBackendSegmentedMatchesUnsegmented(t *testing.T) {
	const workers, steps = 7, 12
	ds := data.SyntheticFeatures(300, 10, 3, 50)
	ds.MinMaxScale()
	run := func() ([]float64, []float64) {
		cl, err := cluster.NewUDPCluster(cluster.UDPClusterConfig{
			Addr:          "127.0.0.1:0",
			ModelFactory:  func() *nn.Network { return nn.NewMLP(10, []int{64}, 3, rand.New(rand.NewSource(51))) },
			Workers:       workers,
			GAR:           gar.NewMultiKrum(1),
			Optimizer:     &opt.SGD{Schedule: opt.Fixed{Rate: 0.3}},
			Batch:         32,
			Train:         ds,
			Byzantine:     map[int]string{workers - 1: "reversed"},
			Codec:         transport.Codec{Float32: true},
			DropRate:      0.10,
			Recoup:        transport.FillRandom,
			ModelDropRate: 0.05,
			StaleModels:   true,
			MTU:           128, // 899 parameters: 41 datagrams a transfer, a message of its own when segmented
			Seed:          13,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Start(); err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		losses := make([]float64, steps)
		for i := range losses {
			sr, err := cl.Step()
			if err != nil {
				t.Fatal(err)
			}
			if sr.Received != workers {
				t.Fatalf("round %d settled %d of %d slots", i, sr.Received, workers)
			}
			losses[i] = sr.Loss
		}
		return losses, cl.Params()
	}

	probed := transport.SetMaxSegs(1)
	defer transport.SetMaxSegs(probed) // also when the unsegmented run fails
	offLoss, offParams := run()
	// The hook took: a socket opened under it writes one datagram a message.
	sink, err := transport.ListenUDP("127.0.0.1:0", transport.Codec{}, transport.DropGradient, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	send, err := transport.DialUDP(sink.Addr(), transport.Codec{}, 0, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer send.Close()
	if err := send.SendGradient(&transport.GradientMsg{Grad: make([]float64, 1000)}); err != nil {
		t.Fatal(err)
	}
	if st := send.Stats(); st.Messages != st.Datagrams || st.Datagrams < 2 {
		t.Fatalf("segmentation forced off, yet %d datagrams left in %d messages", st.Datagrams, st.Messages)
	}
	transport.SetMaxSegs(probed)
	onLoss, onParams := run()

	for i := range offLoss {
		if math.Float64bits(offLoss[i]) != math.Float64bits(onLoss[i]) {
			t.Fatalf("round %d: loss %v unsegmented, %v segmented", i, offLoss[i], onLoss[i])
		}
	}
	if len(offParams) == 0 || len(offParams) != len(onParams) {
		t.Fatalf("%d parameters unsegmented, %d segmented", len(offParams), len(onParams))
	}
	for i := range offParams {
		if math.Float64bits(offParams[i]) != math.Float64bits(onParams[i]) {
			t.Fatalf("parameter %d: %v unsegmented, %v segmented", i, offParams[i], onParams[i])
		}
	}
}
