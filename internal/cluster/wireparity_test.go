package cluster

import (
	"math"
	"math/rand"
	"testing"

	"aggregathor/internal/attack"
	"aggregathor/internal/data"
	"aggregathor/internal/nn"
	"aggregathor/internal/ps"
	"aggregathor/internal/tensor"
	"aggregathor/internal/transport"
)

// TestAttackWireParity is the codec/RNG-threading drift detector: for every
// registered attack, the forged gradient a Byzantine worker delivers over a
// real TCP connection must be bit-identical to the in-process Forge output
// for the same run seed and context. The expected side replicates the exact
// pipeline an in-process ps.Cluster runs (honest peers' gradients in
// ascending worker order, the worker's own honest gradient, the attack RNG
// derived via ps.AttackSeed); the actual side exercises the real
// TCPCluster.runWorker code path and the real wire. Two rounds are compared
// so stateful attacks (stale) and RNG advancement are covered too.
func TestAttackWireParity(t *testing.T) {
	const (
		workers = 5
		byzID   = 3
		batch   = 8
		seed    = 11
		rounds  = 2
	)
	ds := data.SyntheticFeatures(120, 6, 3, 9)
	ds.MinMaxScale()
	factory := func() *nn.Network {
		return nn.NewMLP(6, []int{8}, 3, rand.New(rand.NewSource(10)))
	}
	params := factory().ParamsVector()

	for _, name := range attack.Names() {
		t.Run(name, func(t *testing.T) {
			// Expected: the in-process forge pipeline, computed locally.
			expAtk, err := attack.New(name)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(ps.AttackSeed(seed, byzID)))
			replica := factory()
			replica.SetParamsVector(params)
			ownSampler := data.NewUniformSampler(ds, ps.SamplerSeed(seed, byzID))
			var peerIDs []int
			peerSamplers := map[int]*data.UniformSampler{}
			for p := 0; p < workers; p++ {
				if p == byzID {
					continue
				}
				peerIDs = append(peerIDs, p)
				peerSamplers[p] = data.NewUniformSampler(ds, ps.SamplerSeed(seed, p))
			}
			expected := make([]tensor.Vector, rounds)
			for step := 0; step < rounds; step++ {
				x, y := ownSampler.Sample(batch)
				_, own := replica.Gradient(x, y)
				own = own.Clone()
				var honest []tensor.Vector
				for _, p := range peerIDs {
					px, py := peerSamplers[p].Sample(batch)
					_, g := replica.Gradient(px, py)
					honest = append(honest, g.Clone())
				}
				expected[step] = expAtk.Forge(&attack.Context{
					Step:   step,
					Honest: honest,
					Own:    own,
					N:      workers,
					F:      1,
					Dim:    own.Dim(),
					Rng:    rng,
				})
			}

			// Actual: the real worker main loop over a real socket.
			cfg := &TCPClusterConfig{
				ModelFactory: factory,
				Workers:      workers,
				Batch:        batch,
				Train:        ds,
				Byzantine:    map[int]string{byzID: name},
				Seed:         seed,
			}
			ln, err := transport.ListenTCP("127.0.0.1:0", cfg.Codec)
			if err != nil {
				t.Fatal(err)
			}
			defer ln.Close()
			done := make(chan error, 1)
			cl := &TCPCluster{}
			cl.cfg, cl.rounds = *cfg, cfg.round()
			go func() { done <- cl.runWorker(ln.Addr(), byzID) }()
			conn, err := ln.Accept()
			if err != nil {
				t.Fatal(err)
			}
			for step := 0; step < rounds; step++ {
				if err := conn.SendModel(&transport.ModelMsg{Step: step, Params: params}); err != nil {
					t.Fatal(err)
				}
				msg, err := conn.RecvGradient()
				if err != nil {
					t.Fatal(err)
				}
				if msg.Worker != byzID || msg.Step != step {
					t.Fatalf("wire submission identifies as worker %d step %d", msg.Worker, msg.Step)
				}
				want := expected[step]
				if msg.Grad.Dim() != want.Dim() {
					t.Fatalf("step %d: wire gradient dim %d, want %d", step, msg.Grad.Dim(), want.Dim())
				}
				for i := range want {
					// Bit comparison: NaN payloads must survive the wire
					// and RNG streams must not drift by even one draw.
					if math.Float64bits(msg.Grad[i]) != math.Float64bits(want[i]) {
						t.Fatalf("step %d: coordinate %d drifted over the wire: %v vs in-process %v",
							step, i, msg.Grad[i], want[i])
					}
				}
			}
			conn.Close()
			if err := <-done; err != nil {
				t.Fatalf("worker exited with %v", err)
			}
		})
	}
}

// TestBlindAttackBuildsNoOracle: only an attack that reads Context.Honest
// pays for the honest-gradient oracle. A Byzantine socket worker running a
// blind attack holds no peer replica or samplers (it used to recompute every
// honest peer's gradient each round and discard them); an informed one still
// replicates every honest, responsive peer.
func TestBlindAttackBuildsNoOracle(t *testing.T) {
	ds := data.SyntheticFeatures(40, 6, 3, 9)
	spec := &UDPClusterConfig{
		ModelFactory: func() *nn.Network { return nn.NewMLP(6, []int{4}, 3, rand.New(rand.NewSource(1))) },
		Workers:      7,
		Batch:        4,
		Train:        ds,
		Byzantine:    map[int]string{5: "reversed", 6: "omniscient"},
		Unresponsive: map[int]bool{0: true},
		Seed:         3,
	}
	rc := spec.round()
	blind, err := newClusterWorker(5, spec, &rc)
	if err != nil {
		t.Fatal(err)
	}
	if blind.atk == nil || blind.peerReplica != nil || len(blind.peers) != 0 || len(blind.peerSamplers) != 0 {
		t.Errorf("reversed worker built an oracle: replica %v, %d peers, %d samplers",
			blind.peerReplica != nil, len(blind.peers), len(blind.peerSamplers))
	}
	informed, err := newClusterWorker(6, spec, &rc)
	if err != nil {
		t.Fatal(err)
	}
	if informed.peerReplica == nil || len(informed.peers) != 4 || len(informed.peerSamplers) != 4 {
		t.Errorf("omniscient worker: replica %v, peers %v, %d samplers; want honest peers 1-4",
			informed.peerReplica != nil, informed.peers, len(informed.peerSamplers))
	}
	msg := blind.submission(&transport.ModelMsg{Step: 0, Params: spec.ModelFactory().ParamsVector()})
	if msg == nil || msg.Grad.Dim() == 0 {
		t.Fatal("reversed worker submitted nothing")
	}
}
