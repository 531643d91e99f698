package ps

import "math/rand"

// Seed derivation for per-worker randomness. Every deployment flavour — the
// in-process Cluster, the socket-distributed cluster.TCPCluster and the core
// experiment runner — must derive worker sampler and attack seeds from the
// run seed through these two functions. Threading the same formulas through
// both backends is what makes an in-process run and a socket-distributed run
// of the same configuration produce identical gradient streams (and lets the
// wire-parity tests catch any drift).

// SamplerSeed derives the data-sampler seed for one worker from the run seed.
func SamplerSeed(runSeed int64, worker int) int64 {
	return runSeed + int64(worker)*31 + 1
}

// AttackSeed derives the Byzantine attack RNG seed for one worker from the
// run seed. It composes the per-worker config seed used by core (runSeed +
// worker) with the stride New applies on top of WorkerConfig.Seed (worker ×
// 7919), so rand.New(rand.NewSource(AttackSeed(s, i))) observes the same
// stream as worker i's rng inside an in-process Cluster built by core.
func AttackSeed(runSeed int64, worker int) int64 {
	return runSeed + int64(worker) + int64(worker)*7919
}

// RecoupSeed derives the RNG seed for recouping one worker's slot at one
// step (the FillRandom stand-in for a gradient that missed the round
// deadline). Keyed per (step, worker) so a recouped round is a pure function
// of the run seed, independent of which rounds before it timed out.
func RecoupSeed(runSeed int64, step, worker int) int64 {
	return runSeed ^ (int64(step)*1000003 + int64(worker)*7907)
}

// The four schedule seeds below are each keyed per (step, worker) — never a
// per-endpoint stream — so the schedule is a pure function of the run
// configuration that BOTH endpoints evaluate: the worker to act on it, the
// server to know exactly which packets or slots will never arrive. That shared
// knowledge is what makes scheduled rounds deterministic and deadline-free: a
// round settles the moment everything the schedules leave is in. The linear
// forms use fresh primes and the 1<<60..62 offsets keep the four lattices
// disjoint for every reachable (step, worker): two linear forms alone collide
// (e.g. step 60 / worker 3 under un-offset constants), which would make one
// schedule's draws bit-identical to another's.

// DropSeed seeds the packet-loss schedule of one worker's gradient datagrams
// at one step (UplinkDrops).
func DropSeed(runSeed int64, step, worker int) int64 {
	return runSeed ^ (int64(step)*999983 + int64(worker)*6007 + 11)
}

// ModelDropSeed seeds the packet-loss schedule of the server→worker model
// broadcast at one step (DownlinkDrops, footnote 12's unreliable model
// channel).
func ModelDropSeed(runSeed int64, step, worker int) int64 {
	return runSeed ^ (int64(step)*1000033 + int64(worker)*5003 + 23 + 1<<62)
}

// ChurnSeed seeds the worker crash/rejoin schedule (ChurnConfig): which live
// workers crash this round, and thereby when each rejoins.
func ChurnSeed(runSeed int64, step, worker int) int64 {
	return runSeed ^ (int64(step)*1000151 + int64(worker)*6983 + 41 + 1<<60)
}

// SlowSeed seeds the asynchronous-round slow-worker schedule (AsyncConfig):
// which workers lag this round and by how many steps.
func SlowSeed(runSeed int64, step, worker int) int64 {
	return runSeed ^ (int64(step)*1000121 + int64(worker)*4999 + 37 + 1<<61)
}

// UplinkDrops evaluates the artificial-loss schedule of worker's gradient
// datagrams at step into mask — one entry per packet, true meaning the
// packet is dropped before the socket write — and returns it; at rate 0 it
// returns nil, which every consumer reads as "nothing dropped". Both
// endpoints call this one function: the worker to drop, the server to know
// which packets will never arrive. rng is caller-owned scratch, reseeded
// here, so steady-state evaluation allocates nothing.
func UplinkDrops(rng *rand.Rand, mask []bool, runSeed int64, step, worker int, rate float64) []bool {
	return drawDrops(rng, mask, DropSeed(runSeed, step, worker), rate)
}

// DownlinkDrops is UplinkDrops' twin for the server→worker model broadcast
// (footnote 12's unreliable model channel), keyed on ModelDropSeed: the
// server drops the scheduled packets before the write, and the worker
// settles a torn broadcast the moment its scheduled survivors are in.
func DownlinkDrops(rng *rand.Rand, mask []bool, runSeed int64, step, worker int, rate float64) []bool {
	return drawDrops(rng, mask, ModelDropSeed(runSeed, step, worker), rate)
}

// drawDrops draws one drop mask from a derived seed — the single
// implementation behind both schedules, so uplink and downlink loss
// semantics can never drift apart.
func drawDrops(rng *rand.Rand, mask []bool, seed int64, rate float64) []bool {
	if rate <= 0 {
		return nil
	}
	rng.Seed(seed)
	for i := range mask {
		mask[i] = rng.Float64() < rate
	}
	return mask
}
