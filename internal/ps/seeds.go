package ps

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
