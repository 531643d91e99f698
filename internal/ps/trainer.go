package ps

import "aggregathor/internal/nn"

// Trainer is the minimal surface a training driver needs from an assembled
// deployment: advance one synchronous round and evaluate the current model.
// Both deployments in this package implement it — the Cluster (a Draco run
// is one, with group samplers and the plan as its rule) and the replicated
// server — as do the socket-distributed cluster.TCPCluster and UDPCluster,
// which is what lets one loop (core's runTraining, the scenario campaign
// engine) drive them all uniformly.
type Trainer interface {
	// Step runs one synchronous round.
	Step() (*StepResult, error)
	// Model returns the evaluation replica, synchronised with the current
	// parameters.
	Model() *nn.Network
}

var (
	_ Trainer = (*Cluster)(nil)
	_ Trainer = (*ReplicatedCluster)(nil)
)
