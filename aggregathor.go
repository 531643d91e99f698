// Package aggregathor is a from-scratch Go reproduction of AGGREGATHOR
// (Damaskinos et al., SysML 2019): Byzantine-resilient distributed SGD via
// robust gradient aggregation.
//
// The package exposes three layers of API:
//
//   - Aggregation rules. Aggregate applies any registered GAR (average,
//     median, trimmed-mean, krum, multi-krum, bulyan, selective-average) to a
//     set of worker gradients — the paper's core algorithms, usable
//     standalone.
//
//   - Experiments. Run executes a full synchronous parameter-server training
//     session with configurable aggregator, optimizer, Byzantine attacks,
//     lossy links and security mode, returning accuracy/throughput/latency
//     series against a simulated Grid5000-like cluster clock.
//
//   - Distributed mode. NewTCPCluster builds a real socket-distributed
//     deployment driven round-by-round (server and workers speak the binary
//     wire protocol over TCP).
//     NewUDPCluster builds the paper's lossyMPI deployment instead:
//     gradients travel real UDP datagrams with seeded per-packet drop
//     injection, and the coordinates lost in flight are recouped by a §3.3
//     policy for the Byzantine-resilient GAR to absorb. A Network — an
//     experiment's Config.Network, and as it is a campaign cell's network
//     beside its name — selects them with Backend "tcp" or "udp"; socket
//     rounds reproduce the in-process trajectories bit-for-bit under
//     identical seeds — at any drop rate: an in-process run with UDPLinks
//     -1 (every worker) and a udp run with the same loss axes are one
//     trajectory, because both run the one round engine on drop schedules
//     (uplink gradients and, per footnote 12 on udp, downlink model
//     broadcasts) and recoup values that are pure functions of (seed, step,
//     worker).
//
// The examples are checked by go test (go test -run Example -v .):
// ExampleRun is the quickstart on the paper's 19-worker cluster,
// ExampleRun_replicatedServer the §6 replicated parameter server,
// ExampleRunCampaign a trimmed smoke campaign, and ExampleAggregate and
// ExampleMultiKrumSelect the standalone rules. See README.md for a tour;
// bench_test.go regenerates the paper's tables and figures, one benchmark
// per exhibit.
package aggregathor

import (
	"fmt"

	"aggregathor/internal/attack"
	"aggregathor/internal/cluster"
	"aggregathor/internal/core"
	"aggregathor/internal/gar"
	"aggregathor/internal/opt"
	"aggregathor/internal/scenario"
	"aggregathor/internal/tensor"
)

// Config describes one training experiment (mirrors the original runner.py
// command line). See core.Config for field documentation.
type Config = core.Config

// Network is one network condition — the deployment backend, the lossy
// links and their loss axes, the async and churn schedules, the clock's
// protocol — in the JSON form a campaign cell embeds. See core.Network for
// field documentation.
type Network = core.Network

// Result holds an experiment's metric series.
type Result = core.Result

// Experiment is a model+dataset preset.
type Experiment = core.Experiment

// TCPClusterConfig describes a round-driveable socket-distributed
// deployment.
type TCPClusterConfig = cluster.TCPClusterConfig

// TCPCluster is a running socket-distributed deployment driven
// round-by-round (Start/Step/Model/Close) — the distributed counterpart of
// the in-process cluster behind Run.
type TCPCluster = cluster.TCPCluster

// UDPClusterConfig describes a round-driveable lossy-datagram deployment
// (the paper's lossyMPI channel over real UDP sockets).
type UDPClusterConfig = cluster.UDPClusterConfig

// UDPCluster is a running lossy-datagram deployment driven round-by-round
// (Start/Step/Model/Close).
type UDPCluster = cluster.UDPCluster

// Run executes one experiment on the simulated cluster.
func Run(cfg Config) (*Result, error) { return core.Run(cfg) }

// CampaignSpec is a declarative GAR × attack × cluster × network sweep.
type CampaignSpec = scenario.Spec

// Campaign is an executed sweep: deterministic per-run results plus a text
// summary ranking aggregation rules per attack.
type Campaign = scenario.Campaign

// RunCampaign expands and executes a scenario sweep on a bounded worker
// pool. The same spec always produces byte-identical Campaign JSON.
func RunCampaign(spec CampaignSpec) (*Campaign, error) { return scenario.Execute(spec) }

// SmokeCampaignSpec returns the built-in demonstration sweep (4 GARs ×
// 3 attacks + baseline × 2 network conditions).
func SmokeCampaignSpec() CampaignSpec { return scenario.SmokeSpec() }

// NewTCPCluster builds a socket-distributed cluster to drive round-by-round.
// Call Start once, Step per synchronous round, and Close to hang up. Rounds
// are reproducible: worker sampler and attack seeds derive from Seed, and
// gradients are aggregated in worker-id order.
func NewTCPCluster(cfg TCPClusterConfig) (*TCPCluster, error) {
	return cluster.NewTCPCluster(cfg)
}

// NewUDPCluster builds a lossy-datagram cluster to drive round-by-round:
// gradients are chunked into UDP packets, DropRate of them are dropped per a
// (Seed, step, worker)-keyed schedule, and the lost coordinates are recouped
// by the configured §3.3 policy. Lossy rounds are deterministic: the same
// configuration always produces bit-identical parameters.
func NewUDPCluster(cfg UDPClusterConfig) (*UDPCluster, error) {
	return cluster.NewUDPCluster(cfg)
}

// Experiments lists the built-in model+dataset presets.
func Experiments() []Experiment { return core.Experiments() }

// Aggregators lists the registered gradient aggregation rules.
func Aggregators() []string { return gar.Names() }

// Attacks lists the registered Byzantine attacks.
func Attacks() []string { return attack.Names() }

// Optimizers lists the registered update rules.
func Optimizers() []string { return opt.Names() }

// Aggregate applies the named GAR with Byzantine tolerance f to the worker
// gradients and returns the aggregated gradient. Inputs are not mutated.
//
// Requirements: multi-krum needs n ≥ 2f+3, bulyan needs n ≥ 4f+3,
// trimmed-mean needs n ≥ 2f+1; average/median/selective-average ignore f.
func Aggregate(name string, f int, grads [][]float64) ([]float64, error) {
	rule, err := gar.New(name, f)
	if err != nil {
		return nil, err
	}
	vecs := make([]tensor.Vector, len(grads))
	for i, g := range grads {
		vecs[i] = tensor.Vector(g)
	}
	out, err := gar.Aggregate(rule, vecs)
	if err != nil {
		return nil, fmt.Errorf("aggregathor: %w", err)
	}
	return out, nil
}

// MultiKrumSelect returns the indexes of the m gradients MULTI-KRUM selects
// (ascending score order); m = 0 selects the maximal safe n−f−2. A negative
// f or m is an error.
func MultiKrumSelect(f, m int, grads [][]float64) ([]int, error) {
	vecs := make([]tensor.Vector, len(grads))
	for i, g := range grads {
		vecs[i] = tensor.Vector(g)
	}
	mk := &gar.MultiKrum{NumByzantine: f, M: m}
	return mk.Select(vecs)
}
