package scenario

import (
	"encoding/json"
	"errors"
	"math/rand"
	"testing"

	"aggregathor/internal/attack"
	"aggregathor/internal/cluster"
	"aggregathor/internal/core"
	"aggregathor/internal/data"
	"aggregathor/internal/gar"
	"aggregathor/internal/nn"
	"aggregathor/internal/opt"
	"aggregathor/internal/ps"
)

// forbidden is one configuration no deployment may run, described in the
// vocabulary every entry point shares.
type forbidden struct {
	name  string
	want  error // the sentinel errors.Is must find; nil for a rule without one
	async ps.AsyncConfig
	churn ps.ChurnConfig
	// modelDrop and stale are the model-loss axis: a downlink drop rate, and
	// stale recoup requested (at any rate — the axis is on either way).
	modelDrop    float64
	stale        bool
	informed     bool // a worker runs an attack that recomputes honest gradients
	unresponsive bool // a worker takes broadcasts and never answers
	float32      bool
	udpLinks     int // in-process workers on the datagram link
}

var (
	quorum = ps.AsyncConfig{Quorum: 6, Staleness: 2}
	slow   = ps.AsyncConfig{Quorum: 6, Staleness: 2, SlowRate: 0.25}
	churn  = ps.ChurnConfig{Rate: 0.05, DownSteps: 2, MaxRejoins: 2}
)

// forbiddenPairs is the table the guard-parity analyzer used to reconstruct
// from four packages' source: the six sentinel pairs — with the rows the
// layers used to disagree on, stale recoup requested at drop rate 0 — and
// churn × unresponsive.
var forbiddenPairs = []forbidden{
	{name: "async × model loss", want: ps.ErrAsyncModelLoss, async: quorum, modelDrop: 0.1},
	{name: "async × stale recoup at rate 0", want: ps.ErrAsyncModelLoss, async: quorum, stale: true},
	{name: "churn × async", want: ps.ErrChurnAsync, churn: churn, async: quorum},
	{name: "churn × model loss", want: ps.ErrChurnModelLoss, churn: churn, modelDrop: 0.1},
	{name: "churn × stale recoup at rate 0", want: ps.ErrChurnModelLoss, churn: churn, stale: true},
	{name: "informed × slow", want: ps.ErrInformedSlow, informed: true, async: slow},
	{name: "informed × churn", want: ps.ErrInformedChurn, informed: true, churn: churn},
	{name: "informed × model loss", want: ps.ErrInformedModelLoss, informed: true, modelDrop: 0.1},
	{name: "informed × stale recoup at rate 0", want: ps.ErrInformedModelLoss, informed: true, stale: true},
	{name: "churn × unresponsive", churn: churn, unresponsive: true},
}

// incapable is what the in-process backend cannot express — core's three
// capability rules, which scenario inherits through its dry validation — and
// the two ways to ask for a number of lossy links the cluster does not have.
var incapable = []forbidden{
	{name: "in-process churn", churn: churn},
	{name: "in-process model loss", modelDrop: 0.1},
	{name: "in-process float32 without a lossy link", float32: true},
	{name: "a negative number of lossy links", udpLinks: -3},
	{name: "more lossy links than workers", udpLinks: 40},
}

const guardWorkers, guardF = 7, 1

func (f forbidden) attackName() string {
	if f.informed {
		return "omniscient"
	}
	return "reversed"
}

// network is the forbidden configuration's network on the named backend, in
// the one description a campaign cell and a core.Config share.
func (f forbidden) network(backend string) core.Network {
	n := core.Network{Backend: backend, AsyncConfig: f.async, ModelDropRate: f.modelDrop, UDPLinks: f.udpLinks}
	if f.churn.Enabled() {
		n.Churn = &f.churn
	}
	if f.stale {
		n.ModelRecoup = "stale"
	}
	if f.float32 {
		n.WireFormat = "float32"
	}
	return n
}

// viaSpec and viaCore build the configuration on the named backend at the
// two layers that take one; viaCluster and viaPS at the constructors.
func (f forbidden) viaSpec(backend string) error {
	raw, err := json.Marshal(Spec{Networks: []Network{{Name: "cell", Network: f.network(backend)}}, GARs: []string{"median"},
		Attacks: []string{AttackNone, f.attackName()}, Clusters: []Cluster{{Workers: guardWorkers, F: guardF}}})
	if err != nil {
		return err
	}
	_, err = ParseSpec(raw)
	return err
}

func (f forbidden) viaCore(backend string) error {
	_, err := core.Run(core.Config{Network: f.network(backend), Aggregator: "median", Workers: guardWorkers, F: guardF, Steps: 1,
		Attacks: map[int]string{guardWorkers - 1: f.attackName()}})
	return err
}

func guardFactory() *nn.Network { return nn.NewMLP(6, nil, 3, rand.New(rand.NewSource(1))) }

func (f forbidden) viaCluster(backend string) error {
	cfg := cluster.UDPClusterConfig{Addr: "127.0.0.1:0", ModelFactory: guardFactory, Workers: guardWorkers,
		Batch: 4, Train: data.SyntheticFeatures(40, 6, 3, 1), GAR: gar.Median{}, Optimizer: &opt.SGD{Schedule: opt.Fixed{Rate: 0.1}},
		Byzantine: map[int]string{guardWorkers - 1: f.attackName()}, Async: f.async, Churn: f.churn, ModelDropRate: f.modelDrop, StaleModels: f.stale}
	if f.unresponsive {
		cfg.Unresponsive = map[int]bool{0: true}
	}
	var err error
	if backend == core.BackendTCP {
		_, err = cluster.NewTCPCluster(cfg)
	} else {
		_, err = cluster.NewUDPCluster(cfg)
	}
	return err
}

func (f forbidden) viaPS() error {
	train := data.SyntheticFeatures(40, 6, 3, 1)
	workers := make([]ps.WorkerConfig, guardWorkers)
	for i := range workers {
		workers[i].Sampler = data.NewUniformSampler(train, ps.SamplerSeed(1, i))
	}
	atk, err := attack.New(f.attackName())
	if err != nil {
		return err
	}
	workers[guardWorkers-1].Attack = atk
	_, err = ps.New(ps.Config{ModelFactory: guardFactory, Workers: workers, GAR: gar.Median{},
		Optimizer: &opt.SGD{Schedule: opt.Fixed{Rate: 0.1}}, Batch: 4, Async: f.async})
	return err
}

// TestForbiddenPairsRejectedAtEveryEntryPoint is the runtime face of what the
// guard-parity analyzer checked statically: every forbidden configuration is
// rejected — with its sentinel, before a socket opens — at every entry point
// that can express it, on every backend that can carry its axes. There is one
// copy of each rule (ps.RoundConfig.Validate); this test pins that every road
// leads through it.
func TestForbiddenPairsRejectedAtEveryEntryPoint(t *testing.T) {
	for _, f := range forbiddenPairs {
		// The axes decide who can say it at all: churn needs sockets, model
		// loss needs datagrams, and only a cluster config names an
		// unresponsive worker.
		needsSockets, needsUDP := f.churn.Enabled(), f.modelDrop > 0 || f.stale
		tried := 0
		check := func(entry string, err error) {
			tried++
			if err == nil {
				t.Errorf("%s: accepted at %s", f.name, entry)
			} else if f.want != nil && !errors.Is(err, f.want) {
				t.Errorf("%s at %s: rejected with %v, want %v", f.name, entry, err, f.want)
			}
		}
		for _, backend := range []string{core.BackendInProcess, core.BackendTCP, core.BackendUDP} {
			if backend == core.BackendInProcess && needsSockets || backend != core.BackendUDP && needsUDP {
				continue
			}
			if !f.unresponsive {
				check("scenario.ParseSpec/"+backend, f.viaSpec(backend))
				check("core.Run/"+backend, f.viaCore(backend))
			}
			if backend != core.BackendInProcess {
				check("cluster.New*Cluster/"+backend, f.viaCluster(backend))
			} else if !f.unresponsive {
				check("ps.New", f.viaPS())
			}
		}
		if tried < 2 {
			t.Errorf("%s: tried at %d entry points — the table row cannot be expressed", f.name, tried)
		}
	}
	for _, f := range incapable {
		for entry, err := range map[string]error{
			"scenario.ParseSpec": f.viaSpec(core.BackendInProcess),
			"core.Run":           f.viaCore(core.BackendInProcess),
		} {
			if err == nil {
				t.Errorf("%s: accepted at %s", f.name, entry)
			}
			for _, pair := range forbiddenPairs {
				if pair.want != nil && errors.Is(err, pair.want) {
					t.Errorf("%s at %s: a capability rule answered with the pair sentinel %v", f.name, entry, pair.want)
				}
			}
		}
	}
	// The same axes, legally composed, pass everywhere — the table rejects
	// for the pair, not for an axis.
	legal := forbidden{name: "legal", churn: churn}
	if err := legal.viaSpec(core.BackendTCP); err != nil {
		t.Errorf("blind attack on a churn cell rejected: %v", err)
	}
	legal = forbidden{name: "legal", stale: true}
	if err := legal.viaCluster(core.BackendUDP); err != nil {
		t.Errorf("stale recoup alone rejected by NewUDPCluster: %v", err)
	}
}
