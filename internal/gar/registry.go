package gar

import (
	"fmt"
	"sort"
	"sync"
)

// Factory builds a GAR from the Byzantine tolerance f requested on the
// command line (mirroring AggregaThor's --aggregator flag; rules that ignore
// f, like average, discard it).
type Factory func(f int) (GAR, error)

var (
	registryMu sync.RWMutex
	registry   = map[string]Factory{}
)

// Register adds a named GAR factory. Registering an empty name or a
// duplicate name panics: both indicate a programming error at init time.
// Mirrors the paper's "adding a new GAR boils down to adding a script to a
// directory" extensibility claim.
func Register(name string, factory Factory) {
	if name == "" || factory == nil {
		panic("gar: Register with empty name or nil factory")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := registry[name]; dup {
		panic(fmt.Sprintf("gar: duplicate registration of %q", name))
	}
	registry[name] = factory
}

// New builds the named GAR with Byzantine tolerance f. A rule that declares
// a tolerance rejects a negative one here, before it ever sees a gradient.
func New(name string, f int) (GAR, error) {
	registryMu.RLock()
	factory, ok := registry[name]
	registryMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("gar: unknown aggregator %q (available: %v)", name, Names())
	}
	rule, err := factory(f)
	if err != nil {
		return nil, err
	}
	if info, ok := rule.(ByzantineInfo); ok {
		if err := checkF(name, info.F()); err != nil {
			return nil, err
		}
	}
	return rule, nil
}

// Names returns the sorted list of registered GAR names.
func Names() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func init() {
	Register("average", func(int) (GAR, error) { return Average{}, nil })
	Register("selective-average", func(int) (GAR, error) { return SelectiveAverage{}, nil })
	Register("median", func(int) (GAR, error) { return Median{}, nil })
	Register("trimmed-mean", func(f int) (GAR, error) { return TrimmedMean{Beta: f}, nil })
	Register("krum", func(f int) (GAR, error) { return NewKrum(f), nil })
	Register("multi-krum", func(f int) (GAR, error) { return NewMultiKrum(f), nil })
	Register("bulyan", func(f int) (GAR, error) { return NewBulyan(f), nil })
}
