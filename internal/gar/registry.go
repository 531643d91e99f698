package gar

import "fmt"

// registry is every built-in rule, one row each, sorted by name. A row
// builds its rule from the Byzantine tolerance f requested on the command
// line (mirroring AggregaThor's --aggregator flag; rules that ignore f, like
// average, discard it). The paper's "adding a new GAR boils down to adding a
// script to a directory" is, here, adding a row.
var registry = []struct {
	name string
	new  func(f int) GAR
}{
	{"average", func(int) GAR { return Average{} }},
	{"bulyan", func(f int) GAR { return NewBulyan(f) }},
	// Generic BULYAN composites over the other weak rules (§2.3: the
	// construction works over any weakly Byzantine-resilient GAR).
	{"bulyan-geometric-median", func(f int) GAR { return NewGenericBulyan(NewGeoMedian(f), f) }},
	{"bulyan-median", func(f int) GAR { return NewGenericBulyan(Median{}, f) }},
	{"geometric-median", func(f int) GAR { return NewGeoMedian(f) }},
	{"krum", func(f int) GAR { return NewKrum(f) }},
	{"mean-around-median", func(f int) GAR { return NewMeanAroundMedian(f) }},
	{"median", func(int) GAR { return Median{} }},
	{"multi-krum", func(f int) GAR { return NewMultiKrum(f) }},
	{"selective-average", func(int) GAR { return SelectiveAverage{} }},
	{"trimmed-mean", func(f int) GAR { return TrimmedMean{Beta: f} }},
}

// New builds the named GAR with Byzantine tolerance f. A rule that declares
// a tolerance rejects a negative one here, before it ever sees a gradient.
func New(name string, f int) (GAR, error) {
	for _, row := range registry {
		if row.name != name {
			continue
		}
		rule := row.new(f)
		if info, ok := rule.(ByzantineInfo); ok {
			if err := checkF(name, info.F()); err != nil {
				return nil, err
			}
		}
		return rule, nil
	}
	return nil, fmt.Errorf("gar: unknown aggregator %q (available: %v)", name, Names())
}

// Names returns the built-in GAR names, sorted.
func Names() []string {
	names := make([]string, len(registry))
	for i, row := range registry {
		names[i] = row.name
	}
	return names
}
