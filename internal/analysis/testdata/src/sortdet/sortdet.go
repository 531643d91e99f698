// Package sortdet is the sortdet analyzer fixture: the three unstable sorts
// fire; their stable twins and justified total-order comparators do not.
package sortdet

import (
	"cmp"
	"slices"
	"sort"
)

type standing struct {
	name string
	mean float64
}

// RankBug: unstable sorts tie on equal means, leaving the order input-dependent.
func RankBug(ranked []*standing, means []float64) {
	sort.Slice(ranked, func(i, j int) bool { return ranked[i].mean > ranked[j].mean })       // want `sort.Slice is tie-unstable on a result path; use sort.SliceStable`
	sort.Sort(sort.Reverse(sort.Float64Slice(means)))                                        // want `sort.Sort is tie-unstable on a result path; use sort.Stable`
	slices.SortFunc(ranked, func(a, b *standing) int { return cmp.Compare(b.mean, a.mean) }) // want `slices.SortFunc is tie-unstable on a result path; use slices.SortStableFunc`
}

// RankStable uses the stable twins — compliant.
func RankStable(ranked []*standing, means []float64) {
	sort.SliceStable(ranked, func(i, j int) bool { return ranked[i].mean > ranked[j].mean })
	sort.Stable(sort.Reverse(sort.Float64Slice(means)))
	slices.SortStableFunc(ranked, func(a, b *standing) int { return cmp.Compare(b.mean, a.mean) })
}

// RankJustified keeps sort.Slice but documents comparator totality.
func RankJustified(ranked []*standing) {
	//aggrevet:stable names are unique, so the two-level comparator is a total order
	sort.Slice(ranked, func(i, j int) bool {
		return cmp.Or(cmp.Compare(ranked[j].mean, ranked[i].mean), cmp.Compare(ranked[i].name, ranked[j].name)) < 0
	})
}

// PlainSorts on ordered element types, IntSlice.Sort too, are total — fine.
func PlainSorts(xs []int, ss []string) {
	sort.IntSlice(xs).Sort()
	sort.Strings(ss)
}
