// Package directives is the directive-hygiene fixture: unknown names,
// missing or too-short justifications and stale suppressions are themselves
// diagnosed, so the audit trail cannot rot.
package directives

// Typo: "orderd" is not a directive; the map range below it is NOT
// suppressed and fires on its own.
func Typo(m map[int]int) (total int) {
	//aggrevet:orderd summing is order-independent // want `unknown directive "//aggrevet:orderd"`
	for _, v := range m { // want `range over map m iterates in nondeterministic order`
		total += v
	}
	return
}

// Bare: a justification that is missing, or under 10 characters, is
// rejected — the audit trail must say WHY the invariant is safe to break.
func Bare(m map[int]int) (total int) {
	//aggrevet:ordered // want `needs a justification of at least 10 characters`
	for _, v := range m {
		total += v
	}
	//aggrevet:ordered it's fine // want `needs a justification of at least 10 characters`
	for _, v := range m {
		total += v
	}
	return
}

// Stale: the directive suppresses nothing (slices range deterministically)
// and must be deleted, not left to mislead the next reader.
func Stale(xs []int) (total int) {
	//aggrevet:ordered slices are fine anyway // want `stale //aggrevet:ordered directive`
	for _, v := range xs {
		total += v
	}
	return
}

// Used: a well-formed, consumed directive is silent.
func Used(m map[int]int) (total int) {
	//aggrevet:ordered summing values is an order-independent reduction
	for _, v := range m {
		total += v
	}
	return
}
