// Package exports is the export-caller check's fixture: Limit, Dead and
// Perimeter have no caller; Used, String, Area, Shape and Measurer do.
package exports

import "fmt"

const Limit = 3

func Dead() {}

// Used is called by this package's own code only.
func Used() int { return 1 }

type Shape struct{ n int }

// String is called by fmt, outside the module's source.
func (s Shape) String() string { return fmt.Sprint(s.n) }

// Area is called through Measurer only.
func (s Shape) Area() int { return s.n }

func (s *Shape) Perimeter() int { return 4 * s.n }

type Measurer interface{ Area() int }

func measure(m Measurer) int { return m.Area() + Used() }
