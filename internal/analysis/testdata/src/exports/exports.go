// Package exports is the export-caller check's fixture. Limit, Dead and
// Perimeter have no caller; Used, String, Area, Shape, Measurer, Box and
// Tally do. Of the fields, Scale has no writer and Label no reader; Name is
// exempt by its JSON tag; Side is written only through Box's promotion and
// Tally only by a pointer-method call.
package exports

import "fmt"

const Limit = 3

func Dead() {}

// Used is called by this package's own code only.
func Used() int { return 1 }

type Shape struct {
	n     int
	Side  int
	Scale int
	Label string
	Name  string `json:"name"`
	Tally Tally
}

// String is called by fmt, outside the module's source.
func (s Shape) String() string { return fmt.Sprint(s.n) }

// Area is called through Measurer only.
func (s Shape) Area() int { return s.n }

func (s *Shape) Perimeter() int { return 4 * s.n }

type Measurer interface{ Area() int }

type Box struct{ Shape }

type Tally struct{ Count int }

func (t *Tally) Bump() { t.Count++ }

func measure(m Measurer) int { return m.Area() + Used() }

func build() int {
	var b Box
	b.Side = 2
	b.Tally.Bump()
	s := Shape{Label: "x"}
	return measure(b) + b.Side*s.Scale + b.Tally.Count
}
