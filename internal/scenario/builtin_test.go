package scenario

import (
	"os"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// mustBuiltin returns the named built-in campaign or fails the test.
func mustBuiltin(t testing.TB, name string) Spec {
	t.Helper()
	s, err := Builtin(name)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestBuiltinNamesMatchSmokeGolden: make smoke runs the campaigns the golden
// file names, so a built-in campaign without a golden sha256 (or a golden
// without a campaign) fails here, not only there.
func TestBuiltinNamesMatchSmokeGolden(t *testing.T) {
	raw, err := os.ReadFile("testdata/smoke.sha256")
	if err != nil {
		t.Fatal(err)
	}
	var golden []string
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		fields := strings.Fields(line)
		golden = append(golden, strings.TrimSuffix(fields[len(fields)-1], ".json"))
	}
	if names := BuiltinNames(); !slices.Equal(names, golden) {
		t.Fatalf("BuiltinNames() = %v, the smoke golden file names %v", names, golden)
	}
}

// TestBuiltinSpecsAreFresh: every call builds its own spec, so editing one
// (as the zero-rate churn parity test does) cannot move the next.
func TestBuiltinSpecsAreFresh(t *testing.T) {
	for _, name := range BuiltinNames() {
		a := mustBuiltin(t, name)
		want := mustBuiltin(t, name)
		for i := range a.Networks {
			a.Networks[i].Name = "edited"
			if a.Networks[i].Churn != nil {
				a.Networks[i].Churn.Rate = 0.5
			}
		}
		if b := mustBuiltin(t, name); !reflect.DeepEqual(b, want) {
			t.Fatalf("%s: editing one spec moved the next", name)
		}
	}
	if _, err := Builtin("nope"); err == nil {
		t.Fatal("an unknown built-in campaign was accepted")
	}
}
