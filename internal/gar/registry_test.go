package gar

import (
	"testing"
)

func TestRegistryBuiltins(t *testing.T) {
	for _, name := range []string{
		"average", "selective-average", "median", "trimmed-mean",
		"krum", "multi-krum", "bulyan",
	} {
		g, err := New(name, 1)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if g.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, g.Name())
		}
	}
}

func TestRegistryUnknown(t *testing.T) {
	if _, err := New("no-such-gar", 0); err == nil {
		t.Fatal("want error for unknown GAR")
	}
}

func TestRegistryNamesSorted(t *testing.T) {
	names := Names()
	for i := 1; i < len(names); i++ {
		if names[i-1] >= names[i] {
			t.Fatalf("names not sorted: %v", names)
		}
	}
	if len(names) < 7 {
		t.Fatalf("expected at least 7 builtin GARs, got %v", names)
	}
}

func TestRegistryNegativeF(t *testing.T) {
	for _, name := range []string{"krum", "multi-krum", "bulyan", "trimmed-mean"} {
		if _, err := New(name, -1); err == nil {
			t.Fatalf("New(%q, -1) should fail", name)
		}
	}
}
