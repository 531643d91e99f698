package nn

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"aggregathor/internal/tensor"
)

func TestCheckpointRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	params := tensor.NewVector(1000)
	for i := range params {
		params[i] = rng.NormFloat64()
	}
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, 42, params); err != nil {
		t.Fatal(err)
	}
	step, got, err := LoadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if step != 42 {
		t.Fatalf("step %d, want 42", step)
	}
	for i := range params {
		if got[i] != params[i] {
			t.Fatalf("coord %d mismatch", i)
		}
	}
}

func TestCheckpointPreservesNonFinite(t *testing.T) {
	params := tensor.Vector{math.NaN(), math.Inf(1), math.Inf(-1)}
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, 0, params); err != nil {
		t.Fatal(err)
	}
	_, got, err := LoadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(got[0]) || !math.IsInf(got[1], 1) || !math.IsInf(got[2], -1) {
		t.Fatalf("non-finite coords mangled: %v", got)
	}
}

func TestCheckpointRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("short"),
		make([]byte, 21), // zero magic
	}
	for i, raw := range cases {
		if _, _, err := LoadCheckpoint(bytes.NewReader(raw)); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("case %d: want ErrBadCheckpoint, got %v", i, err)
		}
	}
}

func TestCheckpointRejectsTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, 1, tensor.Vector{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:buf.Len()-8]
	if _, _, err := LoadCheckpoint(bytes.NewReader(raw)); !errors.Is(err, ErrBadCheckpoint) {
		t.Fatalf("want ErrBadCheckpoint, got %v", err)
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "model.ckpt")
	params := tensor.Vector{1.5, -2.5, 3.5}
	if err := SaveCheckpointFile(path, 7, params); err != nil {
		t.Fatal(err)
	}
	step, got, err := LoadCheckpointFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if step != 7 || got.Dim() != 3 || got[0] != 1.5 {
		t.Fatalf("round trip got step=%d params=%v", step, got)
	}
}

func TestCheckpointFileMissing(t *testing.T) {
	if _, _, err := LoadCheckpointFile(filepath.Join(t.TempDir(), "nope.ckpt")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestCheckpointRestoresNetwork(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n1 := NewMLP(6, []int{8}, 3, rng)
	var buf bytes.Buffer
	if err := SaveCheckpoint(&buf, 9, n1.ParamsVector()); err != nil {
		t.Fatal(err)
	}
	n2 := NewMLP(6, []int{8}, 3, rand.New(rand.NewSource(99)))
	_, params, err := LoadCheckpoint(&buf)
	if err != nil {
		t.Fatal(err)
	}
	n2.SetParamsVector(params)
	x, y := randBatch(rand.New(rand.NewSource(3)), 4, 6, 3)
	if n1.lossGradient(n1.Forward(x), y) != n2.lossGradient(n2.Forward(x), y) {
		t.Fatal("restored network differs from original")
	}
}
