package main

import "testing"

func TestParseAttacks(t *testing.T) {
	got, err := parseAttacks("3:omniscient, 7:random")
	if err != nil {
		t.Fatal(err)
	}
	if got[3] != "omniscient" || got[7] != "random" {
		t.Fatalf("got %v", got)
	}
	if got, err := parseAttacks(""); err != nil || got != nil {
		t.Fatal("empty spec must yield nil, nil")
	}
	for _, bad := range []string{"3", "x:random", "3:"} {
		if _, err := parseAttacks(bad); err == nil && bad != "3:" {
			t.Fatalf("spec %q accepted", bad)
		}
	}
}

func TestParseIDs(t *testing.T) {
	got, err := parseIDs("1, 2,5")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[2] != 5 {
		t.Fatalf("got %v", got)
	}
	if got, err := parseIDs(""); err != nil || got != nil {
		t.Fatal("empty spec must yield nil, nil")
	}
	if _, err := parseIDs("1,x"); err == nil {
		t.Fatal("bad id accepted")
	}
}
