//go:build race

package main

// raceEnabled: the race detector slows a d=100k round past RoundTimeout.
const raceEnabled = true
