//go:build race

package main

// raceEnabled: the race detector slows the smoke test several times over,
// so its time budget applies to plain runs only.
const raceEnabled = true
