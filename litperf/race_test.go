//go:build race

package main

// raceEnabled is true in test binaries built with the race detector,
// which slows the daemon below the nominal SETUP rate.
const raceEnabled = true
