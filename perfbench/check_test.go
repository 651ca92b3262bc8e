package main

import (
	"errors"
	"testing"

	"mplsvpn/internal/sim"
)

// TestPerturbedFingerprintFails shows the correctness check reporting a
// real fingerprint with one byte changed, and counting it as a failed
// operation.
func TestPerturbedFingerprintFails(t *testing.T) {
	lay := newLayout(1)
	sp := spec{horizon: 20 * sim.Millisecond}
	s, err := build(lay, sp, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	s.b.Net.RunUntil(sp.horizon + drain)
	ref := s.fingerprint()
	if err := compare(ref, ref); err != nil {
		t.Fatalf("identical fingerprints reported as %v", err)
	}
	bad := []byte(ref)
	bad[len(bad)-10] ^= 1
	if err := compare(ref, string(bad)); !errors.Is(err, errMismatch) {
		t.Fatalf("perturbed fingerprint reported as %v, want a mismatch", err)
	}

	r := &run{prov: map[string]any{}}
	r.checkErr(compare(ref, string(bad)), "batch 0")
	if r.attempted != 1 || r.failed != 1 {
		t.Fatalf("attempted=%d failed=%d, want 1 and 1", r.attempted, r.failed)
	}
	selfTest(r, ref)
	if r.attempted != 2 || r.failed != 1 {
		t.Fatalf("self-test on a good reference: attempted=%d failed=%d, want 2 and 1", r.attempted, r.failed)
	}
}

// TestSeedsCarryEqualWork checks that two seeds relabel the same shape:
// the same packet and event counts, different fingerprints.
func TestSeedsCarryEqualWork(t *testing.T) {
	sp := spec{horizon: 20 * sim.Millisecond}
	var events []uint64
	var prints []string
	for _, seed := range []uint64{1, 2} {
		s, err := build(newLayout(seed), sp, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		s.b.Net.RunUntil(sp.horizon + drain)
		if s.b.Net.Delivered != s.b.Net.Injected || s.b.Net.Injected == 0 {
			t.Fatalf("seed %d: injected %d, delivered %d", seed, s.b.Net.Injected, s.b.Net.Delivered)
		}
		events = append(events, s.b.E.Executed())
		prints = append(prints, s.fingerprint())
	}
	if events[0] != events[1] {
		t.Errorf("events differ between seeds: %v", events)
	}
	if prints[0] == prints[1] {
		t.Error("two seeds produced the same fingerprint")
	}
}
