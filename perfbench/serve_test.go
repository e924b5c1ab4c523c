package main

import "testing"

// TestServePhase drives both clients through a cold and a hit phase against
// a real server, so the race detector sees the concurrent client path.
func TestServePhase(t *testing.T) {
	srv, err := startServer(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	clients := [2]*client{newClient(srv.base), newClient(srv.base)}
	cold, _ := phase(clients, [2][]string{{"s27"}, {"s27"}})
	hits, _ := phase(clients, [2][]string{{"s27", "s27"}, {"s27"}})
	if err := srv.stop(); err != nil {
		t.Fatal(err)
	}
	if len(cold) != 2 || len(hits) != 3 {
		t.Fatalf("%d cold and %d hit jobs, want 2 and 3", len(cold), len(hits))
	}
	for _, j := range append(cold, hits...) {
		if j.err != nil {
			t.Fatal(j.err)
		}
		if string(j.result) != string(cold[0].result) || len(j.result) == 0 {
			t.Errorf("job %s returned a different or empty result.json", j.circuit)
		}
	}
}

// TestHitSamplesSupportP90 checks that the hit phase yields enough samples
// for serve_hit_p90_ms: at least ten of them beyond the nearest-rank p90.
func TestHitSamplesSupportP90(t *testing.T) {
	n := hitRepeats * (len(serveCircuits[0]) + len(serveCircuits[1]))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)
	}
	p90 := percentile(xs, 90)
	if beyond := n - 1 - int(p90); beyond < 10 {
		t.Errorf("%d hit samples leave %d beyond the p90, want at least 10", n, beyond)
	}
}
