package main

import (
	"reflect"
	"testing"
)

func TestSessionDeterministicAndSeedSensitive(t *testing.T) {
	a := makeSession(7, 14)
	if a.Len() != sessionWindows*sessionLG || a.NumInputs != 14 {
		t.Fatalf("session is %d vectors × %d inputs, want %d × 14", a.Len(), a.NumInputs, sessionWindows*sessionLG)
	}
	if b := makeSession(7, 14); !reflect.DeepEqual(a, b) {
		t.Error("the same seed gave two different sessions")
	}
	if c := makeSession(8, 14); reflect.DeepEqual(a, c) {
		t.Error("seeds 7 and 8 gave the same session")
	}
}

func TestServeOrdersDeterministic(t *testing.T) {
	cold, hits := serveOrders(3)
	cold2, hits2 := serveOrders(3)
	if !reflect.DeepEqual(cold, cold2) || !reflect.DeepEqual(hits, hits2) {
		t.Error("the same seed gave two different job orders")
	}
	for k := range hits {
		if len(cold[k]) != len(serveCircuits[k]) || len(hits[k]) != hitRepeats*len(serveCircuits[k]) {
			t.Errorf("client %d: %d cold and %d hit jobs", k, len(cold[k]), len(hits[k]))
		}
	}
}
