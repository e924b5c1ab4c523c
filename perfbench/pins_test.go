package main

import "testing"

func TestPinsCheckCatchesOnePerturbedValue(t *testing.T) {
	row := pins.Compile.Table6
	if err := checkPin("table6", row, pins.Compile.Table6); err != nil {
		t.Fatalf("unperturbed row: %v", err)
	}
	row.Subs++
	if err := checkPin("table6", row, pins.Compile.Table6); err == nil {
		t.Error("a perturbed Subs passed the pin check")
	}

	session, ok := gradePinFor(1)
	if !ok {
		t.Fatal("seed 1 has no pinned grade session")
	}
	got := gradePin{Detected: map[string]int{}}
	for k, v := range session.Detected {
		got.Detected[k] = v
	}
	got.Golden, got.ByCompare, got.BySignature, got.Aliased, got.Tainted =
		session.Golden, session.ByCompare, session.BySignature, session.Aliased, session.Tainted
	if err := checkPin("session", got, session); err != nil {
		t.Fatalf("unperturbed session: %v", err)
	}
	got.Detected["bridge"]--
	if err := checkPin("session", got, session); err == nil {
		t.Error("a perturbed bridge detection count passed the pin check")
	}
	for name, row := range pins.Serve {
		row.Det++
		if checkPin(name, row, pins.Serve[name]) == nil {
			t.Errorf("%s: a perturbed Det passed the pin check", name)
		}
	}
}
