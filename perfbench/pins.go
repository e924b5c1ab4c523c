package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/expt"
)

// pinsJSON holds the outputs the seed code produced for each workload. A
// change that alters any of them changed what the program computes.
//
//go:embed pins.json
var pinsJSON []byte

// gradePin is the pinned outcome of one grade session.
type gradePin struct {
	// Detected is the number of faults the session detects, per model.
	Detected map[string]int `json:"detected"`
	// The signature self-test of the stuck-at universe (16-bit MISR).
	Golden      uint64 `json:"golden_signature"`
	ByCompare   int    `json:"by_compare"`
	BySignature int    `json:"by_signature"`
	Aliased     int    `json:"aliased"`
	Tainted     int    `json:"tainted"`
}

var pins struct {
	Compile struct {
		Table6  expt.Table6Row `json:"table6"`
		ObsRows int            `json:"obs_rows"`
	} `json:"compile"`
	Grade struct {
		// Universe is the collapsed fault-universe size per model.
		Universe map[string]int `json:"universe"`
		// Sessions maps a workload seed to its session's outcome.
		Sessions map[string]gradePin `json:"sessions"`
	} `json:"grade"`
	// Serve maps each served circuit to its result.json Table 6 row.
	Serve map[string]expt.Table6Row `json:"serve"`
}

func init() {
	if err := json.Unmarshal(pinsJSON, &pins); err != nil {
		panic(fmt.Sprintf("perfbench: pins.json: %v", err))
	}
}

// gradePinFor returns the pinned session outcome for a workload seed, if
// that seed was pinned.
func gradePinFor(seed uint64) (gradePin, bool) {
	p, ok := pins.Grade.Sessions[strconv.FormatUint(seed, 10)]
	return p, ok
}

// checkPin compares an observed output with its pinned value by their JSON
// encodings and, when they differ, reports both.
func checkPin(what string, got, want any) error {
	g, err := json.Marshal(got)
	if err != nil {
		return err
	}
	w, err := json.Marshal(want)
	if err != nil {
		return err
	}
	if string(g) != string(w) {
		return fmt.Errorf("%s: got %s, pinned %s", what, g, w)
	}
	return nil
}
