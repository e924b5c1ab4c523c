package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/bench"
	"repro/internal/expt"
	"repro/internal/iscas"
	"repro/internal/logic"
)

// s27Bench renders the embedded s27 circuit back to .bench source.
func s27Bench(t *testing.T) []byte {
	t.Helper()
	c, err := iscas.Load("s27")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := bench.Write(&buf, c); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestKeyIdentity is the cache-identity contract: submitting the same
// netlist with equivalent configurations (same identity fields, any
// Workers/Kernel/Telemetry) yields the same key, and every identity field
// changes it.
func TestKeyIdentity(t *testing.T) {
	netlist := s27Bench(t)
	base := expt.CanonicalConfig("s27", expt.Config{LG: 500, Seed: 3})
	k0, err := Key(netlist, logic.X, base)
	if err != nil {
		t.Fatal(err)
	}

	// Non-identity fields: same key.
	equiv := base
	equiv.Workers = 8
	equiv.Kernel = 2
	if k, _ := Key(netlist, logic.X, equiv); k != k0 {
		t.Error("Workers/Kernel changed the key")
	}

	// Formatting of the netlist: same key (comments, blank lines).
	reformatted := append([]byte("# a comment\n\n"), netlist...)
	if k, _ := Key(reformatted, logic.X, base); k != k0 {
		t.Error("netlist formatting changed the key")
	}

	// Every identity axis: different key.
	variants := map[string]func(*expt.Config){
		"LG":                func(c *expt.Config) { c.LG = 501 },
		"Seed":              func(c *expt.Config) { c.Seed = 4 },
		"ATPGRandomLen":     func(c *expt.Config) { c.ATPGRandomLen = 64 },
		"ATPGNoCompaction":  func(c *expt.Config) { c.ATPGNoCompaction = true },
		"ATPGNoPodem":       func(c *expt.Config) { c.ATPGNoPodem = true },
		"RandomWindows":     func(c *expt.Config) { c.RandomWindows = 2 },
		"NoSampleFirst":     func(c *expt.Config) { c.NoSampleFirst = true },
		"NoForceFullLength": func(c *expt.Config) { c.NoForceFullLength = true },
		"NoMatchOrdering":   func(c *expt.Config) { c.NoMatchOrdering = true },
		"FaultModel":        func(c *expt.Config) { c.FaultModel = "transition" },
	}
	seen := map[string]string{k0: "base"}
	for field, mutate := range variants {
		cfg := base
		mutate(&cfg)
		k, err := Key(netlist, logic.X, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("%s: key collides with %s", field, prev)
		}
		seen[k] = field
	}

	// Init is part of the identity too.
	if k, _ := Key(netlist, logic.Zero, base); k == k0 {
		t.Error("Init did not change the key")
	}

	// A different netlist: different key.
	c, err := iscas.Load("s298")
	if err != nil {
		t.Fatal(err)
	}
	var other bytes.Buffer
	if err := bench.Write(&other, c); err != nil {
		t.Fatal(err)
	}
	if k, _ := Key(other.Bytes(), logic.X, base); k == k0 {
		t.Error("different netlist produced the same key")
	}
}

// TestKeyPinned pins the content address of the default s27 compilation.
// Adding or removing execution-only Config fields must not move it: a moved
// key silently orphans every artifact already in a store. Only a deliberate
// SchemaVersion bump (or an identity change) may update the value.
func TestKeyPinned(t *testing.T) {
	const want = "3b81e4d87a62813a35444bc39c8b18d3719da646f895abe8bd499ae886d1c8c4"
	k, err := Key(s27Bench(t), expt.InitFor("s27"), expt.CanonicalConfig("s27", expt.Config{}))
	if err != nil {
		t.Fatal(err)
	}
	if k != want {
		t.Errorf("s27 default key = %s, want %s", k, want)
	}
}

func TestKeyRejectsBadNetlist(t *testing.T) {
	if _, err := Key([]byte("this is not a bench file"), logic.X, expt.Config{}); err == nil {
		t.Fatal("malformed netlist accepted")
	}
}

// TestIdentityCoversConfig is the shape guard: every field of expt.Config
// must be classified as identity (hashed into the key) or excluded
// (bit-identical results). A new Config field fails this test until it is
// classified, which is the point.
func TestIdentityCoversConfig(t *testing.T) {
	classified := make(map[string]bool)
	for _, f := range identityFields {
		classified[f] = true
	}
	for _, f := range excludedFields {
		classified[f] = true
	}
	ct := reflect.TypeOf(expt.Config{})
	for i := 0; i < ct.NumField(); i++ {
		name := ct.Field(i).Name
		if !classified[name] {
			t.Errorf("expt.Config field %s is not classified as identity or excluded in internal/store — decide whether it changes result bits", name)
		}
		delete(classified, name)
	}
	for name := range classified {
		t.Errorf("classified field %s no longer exists on expt.Config", name)
	}
	// And the identity struct itself carries exactly the identity fields
	// (plus the schema version and Init).
	it := reflect.TypeOf(identity{})
	want := len(identityFields) + 2
	if it.NumField() != want {
		t.Errorf("identity struct has %d fields, want %d (identityFields + Schema + Init)", it.NumField(), want)
	}
}

func TestPutGetRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key, err := Key(s27Bench(t), logic.X, expt.CanonicalConfig("s27", expt.Config{LG: 100}))
	if err != nil {
		t.Fatal(err)
	}
	if s.Has(key) {
		t.Fatal("fresh store claims to have the entry")
	}
	artifacts := map[string][]byte{
		"result.json":   []byte(`{"ok":true}`),
		"generator.v":   []byte("module g; endmodule\n"),
		"netlist.bench": s27Bench(t),
	}
	if err := s.Put(key, artifacts); err != nil {
		t.Fatal(err)
	}
	if !s.Has(key) {
		t.Fatal("entry missing after Put")
	}

	// Fetched twice: byte-identical both times (the satellite criterion).
	for round := 0; round < 2; round++ {
		got, ok, err := s.Get(key)
		if err != nil || !ok {
			t.Fatalf("round %d: Get: ok=%v err=%v", round, ok, err)
		}
		if !reflect.DeepEqual(got, artifacts) {
			t.Fatalf("round %d: artifacts differ from what was put", round)
		}
	}
	one, ok, err := s.GetArtifact(key, "generator.v")
	if err != nil || !ok || !bytes.Equal(one, artifacts["generator.v"]) {
		t.Fatalf("GetArtifact: ok=%v err=%v", ok, err)
	}
	if _, ok, _ := s.GetArtifact(key, "absent.txt"); ok {
		t.Error("absent artifact reported present")
	}

	keys, err := s.List()
	if err != nil || len(keys) != 1 || keys[0] != key {
		t.Fatalf("List = %v, %v", keys, err)
	}

	// A second Put of an existing key is a no-op, not an error.
	if err := s.Put(key, map[string][]byte{"result.json": []byte("other")}); err != nil {
		t.Fatal(err)
	}
	got, _, _ := s.GetArtifact(key, "result.json")
	if !bytes.Equal(got, artifacts["result.json"]) {
		t.Error("re-Put replaced an existing entry")
	}
}

func TestPutRejectsBadNames(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := "ab" + string(bytes.Repeat([]byte{'0'}, 62))
	for _, name := range []string{"", "../escape", "a/b", ".hidden"} {
		if err := s.Put(key, map[string][]byte{name: nil}); err == nil {
			t.Errorf("artifact name %q accepted", name)
		}
	}
	if err := s.Put("short", nil); err == nil {
		t.Error("malformed key accepted")
	}
}

// TestPutAtomic: no partially-written entry is ever visible, even with many
// concurrent publishers of the same key.
func TestPutAtomic(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := "cd" + string(bytes.Repeat([]byte{'1'}, 62))
	artifacts := map[string][]byte{"a": []byte("aaa"), "b": []byte("bbb")}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := s.Put(key, artifacts); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	got, ok, err := s.Get(key)
	if err != nil || !ok || !reflect.DeepEqual(got, artifacts) {
		t.Fatalf("entry corrupted by concurrent publish: ok=%v err=%v", ok, err)
	}
	// No leftover temp directories.
	entries, _ := os.ReadDir(filepath.Join(dir, key[:2]))
	for _, e := range entries {
		if e.Name() != key {
			t.Errorf("leftover %s in fan-out directory", e.Name())
		}
	}
}

// TestDoSingleFlight: concurrent Do calls for one key run compute once; the
// rest are hits.
func TestDoSingleFlight(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := "ef" + string(bytes.Repeat([]byte{'2'}, 62))
	var computes atomic.Int64
	var hits atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, hit, err := s.Do(key, func() (map[string][]byte, error) {
				computes.Add(1)
				return map[string][]byte{"x": []byte("payload")}, nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			if hit {
				hits.Add(1)
			}
			if !bytes.Equal(got["x"], []byte("payload")) {
				t.Error("wrong artifact bytes")
			}
		}()
	}
	wg.Wait()
	if got := computes.Load(); got != 1 {
		t.Errorf("compute ran %d times, want 1", got)
	}
	if got := hits.Load(); got != 7 {
		t.Errorf("%d hits, want 7", got)
	}
	// And a later Do is a pure disk hit.
	_, hit, err := s.Do(key, func() (map[string][]byte, error) {
		t.Error("compute ran despite a disk entry")
		return nil, nil
	})
	if err != nil || !hit {
		t.Fatalf("disk hit: hit=%v err=%v", hit, err)
	}
}

// TestDoErrorEvicted mirrors the expt memo regression test at the store
// layer: a failed compute must not poison the key.
func TestDoErrorEvicted(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	key := "0a" + string(bytes.Repeat([]byte{'3'}, 62))
	sentinel := errors.New("transient compile failure")
	if _, _, err := s.Do(key, func() (map[string][]byte, error) {
		return nil, sentinel
	}); !errors.Is(err, sentinel) {
		t.Fatalf("first Do: err = %v", err)
	}
	got, hit, err := s.Do(key, func() (map[string][]byte, error) {
		return map[string][]byte{"x": []byte("ok")}, nil
	})
	if err != nil {
		t.Fatalf("retry after failure: %v (error poisoned the store key)", err)
	}
	if hit || !bytes.Equal(got["x"], []byte("ok")) {
		t.Fatalf("retry: hit=%v got=%q", hit, got["x"])
	}
}

// TestOpenExisting: a store re-opened over an existing directory serves
// entries published by the previous instance.
func TestOpenExisting(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := "1b" + string(bytes.Repeat([]byte{'4'}, 62))
	if err := s1.Put(key, map[string][]byte{"x": []byte("persisted")}); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := s2.Get(key)
	if err != nil || !ok || !bytes.Equal(got["x"], []byte("persisted")) {
		t.Fatalf("re-opened store lost the entry: ok=%v err=%v", ok, err)
	}
}

// TestMiscAccessors covers the small accessors and defensive paths.
func TestMiscAccessors(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s.Dir() != dir {
		t.Errorf("Dir = %q", s.Dir())
	}
	if keys, err := s.List(); err != nil || len(keys) != 0 {
		t.Errorf("empty List = %v, %v", keys, err)
	}
	if s.Has("not-a-key") {
		t.Error("Has accepted a malformed key")
	}
	if _, _, err := s.Get("not-a-key"); err == nil {
		t.Error("Get accepted a malformed key")
	}
	if _, _, err := s.GetArtifact("not-a-key", "x"); err == nil {
		t.Error("GetArtifact accepted a malformed key")
	}
	if _, _, err := s.Do("not-a-key", nil); err == nil {
		t.Error("Do accepted a malformed key")
	}
	key := "2c" + string(bytes.Repeat([]byte{'5'}, 62))
	if _, _, err := s.GetArtifact(key, "../escape"); err == nil {
		t.Error("GetArtifact accepted a path-traversal name")
	}
	if got, ok, err := s.Get(key); got != nil || ok || err != nil {
		t.Errorf("Get of absent key = %v %v %v", got, ok, err)
	}
	// A key whose uppercase hex sneaks past length checks is still invalid.
	if err := validKey(strings.ToUpper(key)); err == nil {
		t.Error("uppercase hex key accepted")
	}
	// Open on a path occupied by a regular file fails.
	file := dir + "/occupied"
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(file); err == nil {
		t.Error("Open over a regular file succeeded")
	}
}
