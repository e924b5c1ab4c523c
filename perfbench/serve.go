package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"repro/internal/expt"
	"repro/internal/iscas"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/telemetry"
)

// The serve workload: two closed-loop HTTP clients against an in-process
// server running at most two jobs at a time, one fsim worker each.
const (
	serveJobWorkers    = 1
	serveMaxConcurrent = 2
	// hitRepeats is how often each client resubmits each of its circuits
	// after the cold phase: 2 clients × 4 circuits × 15 = 120 store hits.
	hitRepeats = 15
	// jobSeed is the pipeline seed every job is submitted with.
	jobSeed = 1
)

// serveCircuits are the circuits each client compiles.
var serveCircuits = [2][]string{
	{"s298", "s344", "s382", "s386"},
	{"s400", "s420", "s444", "s526"},
}

// serveLayers are the per-layer metrics a traced serve run measures. The
// atpg and core times come from the jobs' own span events.
var serveLayers = append([]string{
	"serve.submit_ms", "serve.queue_wait_s", "serve.run_s", "serve.fetch_ms", "serve.rejected",
	"serve.cold_p50_s", "serve.cold_makespan_s", "serve.hit_p50_ms", "serve.hit_p90_ms",
	"atpg.generate_s", "atpg.random_s", "atpg.directed_s", "atpg.podem_s", "atpg.compaction_s",
	"atpg.seq_len", "podem.backtracks",
	"core.run_s", "core.reverse_order_s", "core.accounting_s", "core.candidates_scored",
	"telemetry.counter_bleed",
}, fsimLayers(false, "serve-cold")...)

// server is one in-process job server on a loopback port with a fresh
// artifact store.
type server struct {
	dir  string
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan error
}

// startServer starts a server whose store is a new directory under root.
func startServer(root string) (*server, error) {
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "store-")
	if err != nil {
		return nil, err
	}
	st, err := store.Open(dir)
	if err == nil {
		var srv *serve.Server
		srv, err = serve.New(serve.Options{Store: st, MaxConcurrent: serveMaxConcurrent, Workers: serveJobWorkers})
		if err == nil {
			var ln net.Listener
			if ln, err = net.Listen("tcp", "127.0.0.1:0"); err == nil {
				s := &server{dir: dir, srv: srv, hs: &http.Server{Handler: srv}, base: "http://" + ln.Addr().String(), done: make(chan error, 1)}
				go func() { s.done <- s.hs.Serve(ln) }()
				// The server is set up once it answers.
				if err = s.healthy(); err == nil {
					return s, nil
				}
				return nil, errors.Join(err, s.stop())
			}
		}
	}
	os.RemoveAll(dir)
	return nil, err
}

// healthy asks the server's health endpoint once, on a connection of its
// own.
func (s *server) healthy() error {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	resp, err := (&http.Client{Transport: tr}).Get(s.base + "/api/v1/healthz")
	if err != nil {
		return err
	}
	var v map[string]string
	return decodeJSON(resp, &v)
}

// stop drains the server's jobs, closes its listener and connections, waits
// for its serving goroutine and removes its store.
func (s *server) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := errors.Join(s.srv.Shutdown(ctx), s.hs.Shutdown(ctx))
	if serr := <-s.done; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	return errors.Join(err, os.RemoveAll(s.dir))
}

// jobRecord is one submit → terminal → fetch cycle as a client saw it.
type jobRecord struct {
	circuit  string
	start    time.Time // before the POST
	accepted time.Time // POST answered
	running  time.Time // "running" state event read (zero for store hits)
	terminal time.Time // terminal state event read
	fetched  time.Time // result.json read
	result   []byte
	spans    []serve.Event
	rejected bool // the submit was refused with 503
	err      error
}

func (j *jobRecord) latency() time.Duration { return j.fetched.Sub(j.start) }

// client is one closed-loop HTTP client with its own connection.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1}}}
}

// job submits circuit, follows its event stream to the terminal state and
// fetches its result.json.
func (c *client) job(circuit string) *jobRecord {
	j := &jobRecord{circuit: circuit, start: time.Now()}
	j.err = c.runJob(j)
	return j
}

func (c *client) runJob(j *jobRecord) error {
	body := fmt.Sprintf(`{"circuit":%q,"config":{"seed":%d}}`, j.circuit, jobSeed)
	resp, err := c.hc.Post(c.base+"/api/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		return err
	}
	j.rejected = resp.StatusCode == http.StatusServiceUnavailable
	var view serve.JobView
	err = decodeJSON(resp, &view)
	j.accepted = time.Now()
	if err != nil {
		return fmt.Errorf("submit %s: %w", j.circuit, err)
	}

	resp, err = c.hc.Get(c.base + "/api/v1/jobs/" + view.ID + "/events")
	if err != nil {
		return err
	}
	state, err := readEvents(resp, j)
	if err != nil {
		return fmt.Errorf("events of %s: %w", view.ID, err)
	}
	if state != serve.StateDone {
		return fmt.Errorf("job %s (%s) ended %s", view.ID, j.circuit, state)
	}

	resp, err = c.hc.Get(c.base + "/api/v1/jobs/" + view.ID + "/artifacts/result.json")
	if err != nil {
		return err
	}
	j.result, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	j.fetched = time.Now()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("result.json of %s: %s", view.ID, resp.Status)
	}
	return err
}

// readEvents follows a job's JSONL event stream until its terminal state,
// stamping state transitions and keeping span events.
func readEvents(resp *http.Response, j *jobRecord) (serve.State, error) {
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", errors.New(resp.Status)
	}
	dec := json.NewDecoder(resp.Body)
	for {
		var ev serve.Event
		if err := dec.Decode(&ev); err != nil {
			return "", err
		}
		switch {
		case ev.Type == "span":
			j.spans = append(j.spans, ev)
		case ev.State == serve.StateRunning:
			j.running = time.Now()
		case ev.State == serve.StateDone || ev.State == serve.StateFailed || ev.State == serve.StateCancelled:
			j.terminal = time.Now()
			_, err := io.Copy(io.Discard, resp.Body)
			return ev.State, err
		}
	}
}

// decodeJSON decodes a 2xx response body into v and closes it.
func decodeJSON(resp *http.Response, v any) error {
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		b, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: %s", resp.Status, strings.TrimSpace(string(b)))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// serveOrders derives each client's cold-phase order and hit-phase order
// from the seed.
func serveOrders(seed uint64) (cold, hits [2][]string) {
	rng := rand.New(rand.NewPCG(seed, 0x5e7e))
	for k, circuits := range serveCircuits {
		cold[k] = append([]string(nil), circuits...)
		rng.Shuffle(len(cold[k]), func(a, b int) { cold[k][a], cold[k][b] = cold[k][b], cold[k][a] })
		for r := 0; r < hitRepeats; r++ {
			hits[k] = append(hits[k], circuits...)
		}
		rng.Shuffle(len(hits[k]), func(a, b int) { hits[k][a], hits[k][b] = hits[k][b], hits[k][a] })
	}
	return cold, hits
}

// phase runs both clients over their circuit lists concurrently and
// returns every job record and the phase's wall time.
func phase(clients [2]*client, lists [2][]string) ([]*jobRecord, time.Duration) {
	var mu sync.Mutex
	var recs []*jobRecord
	var wg sync.WaitGroup
	t0 := time.Now()
	for k := range clients {
		wg.Add(1)
		go func(c *client, list []string) {
			defer wg.Done()
			for _, circuit := range list {
				j := c.job(circuit)
				mu.Lock()
				recs = append(recs, j)
				mu.Unlock()
				if j.err != nil {
					return
				}
			}
		}(clients[k], lists[k])
	}
	wg.Wait()
	return recs, time.Since(t0)
}

func runServe(o options) (*report, error) {
	rep := newReport()
	root := filepath.Join(workDir, "tmp")
	setup := func() (*server, error) { return startServer(root) }
	discard := func(s *server) { s.stop() }
	srv, err := timeSetup(rep, setup, discard)
	if err != nil {
		return nil, err
	}
	defer func() {
		if srv != nil {
			srv.stop()
		}
	}()
	cold, hits := serveOrders(o.seed)
	var solo map[string]map[string]int64

	err = drive(o, rep, func(t *tracer, s *sample) (time.Duration, error) {
		var err error
		if srv == nil { // every round starts on an empty store
			if srv, err = startServer(root); err != nil {
				return 0, err
			}
		}
		clients := [2]*client{newClient(srv.base), newClient(srv.base)}
		var coldRecs, hitRecs []*jobRecord
		var coldD, hitD time.Duration
		spCold := t.do("serve-cold", func() { coldRecs, coldD = phase(clients, cold) })
		hitRecs, hitD = phase(clients, hits)
		for _, c := range clients {
			c.hc.CloseIdleConnections()
		}
		stopErr := srv.stop()
		srv = nil
		if stopErr != nil {
			return coldD + hitD, stopErr
		}

		results := map[string][]byte{}
		table6 := map[string]expt.Table6Row{}
		for _, j := range coldRecs {
			res, err := checkResult(j)
			rep.op("serve cold "+j.circuit, err)
			if res != nil {
				results[j.circuit] = j.result
				table6[j.circuit] = res.Table6
			}
		}
		rep.outputs["table6"] = table6
		for _, j := range hitRecs {
			var same error
			if j.err == nil && string(j.result) != string(results[j.circuit]) {
				same = errors.New("store hit's result.json differs from the cold one")
			}
			rep.op("serve hit "+j.circuit, j.err, same)
		}
		if n := len(serveCircuits[0]) + len(serveCircuits[1]); len(coldRecs) != n || len(hitRecs) != n*hitRepeats {
			return coldD + hitD, fmt.Errorf("serve round stopped early: %d cold and %d hit jobs", len(coldRecs), len(hitRecs))
		}

		prefix := "serve_"
		if t != nil {
			prefix = "serve."
		}
		var coldLat, hitLat []float64
		for _, j := range coldRecs {
			coldLat = append(coldLat, j.latency().Seconds())
		}
		for _, j := range hitRecs {
			hitLat = append(hitLat, j.latency().Seconds()*1e3)
		}
		s.time(prefix+"cold_p50_s", median(coldLat))
		s.time(prefix+"cold_makespan_s", coldD.Seconds())
		s.time(prefix+"hit_p50_ms", median(hitLat))
		// 120 hit samples leave 12 beyond the p90 (see TestHitSamplesSupportP90).
		s.time(prefix+"hit_p90_ms", percentile(hitLat, 90))
		if t != nil {
			if solo == nil {
				if solo, err = soloCounters(); err != nil {
					return coldD + hitD, err
				}
			}
			recordServeLayers(s, coldRecs, hitRecs, spCold, solo)
		}
		return coldD + hitD, nil
	}, func() error {
		// The last set-up's server stays up for the next round.
		var err error
		srv, err = timeSetup(rep, setup, discard)
		return err
	})
	return rep, err
}

// checkResult decodes a cold job's result.json and compares its Table 6
// row with the pin.
func checkResult(j *jobRecord) (*serve.Result, error) {
	if j.err != nil {
		return nil, j.err
	}
	var res serve.Result
	if err := json.Unmarshal(j.result, &res); err != nil {
		return nil, fmt.Errorf("result.json: %w", err)
	}
	want, ok := pins.Serve[j.circuit]
	if !ok {
		return &res, fmt.Errorf("no pinned result for %s", j.circuit)
	}
	return &res, checkPin(j.circuit+" table6", res.Table6, want)
}

// recordServeLayers records the per-layer metrics of a traced serve round: HTTP
// and queue timings from the clients' view, the pipeline phases from the
// jobs' own span events, and the cold phase's process-wide counters.
func recordServeLayers(s *sample, coldRecs, hitRecs []*jobRecord, cold span, solo map[string]map[string]int64) {
	var submit, fetch, wait, run []float64
	var rejected int64
	for _, j := range append(append([]*jobRecord(nil), coldRecs...), hitRecs...) {
		if j.rejected {
			rejected++
		}
		submit = append(submit, j.accepted.Sub(j.start).Seconds()*1e3)
		fetch = append(fetch, j.fetched.Sub(j.terminal).Seconds()*1e3)
	}
	phases := map[string]float64{}
	var bleed, soloSum float64
	var seqLen int64
	for _, j := range coldRecs {
		wait = append(wait, j.running.Sub(j.accepted).Seconds())
		run = append(run, j.terminal.Sub(j.running).Seconds())
		for _, ev := range j.spans {
			phases[ev.Span] += time.Duration(ev.DurationNS).Seconds()
			if ev.Span == "pipeline" {
				want := solo[j.circuit]
				for name := range union(ev.Counters, want) {
					bleed += absDiff(ev.Counters[name], want[name])
					soloSum += float64(want[name])
				}
			}
		}
		var res serve.Result
		if json.Unmarshal(j.result, &res) == nil {
			seqLen += int64(res.Table6.Len)
		}
	}
	s.time("serve.submit_ms", median(submit))
	s.time("serve.fetch_ms", median(fetch))
	s.time("serve.queue_wait_s", median(wait))
	s.time("serve.run_s", median(run))
	s.count("serve.rejected", rejected)
	for span, name := range map[string]string{
		"pipeline/atpg":            "atpg.generate_s",
		"pipeline/atpg/random":     "atpg.random_s",
		"pipeline/atpg/directed":   "atpg.directed_s",
		"pipeline/atpg/podem":      "atpg.podem_s",
		"pipeline/atpg/compaction": "atpg.compaction_s",
		"pipeline/core":            "core.run_s",
		"pipeline/reverse-order":   "core.reverse_order_s",
		"pipeline/accounting":      "core.accounting_s",
	} {
		if v, ok := phases[span]; ok {
			s.time(name, v)
		}
	}
	s.count("atpg.seq_len", seqLen)
	s.count("podem.backtracks", cold.Ctrs.Get(telemetry.CtrBacktracks))
	s.count("core.candidates_scored", cold.Ctrs.Get(telemetry.CtrCandidates))
	s.fsimStage("serve-cold", cold.Ctrs, cold.Dur, false)
	if soloSum > 0 {
		s.metrics["telemetry.counter_bleed"] = bleed / soloSum
	}
}

// soloCounters runs each served circuit's pipeline alone, as a job would
// (same configuration, one worker), and returns its pipeline-span counters:
// what each job's event stream would report without a concurrent job.
func soloCounters() (map[string]map[string]int64, error) {
	out := map[string]map[string]int64{}
	for _, list := range serveCircuits {
		for _, name := range list {
			c, err := iscas.Load(name)
			if err != nil {
				return nil, err
			}
			run := expt.CanonicalConfig(name, expt.Config{Seed: jobSeed})
			run.Workers = serveJobWorkers
			run.Telemetry = telemetry.New()
			if _, err := expt.RunPipeline(c, expt.InitFor(name), run); err != nil {
				return nil, err
			}
			for _, p := range run.Telemetry.Phases() {
				if p.Span == "pipeline" {
					out[name] = p.Counters
				}
			}
		}
	}
	return out, nil
}

func union(a, b map[string]int64) map[string]bool {
	u := map[string]bool{}
	for k := range a {
		u[k] = true
	}
	for k := range b {
		u[k] = true
	}
	return u
}

func absDiff(a, b int64) float64 {
	if a > b {
		return float64(a - b)
	}
	return float64(b - a)
}
