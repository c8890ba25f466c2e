package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/sqldb"
)

// The fixed shape of the mixed workload: of every writeEvery ops a
// client issues, the last is a write; writes alternate insert and
// delete once deleteLag of the client's ads are outstanding, so the
// corpus stays flat and the durability check has live ads to find.
const (
	writeEvery = 10
	deleteLag  = 32
	// recheckEvery is the in-window correctness sample: 1 %.
	recheckEvery = 100
)

// phaseStats is what one client observed in one phase (warm-up or one
// measurement window). Latencies are seconds.
type phaseStats struct {
	cars, others, ingest []float64
	attempted, failed    int
}

// loadClient is one closed-loop client: it sends its next request only
// after the previous one completed. Its position in the question order
// and its written ads persist across drive calls.
type loadClient struct {
	id       int
	http     *http.Client
	entry    string
	in       *inputs
	v        *verifier
	readOnly bool

	next       int // index into in.paths
	ops        int // requests issued so far; every writeEvery-th is a write
	sinceCheck int

	bodies   []writeBody // nil on read-only workloads
	writes   int
	inserted []adRef // acked inserts not yet deleted, oldest first
	deleted  []adRef // acked deletes

	firstErr error // first failed request, for the report
}

func newClients(n int, t *topology, in *inputs, v *verifier, seed int64) []*loadClient {
	tr := &http.Transport{MaxIdleConnsPerHost: n, MaxConnsPerHost: n}
	hc := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	out := make([]*loadClient, n)
	for i := range out {
		c := &loadClient{
			id: i, http: hc, entry: t.entry, in: in, v: v,
			readOnly: !t.spec.Durable,
			// Clients walk the same shuffled order from evenly spaced
			// offsets, so together they cover the pool before repeating.
			next: i * len(in.paths) / n,
		}
		if t.spec.Durable {
			c.bodies = makeWriteBodies(seed, i)
		}
		out[i] = c
	}
	return out
}

// opKind classes a completed request for the latency metrics.
type opKind int

const (
	opAskOther opKind = iota // answered outside cars: front_ask forwards it
	opAskCars                // answered in cars: front_ask scatters it
	opIngest
)

// outcome is one completed request.
type outcome struct {
	kind opKind
	lat  float64 // seconds
	err  error   // transport error, unexpected status, or wrong answer
}

func (s *phaseStats) add(o outcome) {
	s.attempted++
	switch {
	case o.err != nil:
		s.failed++
	case o.kind == opAskCars:
		s.cars = append(s.cars, o.lat)
	case o.kind == opAskOther:
		s.others = append(s.others, o.lat)
	default:
		s.ingest = append(s.ingest, o.lat)
	}
}

// step issues the client's next request and waits for it.
func (c *loadClient) step() outcome {
	c.ops++
	if c.bodies != nil && c.ops%writeEvery == 0 {
		return c.write()
	}
	idx := c.next
	c.next = (c.next + 1) % len(c.in.paths)
	start := time.Now()
	status, body, err := get(c.http, c.entry+c.in.paths[idx], nil)
	o := outcome{lat: time.Since(start).Seconds()}
	switch {
	case err != nil:
		o.err = err
	case status != http.StatusOK:
		o.err = fmt.Errorf("ask %q: HTTP %d", c.in.texts[idx], status)
	default:
		if isCars(body) {
			o.kind = opAskCars
		}
		if c.sinceCheck++; c.sinceCheck == recheckEvery {
			c.sinceCheck = 0
			o.err = c.v.recheck(idx, body, c.readOnly)
		}
	}
	return o
}

// write issues the client's next ingest op: an insert, or — every
// second write once deleteLag ads are outstanding — the delete of its
// oldest outstanding ad.
func (c *loadClient) write() outcome {
	c.writes++
	o := outcome{kind: opIngest}
	if c.writes%2 == 0 && len(c.inserted) >= deleteLag {
		victim := c.inserted[0]
		url := c.entry + "/api/ads/" + strconv.Itoa(int(victim.id)) + "?domain=" + victim.domain
		req, err := http.NewRequest(http.MethodDelete, url, nil)
		if err != nil {
			o.err = err
			return o
		}
		start := time.Now()
		status, _, err := do(c.http, req)
		o.lat = time.Since(start).Seconds()
		if err != nil || status != http.StatusOK {
			o.err = fmt.Errorf("delete %s/%d: HTTP %d: %v", victim.domain, victim.id, status, err)
			return o
		}
		c.inserted = c.inserted[1:]
		c.deleted = append(c.deleted, victim)
		return o
	}
	wb := c.bodies[(c.writes/2)%len(c.bodies)]
	req, err := http.NewRequest(http.MethodPost, c.entry+"/api/ads", bytes.NewReader(wb.body))
	if err != nil {
		o.err = err
		return o
	}
	req.Header.Set("Content-Type", "application/json")
	start := time.Now()
	status, body, err := do(c.http, req)
	o.lat = time.Since(start).Seconds()
	if err != nil || status != http.StatusCreated {
		o.err = fmt.Errorf("insert into %s: HTTP %d: %v", wb.domain, status, err)
		return o
	}
	var ack struct {
		ID sqldb.RowID `json:"id"`
	}
	if err := json.Unmarshal(body, &ack); err != nil {
		o.err = fmt.Errorf("insert into %s: decoding ack: %w", wb.domain, err)
		return o
	}
	c.inserted = append(c.inserted, adRef{domain: wb.domain, id: ack.ID})
	return o
}

func do(client *http.Client, req *http.Request) (int, []byte, error) {
	resp, err := client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// procSample is the process-wide state read at each window boundary.
type procSample struct {
	cpu       time.Duration // user+sys, getrusage
	alloc     uint64        // cumulative bytes allocated
	gcCycles  uint32
	gcPauseNs uint64
}

func sampleProc() procSample {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF with a valid pointer
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procSample{
		cpu:       time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:     m.TotalAlloc,
		gcCycles:  m.NumGC,
		gcPauseNs: m.PauseTotalNs,
	}
}

// window is one measurement window, all clients merged.
type window struct {
	phaseStats
	length        time.Duration
	before, after procSample
}

func (w *window) asks() int { return len(w.cars) + len(w.others) }
func (w *window) ops() int  { return w.asks() + len(w.ingest) }

// drive runs every client closed-loop for n consecutive windows of the
// given length and returns them. A request belongs to the window it
// completes in; each client stops at the first request completing
// after the last window ends, so nothing is cancelled in flight and
// every acknowledged write is known.
func drive(clients []*loadClient, n int, length time.Duration) []window {
	per := make([][]phaseStats, len(clients))
	start := time.Now()
	var wg sync.WaitGroup
	for i, c := range clients {
		per[i] = make([]phaseStats, n)
		wg.Add(1)
		go func(c *loadClient, stats []phaseStats) {
			defer wg.Done()
			for {
				k := int(time.Since(start) / length)
				if k >= n {
					return
				}
				// A request belongs to the window it completes in, so
				// one straddling a boundary is counted once, where its
				// latency was paid.
				o := c.step()
				if o.err != nil && c.firstErr == nil {
					c.firstErr = o.err
				}
				if k = int(time.Since(start) / length); k >= n {
					k = n - 1
				}
				stats[k].add(o)
			}
		}(c, per[i])
	}
	// Sample process state at each boundary from this goroutine.
	samples := make([]procSample, n+1)
	samples[0] = sampleProc()
	for k := 1; k <= n; k++ {
		time.Sleep(time.Until(start.Add(time.Duration(k) * length)))
		samples[k] = sampleProc()
	}
	wg.Wait()
	out := make([]window, n)
	for k := range out {
		out[k].length = length
		out[k].before, out[k].after = samples[k], samples[k+1]
		for i := range clients {
			out[k].merge(&per[i][k])
		}
	}
	return out
}

func (s *phaseStats) merge(o *phaseStats) {
	s.cars = append(s.cars, o.cars...)
	s.others = append(s.others, o.others...)
	s.ingest = append(s.ingest, o.ingest...)
	s.attempted += o.attempted
	s.failed += o.failed
}

// heapMB forces a collection and reads the live heap.
func heapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
