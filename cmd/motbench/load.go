package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"syscall"
	"time"

	"repro/internal/runtime/track"
)

// rec is one sent request. Times are nanoseconds since the loader's
// epoch: due is when the schedule wanted it sent, handoff when the pacer
// passed it to the senders, pickup when a sender (each owning one
// connection) took it, done when its response was read.
type rec struct {
	op
	due, handoff, pickup, done int64
	status                     int16 // HTTP status; 0 on a transport error
	answer                     int32 // a query's location, else -1
	coalesced                  bool  // a move acked as superseded by a newer one
}

func (r *rec) ok() bool { return r.status == http.StatusOK }

// latency is the request's time from due to done; a failed request
// never meets a latency limit, so it counts as +Inf.
func (r *rec) latency() float64 {
	if !r.ok() {
		return math.Inf(1)
	}
	return float64(r.done - r.due)
}

// loader is the single-process load generator: one pacing goroutine
// (the caller's) and conns sender goroutines over one HTTP transport
// with at most conns connections.
type loader struct {
	base   string
	client *http.Client
	conns  int
	epoch  time.Time
	tr     *tracer // client.wait and client.rtt spans; nil untraced
}

func newLoader(base string, conns int) *loader {
	t := &http.Transport{
		Proxy:               nil,
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}
	return &loader{
		base:   base,
		client: &http.Client{Transport: t, Timeout: 10 * time.Second},
		conns:  conns,
		epoch:  time.Now(),
	}
}

func (l *loader) close() { l.client.CloseIdleConnections() }

func (l *loader) now() int64 { return int64(time.Since(l.epoch)) }

// sleepUntil blocks until the loader clock reaches t. It paces with
// nanosleep: time.Sleep overshoots by about half a millisecond at the
// median on small containers, more than the server's whole service
// time, while nanosleep overshoots by tens of microseconds.
func (l *loader) sleepUntil(t int64) {
	for {
		d := t - l.now()
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d)
		_ = syscall.Nanosleep(&ts, nil) // EINTR just loops
	}
}

// sender owns per-goroutine scratch buffers for building requests.
type sender struct {
	url, body []byte
	resp      bytes.Buffer
}

// send performs r's request and fills status, answer and done.
func (l *loader) send(s *sender, r *rec) {
	r.answer = -1
	s.url = append(s.url[:0], l.base...)
	s.body = s.body[:0]
	method := http.MethodPost
	switch r.kind {
	case kPublish:
		s.url = append(s.url, "/v1/publish"...)
		s.body = fmt.Appendf(s.body, `{"object":%d,"node":%d}`, r.obj, r.node)
	case kMove:
		s.url = append(s.url, "/v1/move"...)
		s.body = fmt.Appendf(s.body, `{"object":%d,"to":%d}`, r.obj, r.node)
	case kQuery:
		method = http.MethodGet
		s.url = append(s.url, "/v1/query/"...)
		s.url = strconv.AppendInt(s.url, int64(r.obj), 10)
		if r.node >= 0 {
			s.url = append(s.url, "?from="...)
			s.url = strconv.AppendInt(s.url, int64(r.node), 10)
		}
	}
	var body io.Reader
	if method == http.MethodPost {
		body = bytes.NewReader(s.body)
	}
	req, err := http.NewRequest(method, string(s.url), body)
	if err != nil {
		r.done = l.now()
		return
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := l.client.Do(req)
	if err != nil {
		r.done = l.now()
		return
	}
	s.resp.Reset()
	_, err = s.resp.ReadFrom(resp.Body)
	resp.Body.Close()
	r.done = l.now()
	if err != nil {
		return
	}
	r.status = int16(resp.StatusCode)
	r.coalesced = r.kind == kMove && bytes.Contains(s.resp.Bytes(), []byte(`"coalesced":true`))
	if r.kind == kQuery && r.ok() {
		var q struct {
			Location int32 `json:"location"`
		}
		if json.Unmarshal(s.resp.Bytes(), &q) != nil {
			r.status = 0
			return
		}
		r.answer = q.Location
	}
	if l.tr != nil {
		l.tr.add("client.wait", r.due, r.pickup, -1, int64(r.obj))
		l.tr.add("client.rtt", r.pickup, r.done, -1, int64(r.obj))
	}
}

// open runs ops at a seeded Poisson rate (ops/s) for dur, open loop:
// the schedule is fixed before the phase starts and each request is
// timed from its due time, so waiting for a free connection counts
// against the server.
func (l *loader) open(next func() op, rate float64, dur time.Duration, rng *rand.Rand) []rec {
	var recs []rec
	start := l.now() + int64(time.Millisecond)
	end := start + int64(dur)
	for t := start + int64(rng.ExpFloat64()/rate*1e9); t < end; t += int64(rng.ExpFloat64() / rate * 1e9) {
		recs = append(recs, rec{op: next(), due: t})
	}
	// Sized to the schedule, so the pacer never blocks on a slow server
	// and every request keeps its due time.
	work := make(chan int, len(recs))
	var senders track.Group
	for c := 0; c < l.conns; c++ {
		senders.Go(func() {
			var s sender
			for i := range work {
				recs[i].pickup = l.now()
				l.send(&s, &recs[i])
			}
		})
	}
	for i := range recs {
		l.sleepUntil(recs[i].due)
		recs[i].handoff = l.now()
		work <- i
	}
	close(work)
	senders.Wait()
	return recs
}

// drive runs closed loop: each sender sends take's next op as soon as
// its previous one completes, until take reports no more.
func (l *loader) drive(take func() (op, bool)) []rec {
	var mu sync.Mutex
	var all []rec
	var senders track.Group
	for c := 0; c < l.conns; c++ {
		senders.Go(func() {
			var s sender
			var mine []rec
			for {
				mu.Lock()
				o, ok := take()
				mu.Unlock()
				if !ok {
					break
				}
				t := l.now()
				r := rec{op: o, due: t, handoff: t, pickup: t}
				l.send(&s, &r)
				mine = append(mine, r)
			}
			mu.Lock()
			all = append(all, mine...)
			mu.Unlock()
		})
	}
	senders.Wait()
	return all
}

// list drives a fixed list of ops closed loop.
func (l *loader) list(ops []op) []rec {
	i := 0
	return l.drive(func() (op, bool) {
		if i == len(ops) {
			return op{}, false
		}
		i++
		return ops[i-1], true
	})
}

// closed drives the stream closed loop for dur and returns the records
// and the completed-ok throughput in ops/s.
func (l *loader) closed(next func() op, dur time.Duration) ([]rec, float64) {
	start := l.now()
	end := start + int64(dur)
	recs := l.drive(func() (op, bool) {
		if l.now() >= end {
			return op{}, false
		}
		return next(), true
	})
	last, ok := start, 0
	for i := range recs {
		last = max(last, recs[i].done)
		if recs[i].ok() {
			ok++
		}
	}
	if last == start {
		return recs, 0
	}
	return recs, float64(ok) / (float64(last-start) / 1e9)
}
