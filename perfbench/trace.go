package main

import (
	"encoding/json"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"threelc/internal/transport"
)

// StepKey identifies one step of one worker: the spans of a step share
// it. Worker -1 is the parameter server's side of the step.
type StepKey struct {
	Tenant int `json:"tenant"`
	Worker int `json:"worker"`
	Step   int `json:"step"`
}

// Span is one timed call into a layer's public function, made from the
// benchmark's own files. Name is the per-layer metric it feeds. Times are
// nanoseconds since the trace began; Parent is the ID of the enclosing
// span, 0 for a root.
type Span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Name   string  `json:"name"`
	Key    StepKey `json:"key"`
	Start  int64   `json:"start_ns"`
	End    int64   `json:"end_ns"`
}

// Trace keeps spans in memory until the run writes them out.
type Trace struct {
	epoch  time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []Span
}

func newTrace() *Trace { return &Trace{epoch: time.Now()} }

func (t *Trace) now() int64 { return int64(time.Since(t.epoch)) }

// reserve hands out a span ID before the span ends, so children recorded
// first can name their parent.
func (t *Trace) reserve() int64 { return t.nextID.Add(1) }

// record stores a finished span; id 0 draws a fresh ID.
func (t *Trace) record(id, parent int64, name string, key StepKey, start, end int64) {
	if id == 0 {
		id = t.reserve()
	}
	t.mu.Lock()
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Key: key, Start: start, End: end})
	t.mu.Unlock()
}

// Spans returns a copy of the recorded spans.
func (t *Trace) Spans() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// writeFile stores the spans as JSON under dir.
func (t *Trace) writeFile(dir, name string, meta any) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name)
	b, err := json.Marshal(struct {
		Meta  any    `json:"meta"`
		Spans []Span `json:"spans"`
	}{meta, t.Spans()})
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return "", fmt.Errorf("write trace: %w", err)
	}
	return path, nil
}

// SelfTimes returns each span's self time: its duration minus the part
// of its interval that its children cover. Overlapping children count
// once.
func SelfTimes(spans []Span) map[int64]int64 {
	children := make(map[int64][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := int64(0)
		cur := s.Start // end of the covered prefix of [s.Start, s.End)
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// connStats counts one worker's socket traffic. The counters are atomic
// because a client may drive its connection from more than one goroutine.
type connStats struct {
	bytes  atomic.Int64
	reads  atomic.Int64
	writes atomic.Int64
}

// workerTrace is the traced state a worker's connection consults: which
// step and which open PushPull span its socket writes belong to.
type workerTrace struct {
	tr       *Trace
	key      atomic.Pointer[StepKey]
	pushPull atomic.Int64 // open transport.push_pull span ID, 0 outside one
}

// countingConn is the worker-side socket: it counts bytes and calls and,
// when traced, records every write inside a PushPull as a
// transport.conn_write span.
type countingConn struct {
	net.Conn
	st *connStats
	wt *workerTrace // nil when untraced
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.st.bytes.Add(int64(n))
	c.st.reads.Add(1)
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	if c.wt == nil {
		n, err := c.Conn.Write(p)
		c.st.bytes.Add(int64(n))
		c.st.writes.Add(1)
		return n, err
	}
	start := c.wt.tr.now()
	n, err := c.Conn.Write(p)
	end := c.wt.tr.now()
	c.st.bytes.Add(int64(n))
	c.st.writes.Add(1)
	if pp := c.wt.pushPull.Load(); pp != 0 {
		c.wt.tr.record(0, pp, "transport.conn_write", *c.wt.key.Load(), start, end)
	}
	return n, err
}

// dialer is the transport.Dialer hook that wraps each worker's socket.
func dialer(st *connStats, wt *workerTrace) transport.Dialer {
	return func(addr string) (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return &countingConn{Conn: c, st: st, wt: wt}, nil
	}
}

// tracedStepServer wraps the flat parameter server's step surface and
// records its calls as server-side spans (worker -1) of each step.
// FinishStep is split into the optimizer sweep and the pull encode it
// reports, in the order the server runs them.
type tracedStepServer struct {
	inner  transport.StepServer
	tr     *Trace
	tenant int
	step   int
}

func (s *tracedStepServer) key() StepKey { return StepKey{Tenant: s.tenant, Worker: -1, Step: s.step} }

func (s *tracedStepServer) BeginStep() {
	s.step++
	start := s.tr.now()
	s.inner.BeginStep()
	s.tr.record(0, 0, "ps.begin_step", s.key(), start, s.tr.now())
}

func (s *tracedStepServer) AddPush(workerID int, wires [][]byte) (time.Duration, error) {
	start := s.tr.now()
	d, err := s.inner.AddPush(workerID, wires)
	s.tr.record(0, 0, "ps.add_push", s.key(), start, s.tr.now())
	return d, err
}

func (s *tracedStepServer) FinishStep() ([][]byte, time.Duration, error) {
	start := s.tr.now()
	pull, enc, err := s.inner.FinishStep()
	end := s.tr.now()
	id := s.tr.reserve()
	split := max(start, end-int64(enc))
	s.tr.record(0, id, "opt.sweep", s.key(), start, split)
	s.tr.record(0, id, "ps.pull_encode", s.key(), split, end)
	s.tr.record(id, 0, "ps.finish_step", s.key(), start, end)
	return pull, enc, err
}

// gapListener wraps the multi-tenant tier's listener. Each accepted
// connection records, per step, the gap between the last push byte the
// server read and the first pull byte it wrote: the server's blocking
// work for that step, seen from its socket. The mux tier drives
// shard.Service ports rather than a StepServer, so this is the only
// server-side step time the benchmark can observe there.
type gapListener struct {
	net.Listener
	tr *Trace
}

func (l *gapListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &gapConn{Conn: c, tr: l.tr}, nil
}

type gapConn struct {
	net.Conn
	tr *Trace

	mu       sync.Mutex
	lastRead int64
	writing  bool
	step     int
}

func (c *gapConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		now := c.tr.now()
		c.mu.Lock()
		c.lastRead, c.writing = now, false
		c.mu.Unlock()
	}
	return n, err
}

func (c *gapConn) Write(p []byte) (int, error) {
	now := c.tr.now()
	c.mu.Lock()
	if !c.writing && c.lastRead != 0 {
		c.tr.record(0, 0, "transport.server_gap", StepKey{Tenant: -1, Worker: -1, Step: c.step}, c.lastRead, now)
		c.writing = true
		c.step++
	}
	c.mu.Unlock()
	return c.Conn.Write(p)
}
