package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"repro/internal/lockstat"
	"repro/internal/rwlock"
)

// Span names in the sampled span log.
const (
	spanAcquire  = "lock.acquire"
	spanRelease  = "lock.release"
	spanRLock    = "rwlock.rlock"
	spanRUnlock  = "rwlock.runlock"
	spanIterOpen = "kvstore.iter.open"
	spanIterNext = "kvstore.iter.next"
)

var opSpanNames = [numKinds]string{"kvstore.get", "kvstore.put", "kvstore.write", "kvstore.scan"}

// sampleEvery and spanLogCap bound the sampled span log: one operation
// in sampleEvery is logged with all its child spans, until the log is
// full, so a long run keeps a flat memory footprint.
const (
	sampleEvery = 1024
	spanLogCap  = 1 << 14
)

// spanRec is one logged span. Child spans share their operation's op
// number, which identifies the request they belong to.
type spanRec struct {
	op         uint64
	name       string
	start, end int64
}

// tracer holds one slot per client. A slot is written only by its
// client's goroutine (the lock shim finds it by goroutine identity), so
// recording needs no synchronisation; the slots are read after the
// clients have stopped.
type tracer struct {
	slots [numClients]clientTrace
}

// clientTrace is one client's per-layer record.
type clientTrace struct {
	g  uintptr
	on bool // past warm-up

	// Reset before every operation: time spent in lock calls, and lock
	// episodes taken, inside the current store call.
	lockNs   int64
	episodes int64
	sampled  bool
	op       uint64

	totalEpisodes, batchEpisodes int64
	contended, handovers         int64

	acquire, release, hold, rlock hist
	span, self                    [numKinds]hist
	iterOpen, iterNext            hist
	log                           []spanRec
}

// slot returns the calling goroutine's slot, or nil when the caller is
// not a measuring client.
func (t *tracer) slot() *clientTrace {
	g := getg()
	for i := range t.slots {
		if s := &t.slots[i]; s.g == g && s.on {
			return s
		}
	}
	return nil
}

func (s *clientTrace) beginOp(op uint64) {
	s.lockNs, s.episodes = 0, 0
	s.op = op
	s.sampled = s.on && op%sampleEvery == 0 && len(s.log) < spanLogCap-64
}

// endOp records an operation's span and its self time: the span minus
// the lock calls made inside it.
func (s *clientTrace) endOp(k opKind, t0, t1 int64) {
	if !s.on {
		return
	}
	s.span[k].add(t1 - t0)
	s.self[k].add(t1 - t0 - s.lockNs)
	s.totalEpisodes += s.episodes
	if k == opBatch {
		s.batchEpisodes += s.episodes
	}
	s.logSpan(opSpanNames[k], t0, t1)
}

// child records a child span that started at t0 and ends now, and
// returns now.
func (s *clientTrace) child(name string, h *hist, t0 int64) int64 {
	t1 := now()
	if s.on {
		h.add(t1 - t0)
		s.logSpan(name, t0, t1)
	}
	return t1
}

func (s *clientTrace) logSpan(name string, t0, t1 int64) {
	if s.sampled {
		s.log = append(s.log, spanRec{s.op, name, t0, t1})
	}
}

// wrap returns l behind a timing shim that keeps l's store-visible
// surface: when l's RLock really shares, the shim forwards RLock and
// RUnlock, or the store would fall back to exclusive Gets.
func (t *tracer) wrap(l sync.Locker) sync.Locker {
	probe, _ := l.(lockedProber)
	if rw, ok := l.(rwlock.RWLocker); ok && rwlock.IsReadShared(l) {
		return &tracedRWLock{tracedLock: tracedLock{inner: l, probe: probe, tr: t}, rw: rw}
	}
	return &tracedLock{inner: l, probe: probe, tr: t}
}

// lockedProber is the holder probe core.Lock offers.
type lockedProber interface{ Locked() bool }

// tracedLock times Lock (acquire), Unlock (release) and the hold
// between them. Where the lock has a holder probe, it also classifies
// acquisitions as contended and releases as handovers by lockstat's
// rule: the lock was held on arrival or the wait reached
// lockstat.ContendedThreshold; the lock is still held right after the
// release. The probes sit inside the timed intervals, so their cost is
// charged to the lock calls and not to the store's self time.
type tracedLock struct {
	inner sync.Locker
	probe lockedProber
	tr    *tracer
	// holdStart is written by each holder after acquiring and read by
	// the same holder before releasing.
	holdStart int64
}

func (l *tracedLock) Lock() {
	s := l.tr.slot()
	t0 := now()
	contended := s != nil && l.probe != nil && l.probe.Locked()
	l.inner.Lock()
	t1 := now()
	l.holdStart = t1
	if s != nil {
		s.acquire.add(t1 - t0)
		s.lockNs += t1 - t0
		s.episodes++
		if contended || t1-t0 >= int64(lockstat.ContendedThreshold) {
			s.contended++
		}
		s.logSpan(spanAcquire, t0, t1)
	}
}

func (l *tracedLock) Unlock() {
	s := l.tr.slot()
	t0 := now()
	held := t0 - l.holdStart
	l.inner.Unlock()
	if s != nil && l.probe != nil && l.probe.Locked() {
		s.handovers++
	}
	t1 := now()
	if s != nil {
		s.hold.add(held)
		s.release.add(t1 - t0)
		s.lockNs += t1 - t0
		s.logSpan(spanRelease, t0, t1)
	}
}

// tracedRWLock adds the shared read path.
type tracedRWLock struct {
	tracedLock
	rw rwlock.RWLocker
}

func (l *tracedRWLock) RLock() {
	s := l.tr.slot()
	t0 := now()
	l.rw.RLock()
	t1 := now()
	if s != nil {
		s.rlock.add(t1 - t0)
		s.lockNs += t1 - t0
		s.episodes++
		s.logSpan(spanRLock, t0, t1)
	}
}

func (l *tracedRWLock) RUnlock() {
	s := l.tr.slot()
	t0 := now()
	l.rw.RUnlock()
	t1 := now()
	if s != nil {
		s.lockNs += t1 - t0
		s.logSpan(spanRUnlock, t0, t1)
	}
}

// merged combines every client's slot.
func (t *tracer) merged() *clientTrace {
	m := new(clientTrace)
	for i := range t.slots {
		s := &t.slots[i]
		m.totalEpisodes += s.totalEpisodes
		m.batchEpisodes += s.batchEpisodes
		m.contended += s.contended
		m.handovers += s.handovers
		for _, p := range [][2]*hist{
			{&m.acquire, &s.acquire}, {&m.release, &s.release}, {&m.hold, &s.hold},
			{&m.rlock, &s.rlock}, {&m.iterOpen, &s.iterOpen}, {&m.iterNext, &s.iterNext},
		} {
			p[0].merge(p[1])
		}
		for k := range s.span {
			m.span[k].merge(&s.span[k])
			m.self[k].merge(&s.self[k])
		}
	}
	return m
}

// writeSpanLog writes the sampled spans as JSON lines after a header
// line carrying the environment stamp.
func (t *tracer) writeSpanLog(path string, env map[string]string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(env); err != nil {
		f.Close()
		return err
	}
	for c := range t.slots {
		for _, r := range t.slots[c].log {
			rec := struct {
				Client  int    `json:"client"`
				Op      uint64 `json:"op"`
				Name    string `json:"name"`
				StartNs int64  `json:"start_ns"`
				DurNs   int64  `json:"dur_ns"`
			}{c, r.op, r.name, r.start, r.end - r.start}
			if err := enc.Encode(rec); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write span log: %w", err)
	}
	return f.Close()
}
