package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/rwlock"
)

// stream renders the first n prepared operations of every client of w
// as bytes: kind, id and the version each write carries.
func stream(w *workload, seed uint64, n int) []byte {
	var b []byte
	for c := 0; c < numClients; c++ {
		cl := newClient(w, seed, c, 0, nil)
		for i := 0; i < n; i++ {
			o := cl.gen.next()
			cl.prepare(o)
			b = append(b, byte(o.kind))
			b = binary.BigEndian.AppendUint32(b, o.id)
			b = binary.BigEndian.AppendUint64(b, cl.seq)
			b = append(b, cl.val[:]...)
		}
	}
	return b
}

func TestOpStreamDeterminedBySeed(t *testing.T) {
	for _, w := range workloads {
		a, b, other := stream(w, 7, 4096), stream(w, 7, 4096), stream(w, 8, 4096)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 produced two different operation streams", w.name)
		}
		if bytes.Equal(a, other) {
			t.Errorf("%s: seeds 7 and 8 produced the same operation stream", w.name)
		}
	}
}

func TestShimKeepsReadPath(t *testing.T) {
	for _, w := range workloads {
		l := w.buildLock(w.plainStats())
		traced := new(tracer).wrap(l)
		if got, want := rwlock.IsReadShared(traced), rwlock.IsReadShared(l); got != want {
			t.Errorf("%s: traced lock shares reads = %v, plain lock = %v", w.name, got, want)
		}
	}
}

func TestValueCodec(t *testing.T) {
	var v [valueSize]byte
	putValue(&v, 42, 9)
	if ver, ok := checkValue(v[:], 42); !ok || ver != 9 {
		t.Fatalf("checkValue = %d, %v; want 9, true", ver, ok)
	}
	if _, ok := checkValue(v[:], 43); ok {
		t.Error("value of key 42 accepted for key 43")
	}
	if _, ok := checkValue(v[:valueSize-1], 42); ok {
		t.Error("truncated value accepted")
	}
	var k [16]byte
	putKey(&k, 42)
	if id, ok := keyID(k[:]); !ok || id != 42 {
		t.Errorf("keyID = %d, %v; want 42, true", id, ok)
	}
}

func TestHistBucketsAndQuantiles(t *testing.T) {
	for _, v := range []int64{0, 1, 63, 64, 65, 127, 128, 1000, 123456789, 1 << 40} {
		lo, width := bucketRange(bucketOf(v))
		if float64(v) < lo || float64(v) >= lo+width {
			t.Errorf("value %d outside its bucket [%g, %g)", v, lo, lo+width)
		}
	}
	var h hist
	for v := int64(1); v <= 100000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.99} {
		want := q * 100000
		if got := h.quantile(q); got < want*0.98 || got > want*1.02 {
			t.Errorf("quantile(%g) = %g, want %g within 2%%", q, got, want)
		}
	}
}

// TestRunPrintsDeclaredMetrics runs the smallest workload end to end in
// both modes and checks the result line.
func TestRunPrintsDeclaredMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the benchmark for several seconds")
	}
	for trace, want := range [][]string{endToEnd, perLayer} {
		var out, errOut strings.Builder
		args := []string{"--workload", "hot-get", "--seed", "3", "--seconds", "1", "--trace", []string{"0", "1"}[trace]}
		if code := run(args, &out, &errOut); code != 0 {
			t.Fatalf("trace %d: exit %d: %s", trace, code, errOut.String())
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			t.Fatalf("trace %d: last line is not the result: %v", trace, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
			t.Errorf("trace %d: correct=%v failed=%d attempted=%d", trace, res.Correct, res.Failed, res.Attempted)
		}
		if len(res.Metrics) != len(want) {
			t.Errorf("trace %d: %d metrics, want %d", trace, len(res.Metrics), len(want))
		}
		for _, name := range want {
			if _, ok := res.Metrics[name]; !ok {
				t.Errorf("trace %d: metric %s missing", trace, name)
			}
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such"},
		{"--workload", "hot-get", "--seconds", "0"},
		{"--workload", "hot-get", "--trace", "2"},
	} {
		var out, errOut strings.Builder
		if code := run(args, &out, &errOut); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q", args, out.String())
		}
	}
}
