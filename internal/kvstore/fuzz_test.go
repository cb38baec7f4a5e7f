package kvstore

import (
	"bytes"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// FuzzDBAgainstMap drives the DB through an op stream decoded from
// fuzz input and cross-checks every read against a map model. Freezes
// and compactions are forced by a tiny memtable.
func FuzzDBAgainstMap(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 200, 90, 17})
	f.Add([]byte("put/get/delete soup"))
	f.Add(bytes.Repeat([]byte{7, 3}, 64))
	f.Fuzz(func(t *testing.T, data []byte) {
		db := Open(Options{MemTableBytes: 512, MaxRuns: 2})
		model := map[string]string{}
		for i := 0; i+1 < len(data); i += 2 {
			key := string(Key(uint64(data[i] % 64)))
			switch data[i+1] % 4 {
			case 0, 1:
				v := fmt.Sprintf("v%d", i)
				db.Put([]byte(key), []byte(v))
				model[key] = v
			case 2:
				db.Delete([]byte(key))
				delete(model, key)
			case 3:
				got, ok := db.Get([]byte(key))
				want, wok := model[key]
				if ok != wok || (ok && string(got) != want) {
					t.Fatalf("Get(%x) = %q,%v; model %q,%v", key, got, ok, want, wok)
				}
			}
		}
		for k, want := range model {
			got, ok := db.Get([]byte(k))
			if !ok || string(got) != want {
				t.Fatalf("final Get(%x) = %q,%v; want %q", k, got, ok, want)
			}
		}
	})
}

// FuzzShardedBatch drives the sharded store with batched writes
// decoded from fuzz input and differentially checks it against a
// sequential model map: batches are applied atomically to both, reads
// compare, and a final iterator sweep must reproduce the model in
// sorted order with no duplicates (a torn or misrouted batch surfaces
// as a divergence). The shard count itself is fuzzed (1–9) so the
// coarse degenerate case and prime counts are all exercised.
func FuzzShardedBatch(f *testing.F) {
	f.Add(uint8(4), []byte{0, 1, 2, 3, 4, 5, 250, 9})
	f.Add(uint8(1), []byte("coarse degenerate batch soup"))
	f.Add(uint8(7), bytes.Repeat([]byte{3, 1, 4, 1, 5, 9}, 20))
	f.Fuzz(func(t *testing.T, nShards uint8, data []byte) {
		shards := int(nShards%9) + 1
		db := OpenSharded(ShardedOptions{Shards: shards, MemTableBytes: 512, MaxRuns: 2})
		model := map[string]string{}
		var b Batch
		flush := func() {
			db.Write(&b)
			for _, op := range b.ops {
				if op.delete {
					delete(model, string(op.key(b.rep)))
				} else {
					model[string(op.key(b.rep))] = string(op.value(b.rep))
				}
			}
			b.Reset()
		}
		for i := 0; i+1 < len(data); i += 2 {
			key := Key(uint64(data[i] % 64))
			switch data[i+1] % 8 {
			case 0, 1, 2:
				b.Put(key, []byte(fmt.Sprintf("v%d", i)))
			case 3:
				b.Delete(key)
			case 4:
				flush()
			case 5:
				db.Put(key, []byte(fmt.Sprintf("p%d", i)))
				model[string(key)] = fmt.Sprintf("p%d", i)
			default:
				// Reads see every already-flushed batch; the pending
				// batch is invisible by construction on both sides.
				got, ok := db.Get(key)
				want, wok := model[string(key)]
				if ok != wok || (ok && string(got) != want) {
					t.Fatalf("Get(%x) = %q,%v; model %q,%v (shards=%d)", key, got, ok, want, wok, shards)
				}
			}
		}
		flush()
		// Iterator sweep: sorted, duplicate-free, and model-complete.
		it := db.NewIterator()
		var prev []byte
		n := 0
		for it.Next() {
			if prev != nil && bytes.Compare(prev, it.Key()) >= 0 {
				t.Fatalf("iterator out of order: %x then %x (shards=%d)", prev, it.Key(), shards)
			}
			want, ok := model[string(it.Key())]
			if !ok || want != string(it.Value()) {
				t.Fatalf("iterator yields %x=%q; model %q,%v (shards=%d)", it.Key(), it.Value(), want, ok, shards)
			}
			prev = append(prev[:0], it.Key()...)
			n++
		}
		if n != len(model) {
			t.Fatalf("iterator yielded %d entries, model has %d (shards=%d)", n, len(model), shards)
		}
	})
}

// FuzzIteratorSeek drives a 4-shard store through writes, deletes and
// freezes decoded from fuzz input, with the per-shard run limit fuzzed
// (1–8) so merges see from two to nine sources per shard and
// compactions at every depth. An iterator then takes a few entries and
// Seeks to the fuzzed key — forwards or backwards — and the suffix it
// yields must match the sorted model.
func FuzzIteratorSeek(f *testing.F) {
	f.Add(uint8(7), uint8(40), []byte{0, 1, 2, 3, 4, 5, 250, 9})
	f.Add(uint8(0), uint8(0), []byte("seek into a compacted store"))
	f.Add(uint8(3), uint8(129), bytes.Repeat([]byte{3, 5, 4, 6, 5, 7}, 20))
	f.Fuzz(func(t *testing.T, maxRuns, seek uint8, data []byte) {
		db := OpenSharded(ShardedOptions{Shards: 4, MaxRuns: int(maxRuns%8) + 1})
		m := model{}
		for i := 0; i+1 < len(data); i += 2 {
			// Even ids only, so a Seek to an odd id falls between keys.
			key := Key(uint64(data[i]%64) * 2)
			switch data[i+1] % 8 {
			case 0, 1, 2, 3:
				v := fmt.Sprintf("v%d", i)
				db.Put(key, []byte(v))
				m[string(key)] = v
			case 4, 5:
				db.Delete(key)
				delete(m, string(key))
			default:
				freeze(db.shards[db.ShardIndex(key)])
			}
		}
		it := db.NewIterator()
		for i := 0; i < len(data)%5; i++ {
			it.Next()
		}
		k := Key(uint64(seek % 132))
		it.Seek(k)
		if got, want := take(it, -1), m.suffix(k, -1); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("Seek(%x) (MaxRuns %d):\n got %v\nwant %v", k, maxRuns%8+1, got, want)
		}
	})
}

// FuzzSkipListOrdering holds the memtable to a per-stamp map model
// over arbitrary byte keys and values, puts, deletes and snapshot
// stamps.
// The list's buffer starts at its minimum, so it regrows many times.
// Each op is a header byte and then its bytes: the top two bits pick
// a put (0, 1), a delete (2) or a snapshot (3), the low three bits give
// the key length and bits 3–5 the value length in units of five bytes.
// At every snapshot stamp and at the end, a memtable source must read
// the model of that stamp, tombstones included; at the end Ascend and
// Get must read the newest, and every value Get returned along the
// way must still hold the bytes it held then.
func FuzzSkipListOrdering(f *testing.F) {
	f.Add([]byte{5, 1, 9, 1, 5})
	f.Add([]byte("\x01a\x0cbhello world....\xc0\x81a\xc0\x02ab\x01b"))
	f.Add(bytes.Repeat([]byte{0x3a, 'k', 'e', 'y', 0xc0, 0x81, 'k'}, 40))
	f.Add([]byte{0x00, 0xc0, 0x80, 0x38, 1, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		type rec struct {
			val  string
			tomb bool
		}
		sl := newSkipList(0)
		cur := map[string]rec{}
		models := map[uint64]map[string]rec{}
		type held struct{ got, want []byte }
		var gets []held
		for len(data) > 0 {
			h := data[0]
			klen := min(int(h&7), len(data)-1)
			k := data[1 : 1+klen]
			data = data[1+klen:]
			switch h >> 6 {
			case 0, 1:
				vlen := min(int(h>>3&7)*5, len(data))
				v := data[:vlen]
				data = data[vlen:]
				sl.Put(k, v)
				cur[string(k)] = rec{val: string(v)}
				got, ok, tomb := sl.Get(k)
				if !ok || tomb || !bytes.Equal(got, v) {
					t.Fatalf("Get(%q) after Put = %q, %v, %v; want %q", k, got, ok, tomb, v)
				}
				gets = append(gets, held{got, bytes.Clone(v)})
			case 2:
				sl.Delete(k)
				cur[string(k)] = rec{tomb: true}
			case 3:
				m := make(map[string]rec, len(cur))
				for k, r := range cur {
					m[k] = r
				}
				models[sl.snapshot()] = m
			}
		}
		models[sl.snapshot()] = cur
		render := func(m map[string]rec) string {
			keys := make([]string, 0, len(m))
			for k := range m {
				keys = append(keys, k)
			}
			sort.Strings(keys)
			var b strings.Builder
			for _, k := range keys {
				fmt.Fprintf(&b, "%q=%q/%v ", k, m[k].val, m[k].tomb)
			}
			return b.String()
		}
		for snap, m := range models {
			src := source{mem: sl, snap: snap}
			read := map[string]rec{}
			for src.first(); src.valid; src.next() {
				read[string(src.key)] = rec{string(src.val), src.tomb}
			}
			if got, want := render(read), render(m); got != want {
				t.Fatalf("stamp %d reads\n %s\nwant\n %s", snap, got, want)
			}
		}
		read := map[string]rec{}
		var prev []byte
		sl.Ascend(func(k, v []byte, tomb bool) bool {
			if prev != nil && bytes.Compare(prev, k) >= 0 {
				t.Fatalf("Ascend out of order: %q then %q", prev, k)
			}
			prev = k
			read[string(k)] = rec{string(v), tomb}
			return true
		})
		if got, want := render(read), render(cur); got != want {
			t.Fatalf("Ascend reads\n %s\nwant\n %s", got, want)
		}
		for k, r := range cur {
			if v, ok, tomb := sl.Get([]byte(k)); !ok || tomb != r.tomb || string(v) != r.val {
				t.Fatalf("Get(%q) = %q, %v, %v; want %q, tombstone %v", k, v, ok, tomb, r.val, r.tomb)
			}
		}
		if sl.Len() != len(cur) {
			t.Fatalf("Len = %d, want %d", sl.Len(), len(cur))
		}
		for _, g := range gets {
			if !bytes.Equal(g.got, g.want) {
				t.Fatalf("a value Get returned changed from %q to %q", g.want, g.got)
			}
		}
	})
}

// runKeys encodes keys for FuzzRunSearch: a header byte per key, the
// key's length in its low five bits and a deletion in its top bit,
// then the key.
func runKeys(del bool, keys ...string) []byte {
	var enc []byte
	for _, k := range keys {
		h := byte(len(k))
		if del {
			h |= 0x80
		}
		enc = append(append(enc, h), k...)
	}
	return enc
}

// FuzzRunSearch holds a run's word-index search to sort.Search with
// bytes.Compare over the same sorted keys, for arbitrary byte keys
// (the store's own Key ids are all 16 bytes and share a prefix, so
// they never reach the prefix or word-tie edge cases). Keys decode
// from enc as runKeys writes them; a later write to a key replaces an
// earlier one. Each key, each with a byte added and with its last
// byte dropped, nil and probe are searched and looked up in the frozen
// run and in the run a full merge of it yields, which drops the
// tombstones. Every key a run holds, tombstones included, must pass
// that run's filter, or a Get would skip it.
func FuzzRunSearch(f *testing.F) {
	f.Add(runKeys(false, "", "a", "b"), []byte(nil))
	f.Add(runKeys(false, "prefix-aaa", "prefix-mmm", "prefix-zzz"), []byte("pre"))
	f.Add(runKeys(false, "prefix-aaa", "prefix-zzz"), []byte("prea"))
	f.Add(runKeys(false, "prefix-aaa", "prefix-zzz"), []byte("prefiz"))
	f.Add(runKeys(false, "prefix-aaa", "prefix-zzz"), []byte("prea-zzzzzz"))
	f.Add(runKeys(false, "prefix-aaa", "prefix-zzz"), []byte("prefiz-aaa"))
	f.Add(runKeys(false, "a", "a\x00", "a\x00\x00", "b"), []byte("a\x00\x01"))
	f.Add(runKeys(false, "a", "b01234567xa", "b01234567xb", "b01234567xc", "c"), []byte("b01234567xbb"))
	f.Add(runKeys(false, "a0000000a", "b0000000a", "b0000000b", "c0000000a"), []byte("b0000000"))
	f.Add(runKeys(false, "ab\x00", "ac\x00"), []byte("ab"))
	f.Add(runKeys(false, "one"), []byte("one"))
	f.Add(runKeys(true, "gone", "too"), []byte("gone"))
	// A tie range across more than three fence blocks: the 40 middle
	// keys share the 8 bytes after the common prefix, so every fence
	// word but the first ties. Probe each block's first and last key
	// and the gap after each block.
	tied := fenceTieKeys(40)
	for b := 0; b < len(tied); b += fenceStride {
		last := tied[min(b+fenceStride, len(tied))-1]
		f.Add(runKeys(false, tied...), []byte(tied[b]))
		f.Add(runKeys(false, tied...), []byte(last))
		f.Add(runKeys(false, tied...), []byte(last+"5"))
	}
	f.Fuzz(func(t *testing.T, enc, probe []byte) {
		sl := NewSkipList()
		tombs := map[string]bool{}
		for len(enc) > 0 {
			n, del := min(int(enc[0]&31), len(enc)-1), enc[0]&0x80 != 0
			k := enc[1 : 1+n]
			enc = enc[1+n:]
			if del {
				sl.Delete(k)
			} else {
				sl.Put(k, append([]byte("v"), k...))
			}
			tombs[string(k)] = del
		}
		var all, live []string
		for k, del := range tombs {
			all = append(all, k)
			if !del {
				live = append(live, k)
			}
		}
		sort.Strings(all)
		sort.Strings(live)
		probes := [][]byte{nil, probe}
		for _, k := range all {
			probes = append(probes, []byte(k), append([]byte(k), 0))
			if k != "" {
				probes = append(probes, []byte(k[:len(k)-1]))
			}
		}
		check := func(name string, r *Run, keys []string) {
			if r.Len() != len(keys) {
				t.Fatalf("%s run holds %d entries, want %d", name, r.Len(), len(keys))
			}
			for _, k := range keys {
				if !r.filter.mayContain(newProbe([]byte(k))) {
					t.Fatalf("%s run filter rules out its key %q (tombstone %v)", name, k, tombs[k])
				}
			}
			for _, p := range probes {
				want := searchRef(keys, p)
				if got, _ := r.search(p); got != want {
					t.Fatalf("%s run search(%q) = %d, want %d over %q", name, p, got, want, keys)
				}
				wantFound := want < len(keys) && keys[want] == string(p)
				v, found, tomb := r.Get(p)
				if found != wantFound {
					t.Fatalf("%s run Get(%q) found %v, want %v over %q", name, p, found, wantFound, keys)
				}
				if wantTomb := found && name == "frozen" && tombs[string(p)]; tomb != wantTomb {
					t.Fatalf("%s run Get(%q) tombstone %v, want %v", name, p, tomb, wantTomb)
				}
				if found && !tomb && string(v) != "v"+string(p) {
					t.Fatalf("%s run Get(%q) = %q", name, p, v)
				}
			}
		}
		r := buildRun(sl)
		check("frozen", r, all)
		check("merged", mergeRuns([]*Run{r}), live)
	})
}

// searchRef is the reference for Run.search: the index of the first
// of the sorted keys at or above p.
func searchRef(keys []string, p []byte) int {
	return sort.Search(len(keys), func(i int) bool { return bytes.Compare([]byte(keys[i]), p) >= 0 })
}

// fenceTieKeys returns "a", then n keys "b01234567" + a two-digit
// suffix, then "c": the common prefix is empty, so the middle keys'
// search words all tie.
func fenceTieKeys(n int) []string {
	keys := []string{"a"}
	for i := 0; i < n; i++ {
		keys = append(keys, fmt.Sprintf("b01234567%02d", i))
	}
	return append(keys, "c")
}

// TestRunSearchEverySize holds search to searchRef for every run size
// from empty to three fence blocks and one entry, over three key
// families: distinct search words, groups of five tied words that
// straddle fence blocks, and one tie range with a distinct key at
// each end. Each key is probed as it is, with a zero byte appended
// and with its last byte dropped; a probe equal to a key must report
// a word tie, since Get compares keys only then.
func TestRunSearchEverySize(t *testing.T) {
	families := map[string]func(n int) []string{
		"distinct": func(n int) []string {
			keys := make([]string, n)
			for i := range keys {
				keys[i] = fmt.Sprintf("%03d", 2*i+1)
			}
			return keys
		},
		"tie-groups": func(n int) []string {
			keys := make([]string, n)
			for i := range keys {
				keys[i] = fmt.Sprintf("%c01234567%02d", 'a'+i/5, i)
			}
			return keys
		},
		"tie-range": func(n int) []string {
			if n < 2 {
				return []string{"a"}[:n]
			}
			return fenceTieKeys(n - 2)
		},
	}
	for name, keysOf := range families {
		for n := 0; n <= 3*fenceStride+1; n++ {
			keys := keysOf(n)
			es := make([]entry, len(keys))
			probes := [][]byte{nil}
			for i, k := range keys {
				es[i] = entry{k: []byte(k), v: []byte("v")}
				probes = append(probes, []byte(k), []byte(k+"\x00"))
				if k != "" {
					probes = append(probes, []byte(k[:len(k)-1]))
				}
			}
			r := runOf(es, false)
			for _, p := range probes {
				want := searchRef(keys, p)
				got, tie := r.search(p)
				if got != want {
					t.Fatalf("%s, %d keys: search(%q) = %d, want %d over %q", name, n, p, got, want, keys)
				}
				if want < n && keys[want] == string(p) && !tie {
					t.Fatalf("%s, %d keys: search(%q) found the key without a word tie", name, n, p)
				}
			}
		}
	}
}

// runsOf joins runKeys encodings into FuzzMergeRuns input, one per
// run, setting bit 6 of each later run's first header to start it.
func runsOf(runs ...[]byte) []byte {
	var enc []byte
	for i, r := range runs {
		if i > 0 && len(r) > 0 {
			enc = append(enc, r[0]|0x40)
			r = r[1:]
		}
		enc = append(enc, r...)
	}
	return enc
}

// entry is one key, value and tombstone flag of a reference run.
type entry struct {
	k, v []byte
	tomb bool
}

// runOf builds a run entry by entry from sorted entries, sized by
// counting them first: the shape buildRun and mergeRuns must produce.
func runOf(entries []entry, tombs bool) *Run {
	var b runBuilder
	for i, e := range entries {
		if i == 0 {
			b.first = e.k
		}
		b.last = e.k
		b.n++
		b.keyBytes += len(e.k)
		b.valBytes += len(e.v)
	}
	r := b.alloc(tombs)
	for _, e := range entries {
		r.add(e.k, e.v)
		if tombs {
			r.tombs = append(r.tombs, e.tomb)
		}
	}
	r.seal()
	return r
}

// frozenRef freezes sl entry by entry from its Ascend order.
func frozenRef(sl *SkipList) *Run {
	var es []entry
	sl.Ascend(func(k, v []byte, tomb bool) bool {
		es = append(es, entry{k, v, tomb})
		return true
	})
	return runOf(es, true)
}

// mergeRef merges runs (newest first) through the iterators' per-entry
// merger.next, the reference mergeRuns must match.
func mergeRef(runs []*Run) *Run {
	m := runMerger(runs)
	var es []entry
	m.first()
	for k, v, ok := m.next(); ok; k, v, ok = m.next() {
		es = append(es, entry{k, v, false})
	}
	return runOf(es, false)
}

// checkExact fails unless every array of r is filled to its capacity,
// the sign that it was sized before its entries were copied.
func checkExact(t *testing.T, name string, r *Run) {
	t.Helper()
	if cap(r.keys) != len(r.keys) || cap(r.vals) != len(r.vals) || cap(r.koff) != len(r.koff) ||
		cap(r.voff) != len(r.voff) || cap(r.index) != len(r.index) || cap(r.tombs) != len(r.tombs) {
		t.Fatalf("%s run arrays not exactly sized: keys %d/%d vals %d/%d koff %d/%d voff %d/%d index %d/%d tombs %d/%d",
			name, len(r.keys), cap(r.keys), len(r.vals), cap(r.vals), len(r.koff), cap(r.koff),
			len(r.voff), cap(r.voff), len(r.index), cap(r.index), len(r.tombs), cap(r.tombs))
	}
}

// FuzzMergeRuns holds compaction's stretch merge to the iterators'
// per-entry merge: over 1–6 runs of arbitrary byte keys, ordered newest
// first, mergeRuns must equal a run built from merger.next's output,
// every array and the filter included. Keys decode as runKeys writes
// them, with bit 6 of a header starting the next run; later runs are
// newer. A run whose bit is set in merged is first merged on its own
// through the reference, so it carries no tombstones, as compaction
// leaves it; the others are frozen memtables, tombstones included,
// and each must equal a run built entry by entry from its memtable.
// Every run must be sized exactly before its entries are copied.
func FuzzMergeRuns(f *testing.F) {
	f.Add(uint8(0), runKeys(false, "a", "b", "c"))
	f.Add(uint8(2), runsOf(runKeys(false, "a", "c", "e"), runKeys(false, "b", "c", "d"), runKeys(true, "c", "e")))
	f.Add(uint8(1), runsOf(runKeys(false, "prefix-aaa", "prefix-zzz"), runKeys(false, "prefix-mmm"), runKeys(true, "prefix-aaa")))
	f.Add(uint8(5), runsOf(runKeys(false, "a", "b01234567xa", "b01234567xb"), runKeys(false, "b01234567xc", "c"),
		runKeys(true, "b01234567xb"), runKeys(false, "", "zz")))
	f.Add(uint8(0x2a), runsOf(runKeys(false, "k1", "k2", "k3", "k4", "k5", "k6"), runKeys(true, "k2", "k4"),
		runKeys(false, "k3"), runKeys(false, "k0", "k7"), runKeys(true, "k1"), runKeys(false, "k6", "k8")))
	f.Fuzz(func(t *testing.T, merged uint8, enc []byte) {
		sls := []*SkipList{NewSkipList()}
		for len(enc) > 0 {
			n, del := min(int(enc[0]&31), len(enc)-1), enc[0]&0x80 != 0
			if enc[0]&0x40 != 0 && len(sls) < 6 {
				sls = append(sls, NewSkipList())
			}
			k := enc[1 : 1+n]
			enc = enc[1+n:]
			sl := sls[len(sls)-1]
			if del {
				sl.Delete(k)
			} else {
				sl.Put(k, append([]byte("v"), k...))
			}
		}
		runs := make([]*Run, len(sls))
		for i, sl := range sls {
			r := buildRun(sl)
			checkExact(t, "frozen", r)
			if want := frozenRef(sl); !reflect.DeepEqual(r, want) {
				t.Fatalf("run %d froze to\n %+v\nwant\n %+v", i, r, want)
			}
			if merged>>i&1 != 0 {
				r = mergeRef([]*Run{r})
			}
			runs[len(sls)-1-i] = r
		}
		got, want := mergeRuns(runs), mergeRef(runs)
		checkExact(t, "merged", got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("mergeRuns over %d runs =\n %+v\nwant\n %+v", len(runs), got, want)
		}
	})
}
