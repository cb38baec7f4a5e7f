package kvstore

import "math"

// Batch accumulates writes for application under a single acquisition
// of the central mutex, mirroring LevelDB's WriteBatch — the unit its
// write path actually moves through DBImpl::Write. Batching amortizes
// lock traffic (one acquire/release per batch instead of per
// operation), which under a contended coarse mutex is itself a
// lock-workload shape worth benchmarking.
//
// Like WriteBatch's rep_, a batch packs every queued key and value
// into one buffer that Reset keeps, so refilling a batch of the same
// shape allocates nothing. Write copies them into the memtable, so the
// store keeps no batch memory.
type Batch struct {
	rep []byte // every queued key and value, back to back
	ops []batchOp
}

// batchOp is one queued write: its key and then its value, at off in
// the batch's rep.
type batchOp struct {
	off, klen, vlen uint32
	delete          bool
}

func (op batchOp) key(rep []byte) []byte { return rep[op.off : op.off+op.klen] }

func (op batchOp) value(rep []byte) []byte {
	v := op.off + op.klen
	return rep[v : v+op.vlen]
}

// Put queues an insert/overwrite.
func (b *Batch) Put(key, value []byte) { b.add(key, value, false) }

// Delete queues a tombstone.
func (b *Batch) Delete(key []byte) { b.add(key, nil, true) }

func (b *Batch) add(key, value []byte, del bool) {
	off := len(b.rep)
	if uint64(off)+uint64(len(key))+uint64(len(value)) > math.MaxUint32 {
		panic("kvstore: batch exceeds 4 GiB")
	}
	b.rep = append(append(b.rep, key...), value...)
	b.ops = append(b.ops, batchOp{off: uint32(off), klen: uint32(len(key)), vlen: uint32(len(value)), delete: del})
}

// Len reports the number of queued operations.
func (b *Batch) Len() int { return len(b.ops) }

// Reset clears the batch for reuse.
func (b *Batch) Reset() { b.rep, b.ops = b.rep[:0], b.ops[:0] }

// Write applies the batch under one acquisition of the store's mutex.
// Operations apply in order; a freeze is considered at most once, at
// the end, so a batch lands in a single memtable generation whenever
// it fits.
func (db *DB) Write(b *Batch) {
	if b.Len() == 0 {
		return
	}
	db.mu.Lock()
	db.applyLocked(b.rep, b.ops)
	db.mu.Unlock()
}

// applyLocked applies ops, queued in rep, in order and considers one
// freeze at the end. The caller holds db's lock — directly (DB.Write)
// or through the sharded store's stripe table, which holds every
// involved shard lock while a cross-shard batch applies.
func (db *DB) applyLocked(rep []byte, ops []batchOp) {
	for _, op := range ops {
		if op.delete {
			db.mem.Delete(op.key(rep))
			db.stats.Deletes++
		} else {
			db.mem.Put(op.key(rep), op.value(rep))
			db.stats.Puts++
		}
	}
	db.maybeFreezeLocked()
}
