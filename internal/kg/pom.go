package kg

import (
	"slices"
	"sync"
	"sync/atomic"
)

// The predicate-major secondary index ("pom": predicate → object key →
// posting list of subjects). Any cross-subject probe — the bound-object
// clause of a conjunctive query, a selectivity estimate — would otherwise
// have to sweep every subject shard; the pom index holds the postings
// merged across shards, partitioned by predicate into fixed lock stripes,
// so one stripe read-lock answers the whole-graph question. Per-predicate
// totals ride along, making PredicateFrequency and the planner's cost
// estimates O(1) count lookups instead of shard sweeps or slice builds.
//
// # Deferred maintenance (delta buffers)
//
// Writers do not touch the stripes inline. Each mutation appends a
// pomDelta record (pred, objKey, subj, ±1) to its subject shard's buffer
// while holding the shard write lock, and the buffer drains to the
// stripes — in record order, one stripe acquisition per run of
// same-stripe records — when it reaches the graph's flush threshold.
// Same-predicate parallel ingestion therefore takes the hot predicate's
// stripe lock once per buffer instead of once per triple, which removes
// the cross-shard stripe serialization that taxed parallel writers.
//
// Readers never observe the deferral: every pom accessor starts with
// pomSync, which drains all dirty shards' buffers when the graph-level
// dirty count is non-zero (one atomic load when clean — the read-heavy
// fast path costs nothing). A mutation that returned before the read
// began has its record in some buffer by then, so flush-on-read
// preserves read-your-writes; records of concurrent in-flight mutations
// may or may not be seen, exactly as before buffering.
//
// # Locking and watermark contract
//
// Stripe locks are strictly leaf-level: they are only ever taken while
// holding either the flushing shard's write lock (writer-triggered and
// reader-triggered drains both flush under the shard lock) or no shard
// lock at all (plain stripe reads). Readers holding a stripe lock never
// acquire a shard lock inside it. Because every stripe write happens
// under some shard write lock, the all-shard read lock (rlockAll, which
// additionally re-drains until it observes every buffer empty) freezes
// the pom index — a consistent cut at watermark w observes pom postings
// reflecting exactly the first w mutations. A plain pom read is
// internally consistent for its predicate's stripe and as fresh as the
// moment the stripe lock was taken.
//
// # Posting lists: canonical order and O(1) retract
//
// Every posting enumerates its subjects in ascending EntityID order, a
// function of the graph's state alone: two graphs holding the same
// triples enumerate every posting identically, whatever the order of
// their writes, flushes or restarts. That is what makes a cursor replay,
// an as-of read (graphengine's Overlay) and a recovered graph agree with
// a live capture.
//
// Delta buffers drain out of global order, so the order is restored
// lazily rather than on every flushed record: an append above every
// subject placed so far extends the sorted prefix, any other append
// leaves the posting unsorted, and the first ordered read sorts it once
// (sorting the unsorted tail and merging it into the prefix, under the
// stripe write lock). Appends therefore stay O(1) and a bulk load pays
// one sort, not an insertion per record.
//
// Removal from a short list splices; the first removal from a list that
// has grown past postingIdxThreshold builds a subject → slot position
// map and switches the list to tombstoning (slot zeroed in O(1),
// compaction once half the slots are dead), so retracting from a hot
// posting — millions of subjects sharing one (type, Person) pair — costs
// amortized O(1) instead of a linear rescan. The map keeps a retracted
// subject's slot (as ^slot) until the slot moves, so a re-assert revives
// the slot in place: retract/re-assert churn keeps the posting sorted
// and never appends. Bulk write-once loads never build the map.

// pomStripeCount is the number of predicate lock stripes. Predicates are
// few (hundreds, not millions); 64 stripes keeps writer collisions on
// distinct predicates rare while bounding the fixed per-graph footprint.
const pomStripeCount = 64

// pomFlushThresholdDefault is the per-shard delta-buffer length that
// triggers a writer-side flush. Large enough to amortize a stripe
// acquisition over many same-predicate records, small enough that a
// reader-triggered drain of every shard stays cheap (shards × threshold
// records worst case).
const pomFlushThresholdDefault = 256

// postingIdxThreshold is the posting length at which removal switches
// from linear splice to the position-map + tombstone scheme. Below it a
// splice touches at most a cache line or two; above it the one-time map
// build is amortized over the asserts that grew the list.
const postingIdxThreshold = 64

// pomDelta is one buffered maintenance record: apply (add) or remove
// subj from the (pred, obj) posting.
type pomDelta struct {
	pred PredicateID
	subj EntityID
	obj  ValueKey
	add  bool
}

// posting is one (pred, obj) subject list. Same tombstone scheme as
// ospPosting (see graph.go): idx is nil until the first removal from a
// long list, NoEntity marks dead slots, live() is the true cardinality.
// The two types are deliberately parallel monomorphic implementations —
// a shared generic would put a non-inlinable key-function call on the
// hot add path — so a change to either's invariants (threshold,
// compaction trigger, idx-build condition) must be mirrored in the other.
// They differ in order only: a posting is kept in ascending subject
// order (see "Posting lists" above), which the osp index does not
// promise, and its map holds ^slot for a dead subject so a re-assert can
// revive the slot.
type posting struct {
	subs []EntityID
	dead int
	// idx maps a live subject to its slot and a retracted subject to
	// ^slot of its tombstone (dropped once the slot moves).
	idx map[EntityID]int32
	// sorted is the length of the ascending prefix of subs (tombstones
	// aside); the posting is in canonical order iff sorted == len(subs).
	// hi is the largest subject placed since the last compaction, so an
	// append above it extends the prefix.
	sorted int
	hi     EntityID
	// ver is the posting's slot-stability epoch: it advances whenever an
	// operation shifts surviving subjects to new slots (a short-list
	// splice, a compaction or a sort), and only then. Appends extend the
	// tail, and tombstoning and revival write one slot in place, so none
	// moves a survivor — a chunked reader (SubjectsWithChunked) that
	// resumes at a saved offset under an unchanged ver can never skip or
	// re-read a subject that was present throughout; a ver change tells
	// it to restart.
	ver uint32
}

func (p posting) live() int { return len(p.subs) - p.dead }

func (p posting) inOrder() bool { return p.sorted == len(p.subs) }

func (p posting) add(subj EntityID) posting {
	if p.idx != nil {
		if slot, ok := p.idx[subj]; ok && slot < 0 {
			p.subs[^slot] = subj
			p.idx[subj] = ^slot
			p.dead--
			return p
		}
		p.idx[subj] = int32(len(p.subs))
	}
	if p.inOrder() && subj > p.hi {
		p.sorted++
	}
	p.hi = max(p.hi, subj)
	p.subs = append(p.subs, subj)
	return p
}

func (p posting) remove(subj EntityID) posting {
	if p.idx == nil {
		if len(p.subs) < postingIdxThreshold {
			if i := slices.Index(p.subs, subj); i >= 0 {
				p.subs = slices.Delete(p.subs, i, i+1)
				if i < p.sorted {
					p.sorted--
				}
				p.ver++
			}
			return p
		}
		p.idx = make(map[EntityID]int32, len(p.subs))
		for i, s := range p.subs {
			p.idx[s] = int32(i)
		}
	}
	slot, ok := p.idx[subj]
	if !ok || slot < 0 {
		return p
	}
	p.subs[slot] = NoEntity
	p.idx[subj] = ^slot
	p.dead++
	if p.dead*2 >= len(p.subs) {
		p = p.compact()
	}
	return p
}

// compact drops tombstones and restores ascending order in place: the
// unsorted tail is sorted on its own and merged into the sorted prefix
// from the back, O(len + t log t) for a tail of t (a full re-sort of a
// million-subject posting with a few hundred late appends costs tens of
// times more). The position map is rebuilt over the survivors; the
// retracted subjects' ^slots go with their slots. It serves both the
// tombstone trigger and the first ordered read after out-of-order
// appends.
func (p posting) compact() posting {
	head := dropDead(p.subs[:p.sorted])
	tail := dropDead(slices.Clone(p.subs[p.sorted:]))
	slices.Sort(tail)
	n := len(head) + len(tail)
	out := p.subs[:n]
	i, j := len(head)-1, len(tail)-1
	for k := n - 1; j >= 0; k-- {
		if i >= 0 && head[i] > tail[j] {
			out[k] = head[i]
			i--
		} else {
			out[k] = tail[j]
			j--
		}
	}
	p.subs, p.dead, p.sorted = out, 0, n
	if n > 0 {
		p.hi = out[n-1]
	}
	p.ver++
	if p.idx != nil {
		clear(p.idx)
		for i, s := range p.subs {
			p.idx[s] = int32(i)
		}
	}
	return p
}

// dropDead removes the tombstones from subs in place.
func dropDead(subs []EntityID) []EntityID {
	live := subs[:0]
	for _, s := range subs {
		if s != NoEntity {
			live = append(live, s)
		}
	}
	return live
}

// predPostings holds one predicate's postings and counters.
type predPostings struct {
	// objs maps object identity -> the posting of subjects asserting
	// (pred, obj). Subjects are unique within a posting (the graph dedups
	// SPO identity) and every read sees them in ascending ID order,
	// independent of the order in which the shards' delta buffers
	// drained (see "Posting lists" above).
	objs map[ValueKey]posting
	// total is the number of (pred, *) triples; entityTotal the subset
	// whose object is an entity.
	total       int
	entityTotal int
}

// pomStripe guards the postings of the predicates hashing to the stripe.
// The trailing pad keeps neighboring stripes' mutexes off one cache line.
type pomStripe struct {
	mu    sync.RWMutex
	preds map[PredicateID]*predPostings
	// applied counts flush runs into this stripe — the validation epoch
	// for the count read-through (see SubjectsWithCount): a reader that
	// observes the same epoch before its base read and after its buffer
	// scan knows no buffered record moved into the stripe in between, so
	// base + buffered cannot double- or under-count.
	applied atomic.Uint64

	_ [88]byte // pad to 128 bytes
}

func (g *Graph) pomStripe(pred PredicateID) *pomStripe {
	return &g.pom[uint32(pred)&(pomStripeCount-1)]
}

// apply plays one delta record into the stripe. The caller holds the
// stripe write lock.
func (st *pomStripe) apply(d *pomDelta) {
	pp := st.preds[d.pred]
	if d.add {
		if pp == nil {
			pp = &predPostings{objs: make(map[ValueKey]posting)}
			st.preds[d.pred] = pp
		}
		pp.objs[d.obj] = pp.objs[d.obj].add(d.subj)
		pp.total++
		if d.obj.Kind == KindEntity {
			pp.entityTotal++
		}
		return
	}
	if pp == nil {
		return
	}
	if p, ok := pp.objs[d.obj]; ok {
		p = p.remove(d.subj)
		if p.live() == 0 {
			delete(pp.objs, d.obj)
		} else {
			pp.objs[d.obj] = p
		}
	}
	pp.total--
	if d.obj.Kind == KindEntity {
		pp.entityTotal--
	}
	if pp.total == 0 {
		delete(st.preds, d.pred)
	}
}

// pomBufferLocked appends one maintenance record to the shard's delta
// buffer, draining it when it reaches the graph's flush threshold. The
// caller holds sh's write lock. Within one shard the buffer preserves
// mutation order, and a (pred, obj, subj) triplet is owned by exactly one
// shard (its subject's), so records affecting the same posting slot can
// never be reordered across buffers.
func (g *Graph) pomBufferLocked(sh *graphShard, pred PredicateID, subj EntityID, obj ValueKey, add bool) {
	if len(sh.pomPending) == 0 {
		sh.pomDirty.Store(true)
		g.pomDirtyShards.Add(1)
	}
	sh.pomPending = append(sh.pomPending, pomDelta{pred: pred, subj: subj, obj: obj, add: add})
	if len(sh.pomPending) >= g.pomFlushAt {
		g.pomFlushShardLocked(sh)
	}
}

// pomFlushShardLocked applies and clears sh's buffered deltas, holding
// each stripe lock across the maximal run of consecutive same-stripe
// records (for bulk same-predicate ingestion that is one acquisition for
// the whole buffer). The caller holds sh's write lock; stripe locks stay
// strictly leaf-level.
func (g *Graph) pomFlushShardLocked(sh *graphShard) {
	if len(sh.pomPending) == 0 {
		return
	}
	var st *pomStripe
	for i := range sh.pomPending {
		d := &sh.pomPending[i]
		next := g.pomStripe(d.pred)
		if next != st {
			if st != nil {
				st.applied.Add(1)
				st.mu.Unlock()
			}
			st = next
			st.mu.Lock()
		}
		st.apply(d)
	}
	if st != nil {
		st.applied.Add(1)
		st.mu.Unlock()
	}
	sh.pomPending = sh.pomPending[:0]
	sh.pomDirty.Store(false)
	g.pomDirtyShards.Add(-1)
}

// pomSync makes the pom index current before a read: a single atomic
// check when no shard has buffered deltas (the read-heavy fast path),
// otherwise a drain of every dirty shard. Callers must hold no stripe or
// shard lock (the drain takes shard write locks).
func (g *Graph) pomSync() {
	if g.pomDirtyShards.Load() == 0 {
		return
	}
	g.pomFlushDirtyShards()
}

// pomFlushDirtyShards drains every shard whose delta buffer is non-empty,
// one shard at a time.
func (g *Graph) pomFlushDirtyShards() {
	for i := range g.shards {
		sh := &g.shards[i]
		if !sh.pomDirty.Load() {
			continue
		}
		sh.mu.Lock()
		g.pomFlushShardLocked(sh)
		sh.mu.Unlock()
	}
}

// SyncIndexes applies every buffered predicate-major index delta. Reads
// never require it — pom accessors drain buffers themselves — but batch
// producers (disk restore, ODKE write-back) can call it to pay the
// maintenance inside the write phase, keeping the first post-ingest read
// on its lock-free fast path.
func (g *Graph) SyncIndexes() { g.pomSync() }

// lockSorted locks st for an ordered read of the (pred, key) posting and
// returns the posting in ascending subject order. A posting that is
// already in order is read under the read lock (the common case: one
// acquisition, one flag check). An unsorted one is sorted under the write
// lock, and the read keeps that lock rather than re-acquiring a read lock
// a flush could slip in front of. The caller releases with unlock(excl).
func (st *pomStripe) lockSorted(pred PredicateID, key ValueKey) (p posting, excl bool) {
	st.mu.RLock()
	pp := st.preds[pred]
	if pp == nil {
		return posting{}, false
	}
	if p = pp.objs[key]; p.inOrder() {
		return p, false
	}
	st.mu.RUnlock()
	st.mu.Lock()
	if pp = st.preds[pred]; pp == nil {
		return posting{}, true
	}
	if p = pp.objs[key]; !p.inOrder() {
		p = p.compact()
		pp.objs[key] = p
	}
	return p, true
}

// lockSortedPred is lockSorted for every posting of pred at once.
func (st *pomStripe) lockSortedPred(pred PredicateID) (pp *predPostings, excl bool) {
	st.mu.RLock()
	pp = st.preds[pred]
	if pp == nil || !pp.anyUnsorted() {
		return pp, false
	}
	st.mu.RUnlock()
	st.mu.Lock()
	if pp = st.preds[pred]; pp != nil {
		for key, p := range pp.objs {
			if !p.inOrder() {
				pp.objs[key] = p.compact()
			}
		}
	}
	return pp, true
}

func (pp *predPostings) anyUnsorted() bool {
	for _, p := range pp.objs {
		if !p.inOrder() {
			return true
		}
	}
	return false
}

func (st *pomStripe) unlock(excl bool) {
	if excl {
		st.mu.Unlock()
	} else {
		st.mu.RUnlock()
	}
}

// SubjectsWith returns the subjects that carry (pred, obj) facts, read
// from the predicate-major index under a single stripe lock (one
// consistent point for the whole predicate, where the shard-swept variant
// could interleave with writers between shards), in ascending ID order.
func (g *Graph) SubjectsWith(pred PredicateID, obj Value) []EntityID {
	g.pomSync()
	st := g.pomStripe(pred)
	p, excl := st.lockSorted(pred, obj.MapKey())
	defer st.unlock(excl)
	if p.live() == 0 {
		return nil
	}
	out := make([]EntityID, 0, p.live())
	for _, s := range p.subs {
		if s != NoEntity {
			out = append(out, s)
		}
	}
	return out
}

// SubjectsWithFunc streams the subjects carrying (pred, obj) facts to fn
// in ascending ID order under the stripe lock, stopping early if fn
// returns false. It is the copy-free counterpart of SubjectsWith; fn must
// not mutate the graph.
func (g *Graph) SubjectsWithFunc(pred PredicateID, obj Value, fn func(EntityID) bool) {
	g.pomSync()
	st := g.pomStripe(pred)
	p, excl := st.lockSorted(pred, obj.MapKey())
	defer st.unlock(excl)
	for _, s := range p.subs {
		if s == NoEntity {
			continue
		}
		if !fn(s) {
			return
		}
	}
}

// SubjectsWithChunked streams the subjects carrying (pred, obj) facts to
// fn in ascending ID order, in chunks of at most chunkSize, copying each
// chunk out under one stripe lock acquisition and invoking fn with no
// locks held — the bounded-copy counterpart of SubjectsWith for huge
// postings, where a limit=10 query should not pay a million-entry slab
// copy before its first row. fn may read the graph freely and stops the enumeration by
// returning false; the chunk slice is reused across calls and must not
// be retained.
//
// Because the posting can mutate between chunk reads, resumption is
// guarded by the posting's slot-stability epoch: appends, in-place
// tombstones and revivals leave saved offsets valid, but a splice, a
// compaction or a sort (another reader restoring order after
// out-of-order appends) shifts slots, and the reader then restarts from
// the beginning of the re-sorted posting and delivers the next chunk
// with restarted=true — the caller must tolerate re-delivered subjects
// (the conjunctive executor's streaming dedup absorbs them). A resumed
// read does not sort: subjects appended since the first chunk may arrive
// after higher IDs. The guarantee is one-sided, matching a slab copy's:
// every subject present for the whole enumeration is delivered at least
// once, and no subject is delivered that was never present; subjects
// asserted or retracted concurrently may or may not appear. An
// enumeration over a posting nobody mutates is in ascending order.
func (g *Graph) SubjectsWithChunked(pred PredicateID, obj Value, chunkSize int, fn func(chunk []EntityID, restarted bool) bool) {
	if chunkSize <= 0 {
		chunkSize = 1024
	}
	g.pomSync()
	st := g.pomStripe(pred)
	key := obj.MapKey()
	var buf []EntityID
	var (
		off       int
		ver       uint32
		first     = true
		restarted bool
	)
	for {
		var (
			p    posting
			excl bool
		)
		if first {
			p, excl = st.lockSorted(pred, key)
			ver = p.ver
			first = false
			// Size the chunk buffer to the smaller of the chunk and the
			// posting itself: a selective query over an 8-subject posting
			// must not pay a chunkSize-capacity allocation.
			if n := p.live(); n > 0 {
				if n > chunkSize {
					n = chunkSize
				}
				buf = make([]EntityID, 0, n)
			}
		} else {
			st.mu.RLock()
			if pp := st.preds[pred]; pp != nil {
				p = pp.objs[key]
			}
			if p.ver != ver {
				// Slots shifted under us: restart on the posting in order,
				// flagging the next chunk so the caller knows earlier
				// subjects may be delivered again.
				st.mu.RUnlock()
				p, excl = st.lockSorted(pred, key)
				ver = p.ver
				off = 0
				restarted = true
			}
		}
		buf = buf[:0]
		for off < len(p.subs) && len(buf) < chunkSize {
			if s := p.subs[off]; s != NoEntity {
				buf = append(buf, s)
			}
			off++
		}
		end := off >= len(p.subs)
		st.unlock(excl)
		if len(buf) > 0 {
			if !fn(buf, restarted) {
				return
			}
			restarted = false
		}
		if end {
			return
		}
	}
}

// SubjectsWithCount returns the number of subjects carrying (pred, obj)
// facts without materializing the posting list. It is the planner's
// bound-object selectivity probe: one stripe read lock, two map lookups,
// zero allocations. Unlike the posting-list accessors it never drains
// buffered deltas — while writers have buffered work it answers
// read-through, merging the matching buffered records into the applied
// base count (see pomCountReadThrough), so a planner probe during
// sustained ingest does not pay the drain or serialize behind shard
// write locks.
func (g *Graph) SubjectsWithCount(pred PredicateID, obj Value) int {
	key := obj.MapKey()
	if n, ok := g.pomCountReadThrough(pred, key, true); ok {
		return n
	}
	g.pomSync()
	st := g.pomStripe(pred)
	st.mu.RLock()
	defer st.mu.RUnlock()
	pp := st.preds[pred]
	if pp == nil {
		return 0
	}
	return pp.objs[key].live()
}

// pomCountReadThrough answers a count probe for pred — restricted to
// object key when byObj — while delta buffers are dirty, WITHOUT
// draining them: the applied base count from the stripe plus the net of
// matching records still sitting in dirty shards' buffers. Validation
// is optimistic: the stripe's applied epoch must be identical before
// the base read and after the buffer scan, proving no buffered record
// migrated into the stripe in between (a migration would make base +
// buffered double-count it, or — if it moved before the base read but
// after a buffer was scanned empty — under-count). On epoch movement it
// retries, and after a few failed rounds reports !ok so the caller
// falls back to the drain-and-read path. Returns !ok immediately when
// buffers are clean — the plain locked read is strictly cheaper then.
//
// Lock order stays legal: the stripe RLock and each shard RLock are
// taken and released separately, never nested.
func (g *Graph) pomCountReadThrough(pred PredicateID, key ValueKey, byObj bool) (int, bool) {
	st := g.pomStripe(pred)
	for attempt := 0; attempt < 4; attempt++ {
		if g.pomDirtyShards.Load() == 0 {
			return 0, false
		}
		seq := st.applied.Load()
		base := 0
		st.mu.RLock()
		if pp := st.preds[pred]; pp != nil {
			if byObj {
				base = pp.objs[key].live()
			} else {
				base = pp.total
			}
		}
		st.mu.RUnlock()
		delta := 0
		for i := range g.shards {
			sh := &g.shards[i]
			if !sh.pomDirty.Load() {
				continue
			}
			sh.mu.RLock()
			for j := range sh.pomPending {
				d := &sh.pomPending[j]
				if d.pred != pred || (byObj && d.obj != key) {
					continue
				}
				if d.add {
					delta++
				} else {
					delta--
				}
			}
			sh.mu.RUnlock()
		}
		if st.applied.Load() == seq {
			return base + delta, true
		}
	}
	return 0, false
}

// SubjectsWithSweep answers SubjectsWith from the subject-sharded indexes
// alone, never touching the predicate-major index: per shard, the pos
// count for (pred, obj) gates a bounded spo scan that recovers the
// matching subjects (shards with a zero count are skipped; the scan stops
// once the counted matches are found). Shards are visited one at a time
// (each contribution internally consistent, writers may land between
// visits). It is the index-free reference implementation the pom property
// tests compare against and the E13 benchmark baseline; serving paths use
// SubjectsWith. Since the pos shrink it costs a shard spo scan rather
// than a posting read — the price of keeping one reverse index instead of
// two.
func (g *Graph) SubjectsWithSweep(pred PredicateID, obj Value) []EntityID {
	key := obj.MapKey()
	var out []EntityID
	for i := range g.shards {
		sh := &g.shards[i]
		sh.mu.RLock()
		if want := sh.pos[pred][key]; want > 0 {
			found := 0
			for subj, bySubj := range sh.spo {
				for _, t := range bySubj[pred] {
					if t.Object.MapKey() == key {
						out = append(out, subj)
						found++
						break
					}
				}
				if found == want {
					break
				}
			}
		}
		sh.mu.RUnlock()
	}
	return out
}

// PredicateFrequency returns the current number of triples using pred —
// an O(1) counter read from the predicate-major index, not a shard
// sweep. Like SubjectsWithCount it never drains buffered deltas: under
// sustained ingest the buffered records for pred are merged into the
// applied total read-through (see pomCountReadThrough).
func (g *Graph) PredicateFrequency(pred PredicateID) int {
	if n, ok := g.pomCountReadThrough(pred, ValueKey{}, false); ok {
		return n
	}
	g.pomSync()
	st := g.pomStripe(pred)
	st.mu.RLock()
	defer st.mu.RUnlock()
	if pp := st.preds[pred]; pp != nil {
		return pp.total
	}
	return 0
}

// PredicateEntriesFunc streams every (object value, subject) pair indexed
// under pred to fn, stopping early if fn returns false. Object values are
// reconstructed from their identity keys, so provenance is not carried;
// the order across objects is unspecified (map order), and within one
// object's posting subjects come in ascending ID order. fn runs under the
// stripe lock and must not mutate the graph.
func (g *Graph) PredicateEntriesFunc(pred PredicateID, fn func(obj Value, subj EntityID) bool) {
	g.pomSync()
	st := g.pomStripe(pred)
	pp, excl := st.lockSortedPred(pred)
	defer st.unlock(excl)
	if pp == nil {
		return
	}
	for key, p := range pp.objs {
		obj := key.Value()
		for _, s := range p.subs {
			if s == NoEntity {
				continue
			}
			if !fn(obj, s) {
				return
			}
		}
	}
}
