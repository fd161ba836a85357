package kg

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
)

// The merge-append AssertBatch fast path (identity-sorted input detected
// in O(n), stable-bucketed by shard instead of comparison-sorted) must be
// semantically identical to the general sorted path: same facts, same
// added count, same index contents.
func TestAssertBatchSortedEquivalence(t *testing.T) {
	f := func(ops []uint32, shardBits uint8) bool {
		const nEnts = 12
		const nPreds = 4
		mk := func() (*Graph, []EntityID, []PredicateID, []Value) {
			g := NewGraphWithShards(1 << (shardBits % 4))
			ents := make([]EntityID, nEnts)
			for i := range ents {
				id, err := g.AddEntity(Entity{Key: fmt.Sprintf("e%d", i)})
				if err != nil {
					t.Fatal(err)
				}
				ents[i] = id
			}
			preds := make([]PredicateID, nPreds)
			for i := range preds {
				id, err := g.AddPredicate(Predicate{Name: fmt.Sprintf("p%d", i)})
				if err != nil {
					t.Fatal(err)
				}
				preds[i] = id
			}
			return g, ents, preds, pomTestObjects(ents)
		}
		gSorted, ents, preds, objs := mk()
		gShuffled, _, _, _ := mk()

		batch := make([]Triple, 0, len(ops))
		for _, op := range ops {
			batch = append(batch, Triple{
				Subject:   ents[int(op)%nEnts],
				Predicate: preds[int(op>>4)%nPreds],
				Object:    objs[int(op>>8)%len(objs)],
			})
		}
		sorted := append([]Triple(nil), batch...)
		sortTriplesByIdentity(sorted)
		shuffled := append([]Triple(nil), batch...)
		rand.New(rand.NewSource(int64(len(ops)))).Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})

		addedSorted, err := gSorted.AssertBatch(sorted)
		if err != nil {
			return false
		}
		addedShuffled, err := gShuffled.AssertBatch(shuffled)
		if err != nil {
			return false
		}
		if addedSorted != addedShuffled {
			t.Fatalf("added: sorted path %d vs general path %d", addedSorted, addedShuffled)
		}
		a, b := gSorted.AllTriples(), gShuffled.AllTriples()
		if len(a) != len(b) {
			t.Fatalf("AllTriples: %d vs %d triples", len(a), len(b))
		}
		for i := range a {
			if a[i].IdentityKey() != b[i].IdentityKey() {
				t.Fatalf("AllTriples[%d]: %v vs %v", i, a[i], b[i])
			}
		}
		checkPomAgainstSweep(t, gSorted, preds, objs)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func sortTriplesByIdentity(ts []Triple) {
	keys := make([]TripleKey, len(ts))
	for i := range ts {
		keys[i] = ts[i].IdentityKey()
	}
	// Insertion sort on precomputed keys: fine for test-sized batches and
	// stable, so in-batch duplicates keep their input order.
	for i := 1; i < len(ts); i++ {
		tv, kv := ts[i], keys[i]
		j := i - 1
		for j >= 0 && keys[j].Compare(kv) > 0 {
			ts[j+1], keys[j+1] = ts[j], keys[j]
			j--
		}
		ts[j+1], keys[j+1] = tv, kv
	}
}

// On the merge-append path, the first occurrence of an in-batch duplicate
// identity must win (same provenance contract as the sorting path).
func TestAssertBatchSortedFirstWins(t *testing.T) {
	g := NewGraphWithShards(4)
	a, err := g.AddEntity(Entity{Key: "a"})
	if err != nil {
		t.Fatal(err)
	}
	p, err := g.AddPredicate(Predicate{Name: "p"})
	if err != nil {
		t.Fatal(err)
	}
	first := Triple{Subject: a, Predicate: p, Object: IntValue(7), Prov: Provenance{Source: "first"}}
	dup := first
	dup.Prov.Source = "second"
	added, err := g.AssertBatch([]Triple{first, dup}) // equal keys: sorted input
	if err != nil {
		t.Fatal(err)
	}
	if added != 1 {
		t.Fatalf("added = %d, want 1", added)
	}
	facts := g.Facts(a, p)
	if len(facts) != 1 || facts[0].Prov.Source != "first" {
		t.Fatalf("facts = %+v, want single fact with Source=first", facts)
	}
}

// Buffered pom deltas must be invisible to readers — count accessors
// answer read-through without draining, posting-list accessors
// flush-on-read — must drain on watermark-bearing reads (rlockAll), and
// must drain eagerly on SyncIndexes.
func TestPomDeltaBufferLifecycle(t *testing.T) {
	g := NewGraphWithShards(8)
	p, _ := g.AddPredicate(Predicate{Name: "p"})
	team, err := g.AddEntity(Entity{Key: "team"})
	if err != nil {
		t.Fatal(err)
	}
	assertOne := func(i int) {
		s, err := g.AddEntity(Entity{Key: fmt.Sprintf("s%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Assert(Triple{Subject: s, Predicate: p, Object: EntityValue(team)}); err != nil {
			t.Fatal(err)
		}
	}

	assertOne(0)
	if g.pomDirtyShards.Load() == 0 {
		t.Fatal("no dirty shard after a buffered assert")
	}
	// Read-your-writes without a drain: the count accessor answers
	// read-through, merging the buffered delta, and leaves the buffer in
	// place for the next posting-list reader or threshold flush.
	if got := g.SubjectsWithCount(p, EntityValue(team)); got != 1 {
		t.Fatalf("SubjectsWithCount = %d, want 1", got)
	}
	if g.pomDirtyShards.Load() == 0 {
		t.Fatal("count read-through drained the buffers; counts must not pay the drain")
	}
	// Posting-list reads still drain the buffer they need.
	if got := g.SubjectsWith(p, EntityValue(team)); len(got) != 1 {
		t.Fatalf("SubjectsWith = %v, want one subject", got)
	}
	if g.pomDirtyShards.Load() != 0 {
		t.Fatal("buffers still dirty after a posting-list read")
	}

	assertOne(1)
	g.TriplesSnapshot(func(Triple) bool { return true })
	if g.pomDirtyShards.Load() != 0 {
		t.Fatal("buffers still dirty after a watermark-bearing read")
	}
	for i := range g.shards {
		if len(g.shards[i].pomPending) != 0 {
			t.Fatalf("shard %d has %d pending deltas after rlockAll", i, len(g.shards[i].pomPending))
		}
	}

	assertOne(2)
	g.SyncIndexes()
	if g.pomDirtyShards.Load() != 0 {
		t.Fatal("buffers still dirty after SyncIndexes")
	}
	if got := g.PredicateFrequency(p); got != 3 {
		t.Fatalf("PredicateFrequency = %d, want 3", got)
	}
}

// The writer-side threshold flush: once a shard's buffer reaches the
// configured threshold the writer drains it itself, with no reader
// involved.
func TestPomDeltaThresholdFlush(t *testing.T) {
	g := NewGraphWithOptions(GraphOptions{Shards: 1, PomFlushThreshold: 4})
	p, _ := g.AddPredicate(Predicate{Name: "p"})
	s, err := g.AddEntity(Entity{Key: "s"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := g.Assert(Triple{Subject: s, Predicate: p, Object: IntValue(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	if g.pomDirtyShards.Load() != 0 {
		t.Fatal("buffer not flushed at threshold")
	}
	// Threshold 1 is the synchronous baseline: never dirty after a write.
	g1 := NewGraphWithOptions(GraphOptions{Shards: 4, PomFlushThreshold: 1})
	p1, _ := g1.AddPredicate(Predicate{Name: "p"})
	s1, err := g1.AddEntity(Entity{Key: "s"})
	if err != nil {
		t.Fatal(err)
	}
	if err := g1.Assert(Triple{Subject: s1, Predicate: p1, Object: IntValue(1)}); err != nil {
		t.Fatal(err)
	}
	if g1.pomDirtyShards.Load() != 0 {
		t.Fatal("threshold-1 graph left a dirty buffer")
	}
}

// Hot postings switch to position-mapped tombstones on their first
// retract and compact once half dead; through all of it the accessors
// must report live subjects only, for both the pom posting and the osp
// incoming posting, and the pom posting must stay in ascending subject
// order across tombstoning, compaction and re-assert.
func TestPostingTombstonesAndCompaction(t *testing.T) {
	const n = 200 // well past postingIdxThreshold
	g := NewGraphWithShards(1)
	p, _ := g.AddPredicate(Predicate{Name: "type"})
	person, err := g.AddEntity(Entity{Key: "Person"})
	if err != nil {
		t.Fatal(err)
	}
	subs := make([]EntityID, n)
	batch := make([]Triple, n)
	for i := range subs {
		id, err := g.AddEntity(Entity{Key: fmt.Sprintf("s%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = id
		batch[i] = Triple{Subject: id, Predicate: p, Object: EntityValue(person)}
	}
	if _, err := g.AssertBatch(batch); err != nil {
		t.Fatal(err)
	}

	obj := EntityValue(person)
	live := append([]EntityID(nil), subs...)
	rng := rand.New(rand.NewSource(1))
	for round := 0; round < 3; round++ {
		// Retract a random half of the live subjects.
		for i := 0; i < len(live)/2; i++ {
			j := rng.Intn(len(live))
			s := live[j]
			live = append(live[:j], live[j+1:]...)
			if !g.Retract(Triple{Subject: s, Predicate: p, Object: obj}) {
				t.Fatalf("retract of live subject %v failed", s)
			}
		}
		got := g.SubjectsWith(p, obj)
		if len(got) != len(live) {
			t.Fatalf("round %d: %d live subjects, want %d", round, len(got), len(live))
		}
		// Canonical order must survive tombstoning and compaction.
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				t.Fatalf("round %d after retract: order not strictly ascending at %d: %v then %v", round, i, got[i-1], got[i])
			}
		}
		if c := g.SubjectsWithCount(p, obj); c != len(live) {
			t.Fatalf("round %d: count %d, want %d", round, c, len(live))
		}
		if inc := g.Incoming(person); len(inc) != len(live) {
			t.Fatalf("round %d: Incoming = %d triples, want %d", round, len(inc), len(live))
		}
		// Re-assert a few retracted subjects; each takes its sorted place.
		isLive := make(map[EntityID]bool, len(live))
		for _, s := range live {
			isLive[s] = true
		}
		for i := 0; i < 10 && len(live) < n; i++ {
			var s EntityID
			for {
				s = subs[rng.Intn(n)]
				if !isLive[s] {
					break
				}
			}
			if err := g.Assert(Triple{Subject: s, Predicate: p, Object: obj}); err != nil {
				t.Fatal(err)
			}
			live = append(live, s)
			isLive[s] = true
		}
		if c := g.SubjectsWithCount(p, obj); c != len(live) {
			t.Fatalf("round %d after re-assert: count %d, want %d", round, c, len(live))
		}
		got = g.SubjectsWith(p, obj)
		if len(got) != len(live) {
			t.Fatalf("round %d after re-assert: %d live subjects, want %d", round, len(got), len(live))
		}
		for i := 1; i < len(got); i++ {
			if got[i-1] >= got[i] {
				t.Fatalf("round %d after re-assert: order not strictly ascending at %d: %v then %v", round, i, got[i-1], got[i])
			}
		}
	}

	// The pom posting must actually be running the tombstone scheme.
	g.SyncIndexes()
	st := g.pomStripe(p)
	post := st.preds[p].objs[obj.MapKey()]
	if post.idx == nil {
		t.Fatal("hot posting never built its position map")
	}
	if post.dead*2 >= len(post.subs)+2 {
		t.Fatalf("posting not compacting: %d dead of %d slots", post.dead, len(post.subs))
	}
	// And so must the osp posting (single shard, so the hub's incoming
	// posting is long enough to index).
	osp := g.shards[0].osp[person]
	if osp.idx == nil {
		t.Fatal("hot osp posting never built its position map")
	}

	// Retract everything: the posting and the osp entry must drain fully.
	for _, s := range g.SubjectsWith(p, obj) {
		if !g.Retract(Triple{Subject: s, Predicate: p, Object: obj}) {
			t.Fatalf("final drain: retract of %v failed", s)
		}
	}
	if c := g.SubjectsWithCount(p, obj); c != 0 {
		t.Fatalf("count after full drain = %d, want 0", c)
	}
	if len(g.Incoming(person)) != 0 {
		t.Fatal("Incoming non-empty after full drain")
	}
	if g.PredicateFrequency(p) != 0 {
		t.Fatalf("PredicateFrequency after drain = %d, want 0", g.PredicateFrequency(p))
	}
}
