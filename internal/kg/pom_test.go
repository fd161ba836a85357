package kg

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

// pomTestObjects builds the object-value pool the pom tests draw from:
// entity references plus literals of every kind, including the
// adversarial float payloads (NaN bit patterns, signed zeros) whose
// string renders are ambiguous.
func pomTestObjects(ents []EntityID) []Value {
	objs := make([]Value, 0, len(ents)+8)
	for _, e := range ents {
		objs = append(objs, EntityValue(e))
	}
	objs = append(objs,
		StringValue(""),
		StringValue("a;y=s:b"),
		IntValue(42),
		FloatValue(math.NaN()),
		FloatValue(math.Float64frombits(0x7ff8000000000002)),
		FloatValue(math.Copysign(0, -1)),
		BoolValue(true),
		TimeValue(time.Date(2020, 3, 1, 12, 0, 0, 0, time.UTC)),
	)
	return objs
}

func sortedIDs(ids []EntityID) []EntityID {
	out := append([]EntityID(nil), ids...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// checkPomAgainstSweep compares, for every (pred, obj) pair in the pools,
// the predicate-major index (SubjectsWith / SubjectsWithCount /
// PredicateFrequency) against the shard-swept per-shard pos reference
// (SubjectsWithSweep), and the counter-driven ComputeStats against a full
// triple scan.
func checkPomAgainstSweep(t *testing.T, g *Graph, preds []PredicateID, objs []Value) {
	t.Helper()
	for _, p := range preds {
		total := 0
		seen := make(map[ValueKey]bool, len(objs))
		for _, o := range objs {
			if k := o.MapKey(); seen[k] {
				continue
			} else {
				seen[k] = true
			}
			pom := sortedIDs(g.SubjectsWith(p, o))
			sweep := sortedIDs(g.SubjectsWithSweep(p, o))
			if len(pom) != len(sweep) {
				t.Fatalf("pred %v obj %v: pom %v vs sweep %v", p, o, pom, sweep)
			}
			for i := range pom {
				if pom[i] != sweep[i] {
					t.Fatalf("pred %v obj %v: pom %v vs sweep %v", p, o, pom, sweep)
				}
			}
			if c := g.SubjectsWithCount(p, o); c != len(sweep) {
				t.Fatalf("pred %v obj %v: count %d vs sweep %d", p, o, c, len(sweep))
			}
			total += len(sweep)
		}
		if f := g.PredicateFrequency(p); f != total {
			t.Fatalf("pred %v: PredicateFrequency %d vs sweep total %d", p, f, total)
		}
	}
	// ComputeStats (counter-driven) must agree with a direct triple scan.
	s := ComputeStats(g)
	wantFreq := make(map[PredicateID]int)
	wantTriples, wantEntity := 0, 0
	outDeg := make(map[EntityID]int)
	g.Triples(func(tr Triple) bool {
		wantTriples++
		if tr.Object.IsEntity() {
			wantEntity++
		}
		wantFreq[tr.Predicate]++
		outDeg[tr.Subject]++
		return true
	})
	if s.Triples != wantTriples || s.EntityTriples != wantEntity || s.LiteralTriples != wantTriples-wantEntity {
		t.Fatalf("stats counts = %d/%d/%d, scan says %d/%d/%d",
			s.Triples, s.EntityTriples, s.LiteralTriples, wantTriples, wantEntity, wantTriples-wantEntity)
	}
	if len(s.PredFreq) != len(wantFreq) {
		t.Fatalf("stats PredFreq = %v, scan says %v", s.PredFreq, wantFreq)
	}
	for p, n := range wantFreq {
		if s.PredFreq[p] != n {
			t.Fatalf("stats PredFreq[%v] = %d, scan says %d", p, s.PredFreq[p], n)
		}
	}
	wantMax := 0
	for _, d := range outDeg {
		if d > wantMax {
			wantMax = d
		}
	}
	if s.MaxOutDegree != wantMax {
		t.Fatalf("stats MaxOutDegree = %d, scan says %d", s.MaxOutDegree, wantMax)
	}
}

// Property: across randomized Assert/Retract/AssertBatch interleavings
// (with entity and adversarial-literal objects), the predicate-major
// index agrees exactly with the shard-swept per-shard pos index, and the
// maintained counters agree with full scans.
func TestPomMatchesSweepRandomized(t *testing.T) {
	f := func(ops []uint32, shardBits uint8) bool {
		g := NewGraphWithShards(1 << (shardBits % 4)) // 1..8 shards
		const nEnts = 12
		const nPreds = 5
		ents := make([]EntityID, nEnts)
		for i := range ents {
			id, err := g.AddEntity(Entity{Key: fmt.Sprintf("e%d", i)})
			if err != nil {
				return false
			}
			ents[i] = id
		}
		preds := make([]PredicateID, nPreds)
		for i := range preds {
			id, err := g.AddPredicate(Predicate{Name: fmt.Sprintf("p%d", i)})
			if err != nil {
				return false
			}
			preds[i] = id
		}
		objs := pomTestObjects(ents)
		var pending []Triple
		for _, op := range ops {
			tr := Triple{
				Subject:   ents[int(op)%nEnts],
				Predicate: preds[int(op>>4)%nPreds],
				Object:    objs[int(op>>8)%len(objs)],
			}
			switch (op >> 16) % 8 {
			case 0, 1, 2:
				if err := g.Assert(tr); err != nil {
					return false
				}
			case 3, 4:
				pending = append(pending, tr)
			case 5:
				if _, err := g.AssertBatch(pending); err != nil {
					return false
				}
				pending = pending[:0]
			default:
				g.Retract(tr)
			}
		}
		if _, err := g.AssertBatch(pending); err != nil {
			return false
		}
		checkPomAgainstSweep(t, g, preds, objs)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Concurrent churn under the race detector: writers interleave
// Assert/Retract/AssertBatch on overlapping subjects and predicates while
// readers hammer the pom accessors; when the writers drain, the index
// must agree with the shard-swept reference.
func TestPomConcurrentChurn(t *testing.T) {
	g := NewGraphWithShards(8)
	const nEnts = 64
	const nPreds = 6
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
	objs := pomTestObjects(ents[:16])

	var done atomic.Bool
	var writers, readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			var batch []Triple
			for i := 0; i < 1500; i++ {
				tr := Triple{
					Subject:   ents[rng.Intn(nEnts)],
					Predicate: preds[rng.Intn(nPreds)],
					Object:    objs[rng.Intn(len(objs))],
				}
				switch rng.Intn(8) {
				case 0, 1, 2, 3:
					if err := g.Assert(tr); err != nil {
						t.Error(err)
						return
					}
				case 4:
					g.Retract(tr)
				case 5, 6:
					batch = append(batch, tr)
				default:
					if _, err := g.AssertBatch(batch); err != nil {
						t.Error(err)
						return
					}
					batch = batch[:0]
				}
			}
			if _, err := g.AssertBatch(batch); err != nil {
				t.Error(err)
			}
		}(w)
	}
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for !done.Load() {
				p := preds[rng.Intn(nPreds)]
				o := objs[rng.Intn(len(objs))]
				_ = g.SubjectsWith(p, o)
				_ = g.SubjectsWithCount(p, o)
				_ = g.SubjectsWithSweep(p, o)
				_ = g.PredicateFrequency(p)
				g.SubjectsWithFunc(p, o, func(EntityID) bool { return true })
				if rng.Intn(16) == 0 {
					_ = ComputeStats(g)
				}
			}
		}(r)
	}
	writers.Wait()
	done.Store(true)
	readers.Wait()
	checkPomAgainstSweep(t, g, preds, objs)
}

// ValueKey.Value must round-trip identity for every kind, including NaN
// payloads, signed zeros, and times (as their UTC instant).
func TestValueKeyRoundTrip(t *testing.T) {
	vals := []Value{
		EntityValue(7),
		StringValue(""),
		StringValue("a=b;c"),
		IntValue(-3),
		IntValue(0),
		BoolValue(true),
		BoolValue(false),
		FloatValue(1.5),
		FloatValue(math.NaN()),
		FloatValue(math.Float64frombits(0x7ff8000000000002)),
		FloatValue(math.Copysign(0, -1)),
		FloatValue(0),
		TimeValue(time.Date(1969, 7, 20, 20, 17, 0, 123456789, time.FixedZone("X", -3600))),
	}
	for i, v := range vals {
		k := v.MapKey()
		rt := k.Value()
		if rt.MapKey() != k {
			t.Errorf("case %d: round-trip changed identity: %v -> %v", i, v, rt)
		}
		if v.Kind != KindFloat && !rt.Equal(v) {
			t.Errorf("case %d: round-trip not Equal: %v -> %v", i, v, rt)
		}
	}
	if (ValueKey{}).Value().Kind != 0 {
		t.Error("zero key must reconstruct the invalid zero Value")
	}
}

// Retract-heavy churn on hot postings under the race detector: 4 writers
// interleave Assert/Retract/AssertBatch with a retract-biased mix over a
// deliberately small (pred, obj) space, so posting lists grow past
// postingIdxThreshold, build their position maps, tombstone, and compact
// while readers (including the shard-swept reference) hammer the
// accessors. When the writers drain, the tombstoned predicate-major index
// must agree exactly with SubjectsWithSweep.
func TestPomRetractHeavyConcurrentChurn(t *testing.T) {
	g := NewGraphWithShards(8)
	const nEnts = 512
	const nPreds = 3
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
	// A handful of hot objects: postings concentrate to hundreds of
	// subjects each, the shape the tombstone path exists for.
	objs := pomTestObjects(ents[:2])

	var done atomic.Bool
	var writers, readers sync.WaitGroup
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(w) + 31))
			var batch []Triple
			for i := 0; i < 2500; i++ {
				tr := Triple{
					Subject:   ents[rng.Intn(nEnts)],
					Predicate: preds[rng.Intn(nPreds)],
					Object:    objs[rng.Intn(len(objs))],
				}
				switch rng.Intn(10) {
				case 0, 1, 2:
					if err := g.Assert(tr); err != nil {
						t.Error(err)
						return
					}
				case 3, 4, 5, 6: // retract-biased
					g.Retract(tr)
				case 7, 8:
					batch = append(batch, tr)
				default:
					if _, err := g.AssertBatch(batch); err != nil {
						t.Error(err)
						return
					}
					batch = batch[:0]
				}
			}
			if _, err := g.AssertBatch(batch); err != nil {
				t.Error(err)
			}
		}(w)
	}
	for r := 0; r < 2; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(200 + r)))
			for !done.Load() {
				p := preds[rng.Intn(nPreds)]
				o := objs[rng.Intn(len(objs))]
				_ = g.SubjectsWith(p, o)
				_ = g.SubjectsWithCount(p, o)
				_ = g.SubjectsWithSweep(p, o)
				_ = g.PredicateFrequency(p)
				if rng.Intn(8) == 0 {
					_ = g.MutationsSince(g.LastSeq() / 2)
				}
			}
		}(r)
	}
	writers.Wait()
	done.Store(true)
	readers.Wait()
	checkPomAgainstSweep(t, g, preds, objs)
}

// The count accessors must answer read-through while delta buffers are
// dirty: correct values (base plus buffered net, retracts included) with
// the buffers left in place — no drain, verified by pomDirtyShards
// staying nonzero across every count read.
func TestPomCountReadThrough(t *testing.T) {
	g := NewGraphWithShards(8)
	pA, _ := g.AddPredicate(Predicate{Name: "a"})
	pB, _ := g.AddPredicate(Predicate{Name: "b"})
	team, err := g.AddEntity(Entity{Key: "team"})
	if err != nil {
		t.Fatal(err)
	}
	other, err := g.AddEntity(Entity{Key: "other"})
	if err != nil {
		t.Fatal(err)
	}
	subs := make([]EntityID, 32)
	for i := range subs {
		id, err := g.AddEntity(Entity{Key: fmt.Sprintf("s%d", i)})
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = id
	}
	// Drain the clean slate so every later delta is a buffered one.
	g.SyncIndexes()

	check := func(wantTeamA, wantOtherA, wantFreqA, wantFreqB int) {
		t.Helper()
		if g.pomDirtyShards.Load() == 0 {
			t.Fatal("buffers unexpectedly clean; the read-through path is not being exercised")
		}
		if got := g.SubjectsWithCount(pA, EntityValue(team)); got != wantTeamA {
			t.Fatalf("SubjectsWithCount(a, team) = %d, want %d", got, wantTeamA)
		}
		if got := g.SubjectsWithCount(pA, EntityValue(other)); got != wantOtherA {
			t.Fatalf("SubjectsWithCount(a, other) = %d, want %d", got, wantOtherA)
		}
		if got := g.PredicateFrequency(pA); got != wantFreqA {
			t.Fatalf("PredicateFrequency(a) = %d, want %d", got, wantFreqA)
		}
		if got := g.PredicateFrequency(pB); got != wantFreqB {
			t.Fatalf("PredicateFrequency(b) = %d, want %d", got, wantFreqB)
		}
		if g.pomDirtyShards.Load() == 0 {
			t.Fatal("a count read drained the buffers")
		}
	}

	// Buffered asserts across two predicates and two objects.
	for i, s := range subs {
		obj := EntityValue(team)
		if i%4 == 3 {
			obj = EntityValue(other)
		}
		if err := g.Assert(Triple{Subject: s, Predicate: pA, Object: obj}); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range subs[:10] {
		if err := g.Assert(Triple{Subject: s, Predicate: pB, Object: StringValue("x")}); err != nil {
			t.Fatal(err)
		}
	}
	check(24, 8, 32, 10)

	// Buffered retracts must subtract through the same path.
	for _, s := range subs[:6] {
		// subs[3] carries (a, other), not (a, team), so that retract is a
		// no-op — 5 live facts actually go.
		g.Retract(Triple{Subject: s, Predicate: pA, Object: EntityValue(team)})
	}
	g.Retract(Triple{Subject: subs[3], Predicate: pA, Object: EntityValue(other)})
	check(19, 7, 26, 10)

	// A second wave on top of still-buffered work: mixed base (some
	// shards may have flushed nothing yet) plus fresh deltas. subs[3]
	// joins team for the first time here.
	for _, s := range subs[:6] {
		if err := g.Assert(Triple{Subject: s, Predicate: pA, Object: EntityValue(team)}); err != nil {
			t.Fatal(err)
		}
	}
	check(25, 7, 32, 10)

	// Draining must not change any answer.
	g.SyncIndexes()
	if g.pomDirtyShards.Load() != 0 {
		t.Fatal("buffers dirty after SyncIndexes")
	}
	if got := g.SubjectsWithCount(pA, EntityValue(team)); got != 25 {
		t.Fatalf("post-drain SubjectsWithCount(a, team) = %d, want 25", got)
	}
	if got := g.PredicateFrequency(pA); got != 32 {
		t.Fatalf("post-drain PredicateFrequency(a) = %d, want 32", got)
	}
}

// Property: under randomized assert/retract interleavings the
// read-through counts agree with a model maintained by the test, at
// every probe point, without the probes ever draining the buffers.
func TestPomCountReadThroughRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	g := NewGraphWithShards(16)
	const nEnts, nPreds = 48, 4
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
	objs := pomTestObjects(ents[:8])
	g.SyncIndexes()

	type cell struct {
		pred PredicateID
		obj  ValueKey
	}
	type factKey struct {
		subj EntityID
		cell cell
	}
	counts := make(map[cell]int)
	freq := make(map[PredicateID]int)
	present := make(map[factKey]bool)

	for step := 0; step < 4000; step++ {
		tr := Triple{
			Subject:   ents[rng.Intn(nEnts)],
			Predicate: preds[rng.Intn(nPreds)],
			Object:    objs[rng.Intn(len(objs))],
		}
		ck := cell{tr.Predicate, tr.Object.MapKey()}
		fk := factKey{tr.Subject, ck}
		if rng.Intn(3) == 0 {
			g.Retract(tr)
			if present[fk] {
				present[fk] = false
				counts[ck]--
				freq[tr.Predicate]--
			}
		} else {
			if err := g.Assert(tr); err != nil {
				t.Fatal(err)
			}
			if !present[fk] {
				present[fk] = true
				counts[ck]++
				freq[tr.Predicate]++
			}
		}
		if step%97 == 0 {
			dirtyBefore := g.pomDirtyShards.Load()
			p := preds[rng.Intn(nPreds)]
			o := objs[rng.Intn(len(objs))]
			if got, want := g.SubjectsWithCount(p, o), counts[cell{p, o.MapKey()}]; got != want {
				t.Fatalf("step %d: SubjectsWithCount = %d, model says %d", step, got, want)
			}
			if got, want := g.PredicateFrequency(p), freq[p]; got != want {
				t.Fatalf("step %d: PredicateFrequency = %d, model says %d", step, got, want)
			}
			if dirtyBefore != 0 && g.pomDirtyShards.Load() == 0 {
				t.Fatalf("step %d: count probes drained the buffers", step)
			}
		}
	}
	checkPomAgainstSweep(t, g, preds, objs)
}

// postingOrders renders every ordered posting read of g for the probe
// space: SubjectsWith, SubjectsWithFunc, SubjectsWithChunked (small
// chunks) and each object's run of PredicateEntriesFunc.
func postingOrders(t *testing.T, g *Graph, preds []PredicateID, objs []Value) map[string][]EntityID {
	t.Helper()
	out := make(map[string][]EntityID)
	for _, p := range preds {
		for _, o := range objs {
			label := fmt.Sprintf("p%d/%v", p, o.MapKey())
			out["slice "+label] = g.SubjectsWith(p, o)
			var fn, chunked []EntityID
			g.SubjectsWithFunc(p, o, func(s EntityID) bool {
				fn = append(fn, s)
				return true
			})
			g.SubjectsWithChunked(p, o, 5, func(chunk []EntityID, restarted bool) bool {
				if restarted {
					t.Fatalf("%s: chunked read restarted with no concurrent writer", label)
				}
				chunked = append(chunked, chunk...)
				return true
			})
			out["func "+label] = fn
			out["chunked "+label] = chunked
		}
		g.PredicateEntriesFunc(p, func(obj Value, s EntityID) bool {
			label := fmt.Sprintf("entries p%d/%v", p, obj.MapKey())
			out[label] = append(out[label], s)
			return true
		})
	}
	return out
}

// Property: posting order is a function of graph state alone. A graph
// built through many shards with tiny delta buffers (so buffers drain far
// out of global order), retract/re-assert churn on hot postings
// (tombstones, revivals, compactions) and reads interleaved with the
// writes, and a one-shard graph restored from its triples by AssertBatch,
// must enumerate every posting identically — in ascending subject ID.
func TestPostingOrderCanonical(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			g := NewGraphWithOptions(GraphOptions{Shards: 8, PomFlushThreshold: 7})
			const nEnts = 300 // hot postings grow well past postingIdxThreshold
			ents := make([]EntityID, nEnts)
			for i := range ents {
				id, err := g.AddEntity(Entity{Key: fmt.Sprintf("e%d", i)})
				if err != nil {
					t.Fatal(err)
				}
				ents[i] = id
			}
			preds := make([]PredicateID, 2)
			for i := range preds {
				id, err := g.AddPredicate(Predicate{Name: fmt.Sprintf("p%d", i)})
				if err != nil {
					t.Fatal(err)
				}
				preds[i] = id
			}
			objs := []Value{EntityValue(ents[0]), EntityValue(ents[1]), StringValue("x"), IntValue(7)}
			var live []Triple
			for step := 0; step < 6000; step++ {
				switch r := rng.Intn(10); {
				case r < 3 && len(live) > 0:
					j := rng.Intn(len(live))
					if !g.Retract(live[j]) {
						t.Fatalf("retract of live triple %v failed", live[j])
					}
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
				case r == 3:
					p, o := preds[rng.Intn(len(preds))], objs[rng.Intn(len(objs))]
					got := g.SubjectsWith(p, o)
					for i := 1; i < len(got); i++ {
						if got[i-1] >= got[i] {
							t.Fatalf("step %d: posting (%v, %v) not ascending: %v", step, p, o, got)
						}
					}
				default:
					tr := Triple{
						Subject:   ents[rng.Intn(nEnts)],
						Predicate: preds[rng.Intn(len(preds))],
						Object:    objs[rng.Intn(len(objs))],
					}
					added, err := g.AssertNew(tr)
					if err != nil {
						t.Fatal(err)
					}
					if added {
						live = append(live, tr)
					}
				}
			}

			restored := NewGraphWithShards(1)
			for i := range ents {
				if _, err := restored.AddEntity(Entity{Key: fmt.Sprintf("e%d", i)}); err != nil {
					t.Fatal(err)
				}
			}
			for i := range preds {
				if _, err := restored.AddPredicate(Predicate{Name: fmt.Sprintf("p%d", i)}); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := restored.AssertBatch(g.AllTriples()); err != nil {
				t.Fatal(err)
			}

			got, want := postingOrders(t, g, preds, objs), postingOrders(t, restored, preds, objs)
			if len(got) != len(want) {
				t.Fatalf("%d posting reads on the live graph, %d on the restored one", len(got), len(want))
			}
			for label, w := range want {
				gl := got[label]
				if fmt.Sprint(gl) != fmt.Sprint(w) {
					t.Fatalf("%s: live %v, restored %v", label, gl, w)
				}
				if fmt.Sprint(w) != fmt.Sprint(sortedIDs(w)) {
					t.Fatalf("%s: not ascending: %v", label, w)
				}
			}
		})
	}
}
