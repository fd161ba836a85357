package kg

import "iter"

// Iterator twins of the graph's visitor accessors, for Go 1.24 range-over-
// func consumers. Each returns an iter.Seq that streams the same elements
// the corresponding *Func visitor passes to its callback, in the same
// order and under the same locks: the loop body runs while the relevant
// shard read lock or pom-stripe lock is held (a pom read that first had
// to restore posting order keeps the stripe's write lock), and breaking
// out of the range stops the enumeration and releases the lock
// immediately (the early-stop the slice accessors cannot offer).
//
// Because the body runs under a graph lock, it must not mutate the graph,
// and it must not call back into the triple indexes (Facts, Outgoing,
// HasFact, SubjectsWith, ...): a read on a subject hashing to the same
// shard re-enters the shard's RWMutex, which deadlocks when a writer is
// queued between the two acquisitions — and the pom accessors
// (SubjectsWith, PredicateFrequency, ...) may additionally take shard
// *write* locks to drain buffered index deltas, which self-deadlocks
// against any shard read lock the body already holds. Dictionary reads
// (Entity, Predicate, Ontology) are safe — their lock is never held
// together with a shard lock by any writer. Consumers that need to join
// streamed elements against further index reads should buffer a batch
// first (see graphengine's conjunctive solver) or use the slice
// accessors.

// FactsSeq streams the (subj, pred) triples in assertion order. It is the
// iterator twin of Facts/FactsFunc.
func (g *Graph) FactsSeq(subj EntityID, pred PredicateID) iter.Seq[Triple] {
	return func(yield func(Triple) bool) {
		g.FactsFunc(subj, pred, yield)
	}
}

// OutgoingSeq streams every triple whose subject is subj. Iteration order
// across predicates is unspecified (map order); within one predicate it
// is assertion order. It is the iterator twin of Outgoing/OutgoingFunc.
func (g *Graph) OutgoingSeq(subj EntityID) iter.Seq[Triple] {
	return func(yield func(Triple) bool) {
		g.OutgoingFunc(subj, yield)
	}
}

// IncomingSeq streams every triple whose object is the entity obj, one
// shard at a time (each shard's contribution internally consistent, a
// concurrent writer may land between shard visits — see Incoming). It is
// the iterator twin of Incoming/IncomingFunc.
func (g *Graph) IncomingSeq(obj EntityID) iter.Seq[Triple] {
	return func(yield func(Triple) bool) {
		g.IncomingFunc(obj, yield)
	}
}

// SubjectsWithSeq streams the posting list of subjects carrying
// (pred, obj) facts under one pom-stripe lock — posting-list iteration
// with early stop, where SubjectsWith copies the whole list up front. Order is the posting order: ascending subject ID, a function of
// the graph's state alone and independent of the write and flush history
// that built it — which is what cursor replays, as-of reads and
// recovered graphs rely on. It is the iterator twin of
// SubjectsWith/SubjectsWithFunc.
func (g *Graph) SubjectsWithSeq(pred PredicateID, obj Value) iter.Seq[EntityID] {
	return func(yield func(EntityID) bool) {
		g.SubjectsWithFunc(pred, obj, yield)
	}
}

// PredicateEntriesSeq streams every (object value, subject) pair indexed
// under pred from the predicate-major index. Object values are
// reconstructed from their identity keys, so provenance is not carried
// and iteration order across objects is unspecified; within one object's
// posting list it is ascending subject ID, independent of flush history.
// It is the iterator twin of PredicateEntriesFunc.
func (g *Graph) PredicateEntriesSeq(pred PredicateID) iter.Seq2[Value, EntityID] {
	return func(yield func(Value, EntityID) bool) {
		g.PredicateEntriesFunc(pred, yield)
	}
}

// TriplesSeq streams every asserted triple under the all-shard read lock
// (a single consistent cut, like Triples). Iteration order is unspecified.
func (g *Graph) TriplesSeq() iter.Seq[Triple] {
	return func(yield func(Triple) bool) {
		g.Triples(yield)
	}
}
