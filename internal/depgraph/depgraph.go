// Package depgraph maintains the extended dependency graph H'_t of
// Busch et al. (IPPS 2020, Section III-B) as a persistent, incrementally
// updated conflict index instead of a per-arrival reconstruction.
//
// The per-arrival rebuild in the original greedy scheduler allocated fresh
// TxID→vertex maps, a fresh coloring.ConflictGraph, and a fresh edge-dedup
// map on every arrival, then walked every live transaction — quadratic
// work over a run even though each arrival only adds a handful of vertices
// and the edges incident to them. The Index keeps the live side of H'_t
// alive across arrivals:
//
//   - stable vertex slots with a free-list: a live transaction occupies
//     one slot from decision to commit, so neighbor identities survive
//     between arrivals and no per-call index maps are needed;
//   - object→live-user postings with O(1) removal: each posting entry
//     carries its back-reference, so pruning a committed transaction
//     swap-removes it from each of its k postings in O(k) total without
//     scanning, and postings never retain committed transactions;
//   - an expiry queue ordered by decided execution time, so a Refresh at
//     time t only touches transactions whose schedule has actually come
//     due (elastic-execution stragglers are re-armed, not rescanned);
//   - a generation-stamped seen set replacing the per-call map[pair]bool
//     edge dedup: marking a neighbor visited is one array store;
//   - reusable interval/neighbor arenas (Scratch) shared through a
//     sync.Pool so the sweep runner's parallel trials do not contend on
//     the allocator.
//
// The scheduler-facing contract is exact: the colors produced from an
// Index walk equal those of a from-scratch rebuild of H'_t for every input
// (the root differential test, engine_diff_test.go, pins this against a
// test-only rebuild reference across options, topologies, and seeds).
package depgraph

import (
	"sort"
	"sync"

	"dtm/internal/coloring"
	"dtm/internal/core"
	"dtm/internal/graph"
	"dtm/internal/obs"
	"dtm/internal/pq"
)

// Undecided marks a slot whose transaction has no execution time yet.
const Undecided = core.Time(-1)

// Slot is a stable vertex slot of the index. Slots are reused through a
// free-list after their transaction commits, so they are only meaningful
// while the transaction is tracked.
type Slot int32

// ExecOracle reports actual execution times; core.Sim implements it. The
// index uses it to decide when a tracked transaction is no longer live
// (executed strictly before the current time), mirroring the rebuild
// path's prune rule exactly — including elastic execution, where a
// transaction can commit later than its decided time.
type ExecOracle interface {
	Executed(core.TxID) (core.Time, bool)
}

// Neighbor is one distinct live transaction conflicting with the queried
// slot's transaction (they share at least one object).
type Neighbor struct {
	Tx   core.TxID
	Node graph.NodeID
	// Exec is the neighbor's decided absolute execution time, or
	// Undecided for a same-batch transaction that has not been colored
	// yet (it still counts toward the degree bound, like an uncolored
	// vertex in the rebuild graph).
	Exec core.Time
}

// pref is a posting entry: a slot plus the index of the posting's object
// within that slot's transaction, so a swap-remove can fix the moved
// entry's back-reference in O(1).
type pref struct {
	slot Slot
	oi   int32 // index into slots[slot].tx.Objects
}

type slotRec struct {
	tx   *core.Transaction
	exec core.Time
	pos  []int32 // pos[i] = index of this slot in posts[tx.Objects[i]]
}

type expiry struct {
	key  core.Time // recheck time: decided exec, or the last refresh time
	slot Slot
}

// Stats is a point-in-time snapshot of the index's bookkeeping, used by
// the leak-guard tests and the depgraph.* gauges.
type Stats struct {
	LiveVertices   int
	FreeSlots      int
	PostingEntries int
	ArenaBytes     int64
}

// Index is the persistent conflict index. It is not safe for concurrent
// use; each scheduler run owns one.
type Index struct {
	oracle ExecOracle
	slots  []slotRec
	free   []Slot
	posts  map[core.ObjID][]pref
	expire pq.Heap[expiry]
	stamp  []uint64
	gen    uint64
	live   int

	// Instrument handles; nil (free) when observability is disabled.
	metLive   *obs.Gauge   // depgraph.live_vertices
	metArena  *obs.Gauge   // depgraph.arena_bytes
	metReused *obs.Counter // depgraph.edges_reused
}

// NewIndex returns an empty index pruning against the given oracle.
func NewIndex(oracle ExecOracle) *Index {
	ix := &Index{
		oracle: oracle,
		posts:  make(map[core.ObjID][]pref),
	}
	ix.expire.Init(func(a, b expiry) bool {
		if a.key != b.key {
			return a.key < b.key
		}
		return a.slot < b.slot
	})
	return ix
}

// RegisterMetrics binds the depgraph.* instruments to m (a nil registry
// leaves the handles free no-ops).
func (ix *Index) RegisterMetrics(m *obs.Metrics) {
	ix.metLive = m.Gauge(obs.NameDepgraphLiveVertices)
	ix.metArena = m.Gauge(obs.NameDepgraphArenaBytes)
	ix.metReused = m.Counter(obs.NameDepgraphEdgesReused)
}

// Refresh drops every tracked transaction that executed strictly before
// now — the live-set rule of a from-scratch rebuild's prune — touching only
// transactions whose decided time has come due. Elastic-execution
// stragglers (due but not yet committed) are re-armed at now and
// rechecked on the next strictly later Refresh.
func (ix *Index) Refresh(now core.Time) {
	for ix.expire.Len() > 0 && ix.expire.Peek().key < now {
		e := ix.expire.Pop()
		rec := &ix.slots[e.slot]
		if et, ok := ix.oracle.Executed(rec.tx.ID); ok && et < now {
			ix.remove(e.slot)
			continue
		}
		ix.expire.Push(expiry{key: now, slot: e.slot})
	}
	ix.metLive.Set(int64(ix.live))
	ix.metArena.Set(ix.arenaBytes())
}

// Insert adds a transaction to the index with an undecided execution
// time, registering it in every object posting, and returns its slot.
func (ix *Index) Insert(tx *core.Transaction) Slot {
	var s Slot
	if n := len(ix.free); n > 0 {
		s = ix.free[n-1]
		ix.free = ix.free[:n-1]
	} else {
		s = Slot(len(ix.slots))
		ix.slots = append(ix.slots, slotRec{})
		ix.stamp = append(ix.stamp, 0)
	}
	rec := &ix.slots[s]
	rec.tx = tx
	rec.exec = Undecided
	rec.pos = rec.pos[:0]
	for i, o := range tx.Objects {
		p := ix.posts[o]
		rec.pos = append(rec.pos, int32(len(p)))
		ix.posts[o] = append(p, pref{slot: s, oi: int32(i)})
	}
	ix.live++
	return s
}

// SetDecided records the slot's decided absolute execution time and arms
// its expiry.
func (ix *Index) SetDecided(s Slot, exec core.Time) {
	ix.slots[s].exec = exec
	ix.expire.Push(expiry{key: exec, slot: s})
}

// remove frees a slot: O(1) swap-removal from each of its object
// postings (fixing the moved entry's back-reference), then the slot
// returns to the free-list.
func (ix *Index) remove(s Slot) {
	rec := &ix.slots[s]
	for i, o := range rec.tx.Objects {
		p := ix.posts[o]
		pos := rec.pos[i]
		last := len(p) - 1
		moved := p[last]
		p[pos] = moved
		ix.slots[moved.slot].pos[moved.oi] = pos
		ix.posts[o] = p[:last]
	}
	rec.tx = nil
	rec.exec = Undecided
	ix.free = append(ix.free, s)
	ix.live--
}

// AppendNeighbors appends each distinct live transaction conflicting with
// s's transaction to buf and returns it. Every neighbor appears exactly
// once even when several objects are shared (the generation-stamped seen
// set replaces a from-scratch rebuild's per-call map[pair]bool), and the
// querying slot itself is excluded.
func (ix *Index) AppendNeighbors(s Slot, buf []Neighbor) []Neighbor {
	ix.gen++
	gen := ix.gen
	ix.stamp[s] = gen
	for _, o := range ix.slots[s].tx.Objects {
		for _, e := range ix.posts[o] {
			if ix.stamp[e.slot] == gen {
				continue
			}
			ix.stamp[e.slot] = gen
			rec := &ix.slots[e.slot]
			buf = append(buf, Neighbor{Tx: rec.tx.ID, Node: rec.tx.Node, Exec: rec.exec})
		}
	}
	ix.metReused.Add(int64(len(buf)))
	return buf
}

// AppendNeighborsInto is the concurrent-read variant of AppendNeighbors:
// identical output for the same index state, but the generation-stamped
// dedup lives in the caller-owned scratch (Scratch.Seen/Gen) instead of
// the index, so parallel workers holding distinct scratches may gather
// neighborhoods concurrently without writing any shared state. The
// caller must not mutate the index (Insert/SetDecided/Refresh) while
// gathers are in flight — the sched drivers' compute phases run entirely
// between mutations. The depgraph.edges_reused counter is still
// credited; counter adds commute, so the merged total equals the
// sequential engine's.
func (ix *Index) AppendNeighborsInto(sc *Scratch, s Slot, buf []Neighbor) []Neighbor {
	if n := len(ix.slots); len(sc.Seen) < n {
		sc.Seen = append(sc.Seen, make([]uint64, n-len(sc.Seen))...)
	}
	sc.Gen++
	gen := sc.Gen
	sc.Seen[s] = gen
	for _, o := range ix.slots[s].tx.Objects {
		for _, e := range ix.posts[o] {
			if sc.Seen[e.slot] == gen {
				continue
			}
			sc.Seen[e.slot] = gen
			rec := &ix.slots[e.slot]
			buf = append(buf, Neighbor{Tx: rec.tx.ID, Node: rec.tx.Node, Exec: rec.exec})
		}
	}
	//par:owned ix.metReused commutative atomic counter: the final sum is schedule-independent, and reads happen only after the merge barrier
	ix.metReused.Add(int64(len(buf)))
	return buf
}

// Live returns the number of tracked (inserted, not yet pruned)
// transactions.
func (ix *Index) Live() int { return ix.live }

// Tracked appends the IDs of all tracked transactions to buf, sorted.
func (ix *Index) Tracked(buf []core.TxID) []core.TxID {
	for i := range ix.slots {
		if ix.slots[i].tx != nil {
			buf = append(buf, ix.slots[i].tx.ID)
		}
	}
	sort.Slice(buf, func(i, j int) bool { return buf[i] < buf[j] })
	return buf
}

// Snapshot reports the index bookkeeping counters.
func (ix *Index) Snapshot() Stats {
	st := Stats{
		LiveVertices: ix.live,
		FreeSlots:    len(ix.free),
		ArenaBytes:   ix.arenaBytes(),
	}
	for _, p := range ix.posts {
		st.PostingEntries += len(p)
	}
	return st
}

// arenaBytes estimates the retained capacity of the index's reusable
// storage (slots, stamps, postings, expiry queue).
func (ix *Index) arenaBytes() int64 {
	const (
		slotBytes   = 40 // slotRec header
		prefBytes   = 8
		expiryBytes = 16
	)
	b := int64(cap(ix.slots))*slotBytes + int64(cap(ix.stamp))*8 + int64(cap(ix.free))*4
	for _, p := range ix.posts {
		b += int64(cap(p)) * prefBytes
	}
	b += int64(ix.expire.Len()) * expiryBytes
	return b
}

// Scratch is the reusable per-run buffer set shared by the schedulers:
// forbidden-interval and neighbor arenas for the greedy coloring walk,
// plus transaction buffers for ID-ordering and the bucket scheduler's
// probe candidates. Obtain one with GetScratch (the sched driver does
// this once per run and exposes it via Env.Scratch) and return it with
// Release; after Release the scratch must not be used again.
type Scratch struct {
	Forb  []coloring.Interval
	Nbrs  []Neighbor
	Txns  []*core.Transaction
	Slots []Slot
	Ints  []int
	// Seen/Gen are the caller-owned generation-stamp state for
	// AppendNeighborsInto, so concurrent gather workers dedup without
	// touching the index. Gen only ever grows (stale Seen entries from a
	// previous run are strictly smaller), so Release keeps both.
	Seen []uint64
	Gen  uint64
}

var scratchPool = sync.Pool{New: func() interface{} { return &Scratch{} }}

// GetScratch borrows a scratch-buffer set from the shared pool.
func GetScratch() *Scratch {
	return scratchPool.Get().(*Scratch)
}

// GetScratchN borrows n scratch sets in one call — one per worker of a
// parallel compute phase. Return them with ReleaseAll; the poolreturn
// analyzer tracks this pair like GetScratch/Release.
func GetScratchN(n int) []*Scratch {
	out := make([]*Scratch, n)
	for i := range out {
		out[i] = GetScratch()
	}
	return out
}

// ReleaseAll returns every scratch in ss to the pool and nils the
// entries so a retained slice cannot reach released scratch.
func ReleaseAll(ss []*Scratch) {
	for i, s := range ss {
		if s != nil {
			s.Release()
			ss[i] = nil
		}
	}
}

// Release returns the scratch to the pool, dropping transaction
// references so runs cannot leak instances through it.
func (s *Scratch) Release() {
	for i := range s.Txns {
		s.Txns[i] = nil
	}
	s.Txns = s.Txns[:0]
	s.Forb = s.Forb[:0]
	s.Nbrs = s.Nbrs[:0]
	s.Slots = s.Slots[:0]
	s.Ints = s.Ints[:0]
	scratchPool.Put(s)
}
