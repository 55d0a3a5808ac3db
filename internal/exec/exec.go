// Package exec defines the deterministic execution engine replicas run
// after consensus. Transactions must be deterministic: on identical inputs,
// execution must always produce identical outcomes (§III-A), which is what
// lets nf matching client replies prove correctness.
//
// The engine executes each unified round either serially (the paper's
// baseline — Fig. 7 left shows the resulting 217 ktxn/s execution ceiling)
// or on a bounded worker pool. Parallel execution is conflict-aware: the
// Application declares each transaction's state-key footprint via Keys, the
// engine partitions the batch into connected components of the conflict
// graph (union-find over shared keys), and each component executes on one
// worker in batch order. Components are disjoint by construction, so the
// final state and every per-transaction result are independent of worker
// count and scheduling, and ResultHash/StateDigest stay byte-identical to
// the serial engine on every replica.
package exec

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/types"
)

// StateKey aliases types.StateKey, the unit of conflict detection.
// Applications live below exec in the import graph and use types.StateKey
// directly; engine-facing code can use either name.
type StateKey = types.StateKey

// Application is a deterministic state machine with a declared conflict
// model. Two transactions conflict when their key sets intersect; the
// engine may call Execute concurrently for transactions whose footprints
// are disjoint, so implementations must make Execute safe under that
// contract (per-shard locking, atomic counters, or naturally disjoint
// writes). Transactions that DO conflict are always executed one at a
// time, in batch order, on a single goroutine.
type Application interface {
	// Execute applies tx and returns its result bytes. Calls may be
	// concurrent only for transactions with disjoint Keys footprints.
	Execute(tx types.Transaction) []byte
	// Keys appends tx's state-key footprint to buf and reports whether
	// the footprint is known. Returning ok=false declares an unknown
	// footprint: the engine treats tx as a barrier that conflicts with
	// everything and executes it alone between parallel groups (any keys
	// appended before returning false are discarded). An empty footprint
	// with ok=true means tx touches no shared state (e.g. a no-op or a
	// malformed payload the application rejects without mutating state).
	//
	// Keys must be pure (no state mutation) and deterministic, and is
	// only ever called from the engine's submitting goroutine.
	Keys(tx types.Transaction, buf []types.StateKey) ([]types.StateKey, bool)
	// StateDigest returns a digest of the current application state.
	StateDigest() types.Digest
}

// Simulated per-transaction CPU costs derived from Fig. 7 left: a replica
// can receive + reply to 551 ktxn/s but only fully execute 217 ktxn/s.
const (
	// CostExecutePerTxn is the sequential execution cost of one txn
	// (1/217k s).
	CostExecutePerTxn = 4600 * time.Nanosecond
	// CostClientIOPerTxn is the receive-request + send-reply handling
	// cost of one txn (1/551k s).
	CostClientIOPerTxn = 1815 * time.Nanosecond
)

// Result describes the outcome of executing one batch.
type Result struct {
	Round       types.Round
	Instance    types.InstanceID
	ResultHash  types.Digest // digest over all per-txn results
	StateHash   types.Digest // application state digest after the batch
	Block       *ledger.Block
	TxnExecuted int
}

// Journal is where the engine appends executed blocks. AppendAsync returns
// as soon as the block joins the chain; done fires exactly once — possibly
// before AppendAsync returns — with nil once the record is durable, or with
// the journal's sticky error, after which the block must not be
// acknowledged to clients. Implementations may run done on a background
// goroutine. The durable storage subsystem (internal/store wired through
// internal/runtime) provides the WAL-backed one; MemJournal adapts the
// in-memory ledger. Pass an untyped nil to skip journalling.
type Journal interface {
	AppendAsync(batch *types.Batch, proof ledger.Proof, state types.Digest, done func(err error)) *ledger.Block
}

// MemJournal journals into an in-memory ledger, where an append is complete
// the moment it returns: done fires inline.
type MemJournal struct{ *ledger.Ledger }

// AppendAsync implements Journal.
func (m MemJournal) AppendAsync(batch *types.Batch, proof ledger.Proof, state types.Digest, done func(err error)) *ledger.Block {
	blk := m.Append(batch, proof, state)
	done(nil)
	return blk
}

// Options tunes the engine's parallel executor.
type Options struct {
	// Workers bounds total execution concurrency for one batch,
	// including the submitting goroutine (which executes one group while
	// the pool handles the rest). 0 means GOMAXPROCS; 1 disables the
	// pool and reproduces the serial engine exactly.
	Workers int

	// minParallel overrides defaultMinParallel in same-package tests (zero
	// selects it).
	minParallel int
}

// defaultMinParallel is the smallest batch (and conflict-free segment)
// worth planning and fanning out; smaller ones execute inline. Below it the
// fixed planning + handoff cost outweighs any win.
const defaultMinParallel = 8

// Engine applies ordered batches to an Application and journals them.
//
// Batches are submitted from a single goroutine at a time (the replica's
// event loop); the engine fans work out internally. Executed and
// StateDigest may be called concurrently with execution.
type Engine struct {
	app      Application
	journal  Journal
	executed atomic.Uint64
	met      *obs.NodeMetrics

	workers     int
	minParallel int

	// Worker pool, started lazily on the first parallel batch.
	poolOnce sync.Once
	tasks    chan []int32
	closed   bool
	batchWG  sync.WaitGroup

	// Per-batch planner scratch, reused across batches. Only the
	// submitting goroutine touches these except digests/curTxns, which
	// workers access for disjoint indices after a channel-send
	// happens-before edge.
	curTxns   []types.Transaction
	digests   []types.Digest
	hashBuf   []byte
	keys      []types.StateKey
	keyOff    []int32
	barrier   []bool
	parent    []int32
	compSize  []int32
	rootChunk []int32
	rootList  []int32
	load      []int32
	chunks    [][]int32
	table     conflictTable

	// Test hooks: perturb runs on a worker before each group (inject
	// scheduling jitter); shuffleDispatch permutes the order groups are
	// handed to the pool. Both must be set before the first batch.
	perturb         func()
	shuffleDispatch func(order []int)
}

// SetMetrics attaches the replica's instrument catalog: the engine feeds
// the execute- and journal-stage latency histograms. Nil (the default)
// disables instrumentation.
func (e *Engine) SetMetrics(m *obs.NodeMetrics) { e.met = m }

// NewEngine creates a serial engine over app, journalling into j (which
// may be nil to skip journalling, e.g. in micro-benchmarks). Equivalent to
// NewEngineOpts with Options{Workers: 1}.
func NewEngine(app Application, j Journal) *Engine {
	return NewEngineOpts(app, j, Options{Workers: 1})
}

// NewEngineOpts creates an engine with an explicit parallel-execution
// configuration. Call Close when done with a parallel engine to release
// its worker pool.
func NewEngineOpts(app Application, j Journal, opts Options) *Engine {
	if opts.Workers == 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	if opts.minParallel <= 0 {
		opts.minParallel = defaultMinParallel
	}
	return &Engine{app: app, journal: j, workers: opts.Workers, minParallel: opts.minParallel}
}

// Workers reports the engine's configured execution concurrency.
func (e *Engine) Workers() int { return e.workers }

// Close stops the worker pool (if one was started). The engine must be
// idle; no Execute* call may be in flight or follow.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	if e.tasks != nil {
		close(e.tasks)
	}
}

// ExecuteBatch applies every transaction of batch, journals it, and returns
// the combined result without waiting for the journal — for callers with no
// one to acknowledge (an in-memory journal has completed by then anyway).
// proof records why the batch is final.
func (e *Engine) ExecuteBatch(batch *types.Batch, proof ledger.Proof) Result {
	return e.ExecuteBatchAsync(batch, proof, func(Result, error) {})
}

// ExecuteBatchAsync is the engine's one journalling call site: the block is
// handed to the journal without waiting for the disk and done fires once the
// record is durable (or the journal failed) — inline, before
// ExecuteBatchAsync returns, for an in-memory journal or none.
//
// done receives the Result by value WITHOUT the Block field — the returned
// Result carries it — because done may run on the journal's committer
// goroutine concurrently with this method's return. Acknowledge clients
// from done, never from the returned Result: the return only means
// "executed", done means "durable".
func (e *Engine) ExecuteBatchAsync(batch *types.Batch, proof ledger.Proof, done func(res Result, err error)) Result {
	res := e.execute(batch, proof)
	notify := res // value copy: Block stays unset for the callback
	if e.journal == nil {
		done(notify, nil)
		return res
	}
	met := e.met
	var submitted time.Time
	if met != nil {
		submitted = time.Now()
	}
	res.Block = e.journal.AppendAsync(batch, proof, res.StateHash, func(err error) {
		if met != nil {
			met.ObserveStage(obs.StageJournal, time.Since(submitted))
		}
		done(notify, err)
	})
	return res
}

// execute applies every transaction of batch and assembles the result,
// leaving journalling to the caller. The per-transaction results — and
// therefore ResultHash and the application state — are identical whether
// the batch ran serially or across the pool.
func (e *Engine) execute(batch *types.Batch, proof ledger.Proof) Result {
	var start time.Time
	if e.met != nil {
		start = time.Now()
	}
	n := len(batch.Txns)
	if cap(e.digests) < n {
		e.digests = make([]types.Digest, n)
	}
	e.digests = e.digests[:n]
	if e.workers <= 1 || n < e.minParallel {
		for i := range batch.Txns {
			e.execOne(batch.Txns, i)
		}
	} else {
		e.executeParallel(batch.Txns)
	}
	// Assemble the result hash in batch order — the merge order is fixed
	// by transaction index, never by completion order. The per-txn digests
	// themselves were computed on whichever goroutine executed the txn
	// (hashing each result is the serial assembly's dominant cost, and it
	// parallelizes for free alongside execution).
	h := e.hashBuf[:0]
	for i := 0; i < n; i++ {
		h = append(h, e.digests[i][:]...)
	}
	e.executed.Add(uint64(n))
	e.hashBuf = h[:0]
	if e.met != nil {
		e.met.ObserveStage(obs.StageExecute, time.Since(start))
	}
	return Result{
		Round:       proof.Round,
		Instance:    proof.Instance,
		ResultHash:  types.Hash(h),
		StateHash:   e.app.StateDigest(),
		TxnExecuted: n,
	}
}

// executeParallel plans and runs one batch across the pool: collect
// footprints, union transactions sharing a key, split at barriers, pack
// components onto ≤Workers groups, fan out, join.
func (e *Engine) executeParallel(txns []types.Transaction) {
	n := len(txns)
	e.growScratch(n)

	// Footprint pass.
	keys := e.keys[:0]
	for i := range txns {
		e.barrier[i] = false
		prev := len(keys)
		var ok bool
		keys, ok = e.app.Keys(txns[i], keys)
		if !ok {
			keys = keys[:prev] // discard a partial footprint
			e.barrier[i] = true
		}
		e.keyOff[i+1] = int32(len(keys))
	}
	e.keys = keys

	// Conflict graph: union transactions sharing any key. The component
	// root is always the smallest member index, so components are
	// identified deterministically by their first transaction.
	for i := range txns {
		e.parent[i] = int32(i)
	}
	e.table.reset(len(keys))
	for i := 0; i < n; i++ {
		for _, k := range keys[e.keyOff[i]:e.keyOff[i+1]] {
			if owner, found := e.table.claim(k, int32(i)); found {
				e.union(int32(i), owner)
			}
		}
	}

	// Barrier transactions split the batch into segments; each segment
	// fans out, each barrier runs alone in between. Batch order across
	// the split is preserved, so a component straddling a barrier still
	// executes its members in order.
	segStart := 0
	for segStart < n {
		segEnd := segStart
		for segEnd < n && !e.barrier[segEnd] {
			segEnd++
		}
		if segEnd > segStart {
			e.runSegment(txns, segStart, segEnd)
		}
		if segEnd < n { // the barrier itself
			e.execOne(txns, segEnd)
			segEnd++
		}
		segStart = segEnd
	}
}

// growScratch sizes the per-batch planner arrays for n transactions.
func (e *Engine) growScratch(n int) {
	if cap(e.keyOff) < n+1 {
		e.keyOff = make([]int32, n+1)
		e.barrier = make([]bool, n)
		e.parent = make([]int32, n)
		e.compSize = make([]int32, n)  // zeroed; kept zeroed between segments
		e.rootChunk = make([]int32, n) // -1 when unassigned; restored after use
		for i := range e.rootChunk {
			e.rootChunk[i] = -1
		}
	}
	e.keyOff = e.keyOff[:n+1]
	e.barrier = e.barrier[:n]
	e.parent = e.parent[:n]
	e.compSize = e.compSize[:n]
	e.rootChunk = e.rootChunk[:n]
	if e.chunks == nil {
		e.chunks = make([][]int32, e.workers)
		e.load = make([]int32, e.workers)
	}
}

// find returns the component root of i with path halving.
func (e *Engine) find(i int32) int32 {
	for e.parent[i] != i {
		e.parent[i] = e.parent[e.parent[i]]
		i = e.parent[i]
	}
	return i
}

// union merges the components of a and b, keeping the smaller index as
// root so the root is deterministic (the component's first transaction).
func (e *Engine) union(a, b int32) {
	ra, rb := e.find(a), e.find(b)
	if ra == rb {
		return
	}
	if ra < rb {
		e.parent[rb] = ra
	} else {
		e.parent[ra] = rb
	}
}

// runSegment executes txns[lo:hi] — a barrier-free range — by packing its
// conflict components onto up to Workers groups and fanning out. Packing
// is greedy least-loaded over components in first-appearance order:
// deterministic, though correctness only needs components to stay whole.
func (e *Engine) runSegment(txns []types.Transaction, lo, hi int) {
	if hi-lo < e.minParallel {
		for i := lo; i < hi; i++ {
			e.execOne(txns, i)
		}
		return
	}
	// Pass 1: component sizes and first-appearance order.
	roots := e.rootList[:0]
	for i := lo; i < hi; i++ {
		r := e.find(int32(i))
		if e.compSize[r] == 0 {
			roots = append(roots, r)
		}
		e.compSize[r]++
	}
	e.rootList = roots[:0]
	if len(roots) == 1 { // fully conflicting segment: serialize
		e.compSize[roots[0]] = 0
		for i := lo; i < hi; i++ {
			e.execOne(txns, i)
		}
		return
	}
	// Pass 2: assign each component to the least-loaded group.
	w := e.workers
	if len(roots) < w {
		w = len(roots)
	}
	load := e.load[:w]
	for c := range load {
		load[c] = 0
		e.chunks[c] = e.chunks[c][:0]
	}
	for _, r := range roots {
		best := 0
		for c := 1; c < w; c++ {
			if load[c] < load[best] {
				best = c
			}
		}
		e.rootChunk[r] = int32(best)
		load[best] += e.compSize[r]
		e.compSize[r] = 0
	}
	// Pass 3: fill groups in batch order.
	for i := lo; i < hi; i++ {
		c := e.rootChunk[e.find(int32(i))]
		e.chunks[c] = append(e.chunks[c], int32(i))
	}
	for _, r := range roots {
		e.rootChunk[r] = -1
	}
	e.dispatch(txns, e.chunks[:w])
}

// dispatch fans groups out to the pool and joins. The submitting
// goroutine executes one group itself, so a pool of Workers-1 goroutines
// yields Workers-way concurrency.
func (e *Engine) dispatch(txns []types.Transaction, groups [][]int32) {
	e.curTxns = txns
	order := make([]int, len(groups))
	for i := range order {
		order[i] = i
	}
	if e.shuffleDispatch != nil {
		e.shuffleDispatch(order)
	}
	e.startPool()
	e.batchWG.Add(len(groups) - 1)
	for _, gi := range order[1:] {
		e.tasks <- groups[gi]
	}
	e.runGroup(groups[order[0]])
	e.batchWG.Wait()
}

// startPool lazily launches the Workers-1 pool goroutines.
func (e *Engine) startPool() {
	e.poolOnce.Do(func() {
		e.tasks = make(chan []int32, e.workers)
		for i := 1; i < e.workers; i++ {
			go e.workerLoop()
		}
	})
}

func (e *Engine) workerLoop() {
	for group := range e.tasks {
		e.runGroup(group)
		e.batchWG.Done()
	}
}

// runGroup executes one group's transactions in batch order. Groups hold
// whole conflict components, so writes to digests (and application state)
// from concurrent groups never overlap.
func (e *Engine) runGroup(group []int32) {
	if h := e.perturb; h != nil {
		h()
	}
	txns := e.curTxns
	for _, idx := range group {
		e.execOne(txns, int(idx))
	}
}

// execOne executes txns[i] and records its result digest. ResultHash only
// ever consumes the per-txn digests, so hashing here — on the executing
// goroutine — keeps the submitting goroutine's assembly to a copy loop.
func (e *Engine) execOne(txns []types.Transaction, i int) {
	e.digests[i] = types.Hash(e.app.Execute(txns[i]))
}

// Executed returns the total number of transactions executed. Safe to call
// concurrently with execution (metrics scrapes, tests).
func (e *Engine) Executed() uint64 { return e.executed.Load() }

// Restore primes the executed-transaction counter after a restart replay,
// so Executed reports the chain total. ResultHash does not read it: a
// batch's result digest depends only on the batch and its per-transaction
// results (StateHash is what commits to history).
func (e *Engine) Restore(executed uint64) { e.executed.Store(executed) }

// StateDigest exposes the application state digest.
func (e *Engine) StateDigest() types.Digest { return e.app.StateDigest() }

// conflictTable maps StateKey → first claiming transaction for one batch.
// Open addressing with a generation stamp per slot, so reset is O(1) and
// the table is reused allocation-free across batches (a Go map here costs
// a hash+bucket walk per key plus a full clear per batch).
type conflictTable struct {
	slots []tableSlot
	mask  uint64
	gen   uint32
}

type tableSlot struct {
	key   types.StateKey
	owner int32
	gen   uint32
}

// reset prepares the table for a batch with totalKeys keys.
func (t *conflictTable) reset(totalKeys int) {
	want := 1 << bits.Len(uint(totalKeys*2)) // load factor ≤ 0.5
	if want < 64 {
		want = 64
	}
	if len(t.slots) < want {
		t.slots = make([]tableSlot, want)
		t.mask = uint64(want - 1)
		t.gen = 1
		return
	}
	t.gen++
	if t.gen == 0 { // wrapped: stale stamps could collide, clear once
		for i := range t.slots {
			t.slots[i] = tableSlot{}
		}
		t.gen = 1
	}
}

// claim records txn as the latest owner of key. If the key was already
// claimed this batch, it returns the previous owner and found=true.
func (t *conflictTable) claim(key types.StateKey, txn int32) (owner int32, found bool) {
	// splitmix64 finalizer: StateKeys may be raw small integers (record
	// indices), so scramble before masking.
	h := uint64(key)
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	for i := h & t.mask; ; i = (i + 1) & t.mask {
		s := &t.slots[i]
		if s.gen != t.gen { // free slot
			*s = tableSlot{key: key, owner: txn, gen: t.gen}
			return 0, false
		}
		if s.key == key {
			owner = s.owner
			s.owner = txn
			return owner, true
		}
	}
}
