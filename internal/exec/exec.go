// Package exec defines the deterministic execution engine replicas run
// after consensus. Transactions must be deterministic: on identical inputs,
// execution must always produce identical outcomes (§III-A), which is what
// lets nf matching client replies prove correctness.
//
// The engine executes each unified round in order, one transaction at a
// time on the submitting goroutine — the paper's in-order executor (§III;
// Fig. 7 left prices it at 217 ktxn/s per replica). A batch's ResultHash,
// what f+1 replicas must agree on before a client accepts a reply, is one
// SHA-256 over every result in batch order, each as a u32 big-endian length
// and its bytes (wire v8).
package exec

import (
	"crypto/sha256"
	"encoding/binary"
	"sync/atomic"
	"time"

	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/types"
)

// Application is a deterministic state machine. The engine calls Execute
// for one transaction at a time, in batch order.
type Application interface {
	// Execute applies tx and returns its result bytes.
	Execute(tx types.Transaction) []byte
	// StateDigest returns a digest of the current application state.
	StateDigest() types.Digest
}

// Result describes the outcome of executing one batch.
type Result struct {
	Round       types.Round
	Instance    types.InstanceID
	ResultHash  types.Digest // digest over all per-txn results (see the package doc)
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

// Engine applies ordered batches to an Application and journals them.
//
// Batches are submitted from a single goroutine at a time (the replica's
// event loop) and execute on it, one transaction after another in batch
// order. Executed may be called concurrently with execution.
type Engine struct {
	app      Application
	journal  Journal
	executed atomic.Uint64
	met      *obs.NodeMetrics
	replica  types.ReplicaID
}

// SetMetrics attaches replica id's instrument catalog: the engine feeds
// the execute- and journal-stage latency histograms and stamps the execute
// lifecycle point of sampled transactions, after execution and before the
// journal can complete. Nil (the default) disables instrumentation.
func (e *Engine) SetMetrics(m *obs.NodeMetrics, id types.ReplicaID) { e.met, e.replica = m, id }

// NewEngine creates an engine over app, journalling into j (which may be
// nil to skip journalling, e.g. in micro-benchmarks).
func NewEngine(app Application, j Journal) *Engine {
	return &Engine{app: app, journal: j}
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

// execute applies every transaction of batch in batch order and assembles
// the result, leaving journalling to the caller. ResultHash is defined in
// the package doc. Results reach the hash in chunks of a fixed stack
// buffer, so a short result pays no Write call of its own; a result too
// large for the buffer is written directly.
func (e *Engine) execute(batch *types.Batch, proof ledger.Proof) Result {
	var start time.Time
	if e.met != nil {
		start = time.Now()
	}
	h := sha256.New()
	var buf [1024]byte
	chunk := buf[:0]
	for _, tx := range batch.Txns {
		r := e.app.Execute(tx)
		if len(chunk)+4+len(r) > cap(chunk) {
			h.Write(chunk)
			chunk = chunk[:0]
		}
		chunk = binary.BigEndian.AppendUint32(chunk, uint32(len(r)))
		if len(r) <= cap(chunk)-len(chunk) {
			chunk = append(chunk, r...)
			continue
		}
		h.Write(chunk)
		h.Write(r)
		chunk = chunk[:0]
	}
	h.Write(chunk)
	var resultHash types.Digest
	h.Sum(resultHash[:0])
	n := len(batch.Txns)
	e.executed.Add(uint64(n))
	if e.met != nil {
		e.met.ObserveStage(obs.StageExecute, time.Since(start))
		if e.met.Tracing() {
			for i := range batch.Txns {
				if tx := &batch.Txns[i]; !tx.IsNoOp() {
					e.met.Trace(uint16(e.replica), flight.SubRuntime, flight.KExecute, uint32(proof.Instance), uint64(tx.Client), tx.Seq)
				}
			}
		}
	}
	return Result{
		Round:       proof.Round,
		Instance:    proof.Instance,
		ResultHash:  resultHash,
		StateHash:   e.app.StateDigest(),
		TxnExecuted: n,
	}
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
