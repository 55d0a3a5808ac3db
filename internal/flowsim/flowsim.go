// Package flowsim is a resource/flow-level performance model of the
// evaluated consensus protocols. Where internal/simnet executes the real
// protocol state machines message by message, flowsim charges the same
// per-round byte, CPU, and execution costs against per-replica resource
// budgets and solves for the steady-state throughput — which makes n = 91
// sweeps instantaneous and is how the Fig. 7/8/9 series are regenerated.
// Its Zyzzyva, SBFT and HotStuff rows, standalone or as RCC-Z and RCC-S
// instances, are model-only: they model code the program does not run.
//
// The model follows the paper's own analysis:
//
//   - §I-A/§II: throughput is governed by the outgoing bandwidth of the
//     busiest replica (the primary for primary-backup protocols; every
//     replica symmetrically under RCC).
//   - §V-B (Fig. 7 left): replicas can answer clients faster than they can
//     sequentially execute transactions — the execution ceiling.
//   - §V-B (Fig. 7 right): cryptography costs CPU; digital signatures cost
//     far more than MACs.
//   - §V-C/D: protocols without out-of-order processing are bounded by
//     message delay, not bandwidth (HotStuff, and everything in Fig. 8 g,h).
//   - §V-B: messages are handled by a dispatch pipeline; at large n the
//     sheer number of vote messages per round throttles quadratic-phase
//     protocols even when bandwidth would still have headroom.
//
// Absolute numbers depend on the environment constants below; the *shapes*
// (who wins, by what factor, where the crossovers are) are what this model
// reproduces. rccbench prints its series; where the paper states a value,
// the table title quotes it.
package flowsim

import (
	"fmt"
	"time"

	"repro/internal/crypto"
	"repro/internal/types"
)

// Protocol names the modeled Byzantine commit algorithms.
type Protocol string

// Modeled protocols.
const (
	PBFT     Protocol = "pbft"
	Zyzzyva  Protocol = "zyzzyva"
	SBFT     Protocol = "sbft"
	HotStuff Protocol = "hotstuff"
)

// Environment is the modeled deployment (paper §V-A: Google Cloud
// c2-machines with 16-core 3.8 GHz CPUs, 32 GB memory, ~1 Gbit/s).
type Environment struct {
	// BandwidthBps is each replica's outgoing bandwidth (bits/s).
	BandwidthBps float64
	// MsgDelay is the one-way message delay.
	MsgDelay time.Duration
	// CryptoCores is the CPU parallelism available for authentication
	// work (the rest of the cores run execution, I/O, and dispatch).
	CryptoCores float64
	// MsgHandle is the serialized per-incoming-message dispatch cost (the
	// network/ordering thread every message funnels through).
	MsgHandle time.Duration
	// ExecPerTxn and ExecPerBatch model sequential execution: a batch of
	// b transactions takes ExecPerBatch + b·ExecPerTxn.
	ExecPerTxn   time.Duration
	ExecPerBatch time.Duration
	// ClientIOPerTxn models request-receive plus reply-send handling.
	ClientIOPerTxn time.Duration
	// ThresholdCritical is the serialized per-round critical-path cost of
	// BLS-style threshold signatures (share + combined-proof pairing
	// checks; real BLS pairings cost ~1 ms, unlike the cheap HMAC
	// simulation internal/crypto uses for correctness testing).
	ThresholdCritical time.Duration
	// ZyzzyvaFailBatch is the effective per-batch completion time of
	// Zyzzyva's commit-certificate path under failures: clients must time
	// out waiting for all n responses before assembling certificates,
	// which serializes progress (§V-E: Zyzzyva's performance plummets).
	ZyzzyvaFailBatch time.Duration
	// ZyzzyvaClientPenalty discounts RCC-Z throughput for the client-pool
	// effect of §V-F: RCC-Z clients wait for all n replies before issuing
	// new transactions, so a finite client pool cannot keep all instances
	// saturated.
	ZyzzyvaClientPenalty float64
}

// DefaultEnv returns the environment calibrated against the paper's §V-B
// measurements (551 ktxn/s client I/O, execution ceiling, Fig. 7 crypto
// ratios, 365 ktxn/s peak at 400 txn/batch).
func DefaultEnv() Environment {
	return Environment{
		BandwidthBps:         1e9,
		MsgDelay:             7 * time.Millisecond,
		CryptoCores:          12,
		MsgHandle:            6 * time.Microsecond,
		ExecPerTxn:           2500 * time.Nanosecond,
		ExecPerBatch:         150 * time.Microsecond,
		ClientIOPerTxn:       1815 * time.Nanosecond,
		ThresholdCritical:    1200 * time.Microsecond,
		ZyzzyvaFailBatch:     35 * time.Millisecond,
		ZyzzyvaClientPenalty: 0.85,
	}
}

// Setup describes one evaluated configuration.
type Setup struct {
	// Protocol is the Byzantine commit algorithm.
	Protocol Protocol
	// N is the number of replicas; F is derived as ⌊(n−1)/3⌋.
	N int
	// Concurrent is the number of concurrent instances m (RCC). 0 or 1
	// models the standalone primary-backup protocol.
	Concurrent int
	// BatchSize is the number of transactions per proposal.
	BatchSize int
	// Crypto selects the replica-message authentication scheme.
	Crypto crypto.Scheme
	// ClientSig selects the client-transaction signature scheme. The
	// paper's Fig. 7 "MAC" configuration pairs CMAC replica messages with
	// ED25519 client signatures; the main experiments use the heavily
	// optimized MAC-everywhere configuration (§V-C).
	ClientSig crypto.Scheme
	// OutOfOrder enables out-of-order processing (proposal pipelining).
	// HotStuff ignores it (the protocol does not support it).
	OutOfOrder bool
	// Failures is the number of crashed replicas (0 or 1 in the paper).
	Failures int
	// Env is the modeled deployment; zero value means DefaultEnv.
	Env Environment
}

// F returns the derived fault bound.
func (s Setup) F() int { return (s.N - 1) / 3 }

// NF returns n − f.
func (s Setup) NF() int { return s.N - s.F() }

// Result is the modeled steady-state performance.
type Result struct {
	// Throughput in transactions per second.
	Throughput float64
	// Latency is the modeled client-observed latency.
	Latency time.Duration
	// Bound names the binding resource: "bandwidth", "cpu", "dispatch",
	// "execution", "clientio", "delay", "threshold", or "failpath".
	Bound string
}

// roleCost is the per-round resource cost of one replica role.
type roleCost struct {
	outBytes float64 // bytes sent per round
	inMsgs   float64 // messages received per round (dispatch load)
	sends    float64 // messages authenticated per round
	recvs    float64 // messages verified per round
	phases   float64 // one-way delays on the commit critical path
	thresh   bool    // threshold signatures on the critical path
}

// costs returns (primaryRole, backupRole) per-round costs for one instance
// of the protocol with n replicas and b transactions per batch.
func costs(p Protocol, n, b int) (roleCost, roleCost) {
	P := float64(types.ProposalWireSize(b))
	V := float64(types.ConsensusMsgBytes)
	R := float64(types.ReplyWireSize(b))
	n1 := float64(n - 1)
	switch p {
	case PBFT:
		// preprepare-prepare-commit (Example III.1): the primary's
		// preprepare doubles as its prepare; everyone broadcasts both
		// vote phases; every replica replies to the clients of its batch.
		pri := roleCost{
			outBytes: n1*P + n1*V + R,
			inMsgs:   2 * n1,
			sends:    2*n1 + 1,
			recvs:    2 * n1,
			phases:   3,
		}
		bak := roleCost{
			outBytes: 2*n1*V + R,
			inMsgs:   1 + 2*n1,
			sends:    2*n1 + 1,
			recvs:    1 + 2*n1,
			phases:   3,
		}
		return pri, bak
	case Zyzzyva:
		// Single-phase speculation: order request out, spec responses
		// straight to the client. The commit critical path still spans
		// three one-way delays (request, order request, responses), which
		// is what binds when out-of-order processing is off.
		pri := roleCost{
			outBytes: n1*P + R,
			inMsgs:   0,
			sends:    n1 + 1,
			recvs:    0,
			phases:   3,
		}
		bak := roleCost{
			outBytes: R,
			inMsgs:   1,
			sends:    1,
			recvs:    1,
			phases:   3,
		}
		return pri, bak
	case SBFT:
		// Linear collector phases: one share to the collector, one
		// combined proof broadcast back (collector duty rotates across
		// rounds, so its (n−1)-message load amortizes to ~1 per round).
		proofAmortized := n1 * V / float64(n)
		pri := roleCost{
			outBytes: n1*P + V + proofAmortized + R,
			inMsgs:   1 + n1/float64(n) + 1,
			sends:    n1 + 2,
			recvs:    2,
			phases:   3,
			thresh:   true,
		}
		bak := roleCost{
			outBytes: V + proofAmortized + R,
			inMsgs:   1 + n1/float64(n) + 1,
			sends:    2,
			recvs:    2,
			phases:   3,
			thresh:   true,
		}
		return pri, bak
	case HotStuff:
		// Chained single-phase: block proposal out, one vote to the next
		// leader. Leadership rotates every view, so the per-replica cost
		// is uniform: each replica leads 1/n of the blocks.
		amort := roleCost{
			outBytes: n1*P/float64(n) + V + R,
			inMsgs:   1 + 1,
			sends:    n1/float64(n) + 2,
			recvs:    2,
			phases:   2,
			thresh:   true,
		}
		return amort, amort
	}
	return roleCost{}, roleCost{}
}

// Evaluate solves the model for one setup.
func Evaluate(s Setup) Result {
	env := s.Env
	if env.BandwidthBps == 0 {
		env = DefaultEnv()
	}
	if s.BatchSize < 1 {
		s.BatchSize = 1
	}
	m := s.Concurrent
	if m <= 0 {
		m = 1
	}
	if m > s.N {
		m = s.N
	}
	b := float64(s.BatchSize)

	// Zyzzyva's failure path is special-cased: the client-driven commit
	// certificates serialize per-batch progress (§V-E).
	if s.Protocol == Zyzzyva && s.Failures > 0 {
		mEff := float64(m)
		if m > 1 {
			mEff = float64(m - s.Failures)
		}
		tput := b / env.ZyzzyvaFailBatch.Seconds() * mEff
		return Result{
			Throughput: tput,
			Latency:    env.ZyzzyvaFailBatch + 4*env.MsgDelay,
			Bound:      "failpath",
		}
	}

	pri, bak := costs(s.Protocol, s.N, s.BatchSize)

	// Effective concurrency: a crashed replica removes its instance until
	// its restart penalty elapses; RCC keeps the remaining m−1 instances
	// at full speed (design goals D4/D5).
	mEff := float64(m)
	if s.Failures > 0 && m > 1 {
		mEff = float64(m - s.Failures)
	}

	// Per-super-round cost at the busiest replica: under RCC every replica
	// is primary of one instance and backup of the rest; standalone, the
	// primary is the bottleneck.
	var outBytes, inMsgs, sends, recvs float64
	if m > 1 {
		outBytes = pri.outBytes + (mEff-1)*bak.outBytes
		inMsgs = pri.inMsgs + (mEff-1)*bak.inMsgs
		sends = pri.sends + (mEff-1)*bak.sends
		recvs = pri.recvs + (mEff-1)*bak.recvs
	} else {
		outBytes, inMsgs, sends, recvs = pri.outBytes, pri.inMsgs, pri.sends, pri.recvs
	}

	// A "super-round" commits mEff batches (m > 1) or one batch.
	batchesPerRound := mEff
	if m <= 1 {
		batchesPerRound = 1
	}
	txnPerRound := b * batchesPerRound

	rate, bound := env.BandwidthBps/8/outBytes, "bandwidth"

	// Serialized message dispatch at the busiest replica.
	if inMsgs > 0 && env.MsgHandle > 0 {
		dispatchRate := 1 / (inMsgs * env.MsgHandle.Seconds())
		if dispatchRate < rate {
			rate, bound = dispatchRate, "dispatch"
		}
	}

	// Crypto CPU: authenticate outgoing, verify incoming, verify client
	// transaction signatures, authenticate replies.
	sign := crypto.SignCost(s.Crypto)
	verify := crypto.VerifyCost(s.Crypto)
	cpuRound := time.Duration(sends)*sign + time.Duration(recvs)*verify
	cpuRound += time.Duration(txnPerRound) * crypto.VerifyCost(s.ClientSig)
	cpuRound += time.Duration(txnPerRound) * sign // reply authenticators
	if cpuRound > 0 {
		cpuRate := env.CryptoCores / cpuRound.Seconds()
		if cpuRate < rate {
			rate, bound = cpuRate, "cpu"
		}
	}

	// Threshold-signature critical path (per instance, serialized).
	if pri.thresh && env.ThresholdCritical > 0 && m <= 1 {
		tRate := 1 / env.ThresholdCritical.Seconds()
		if tRate < rate {
			rate, bound = tRate, "threshold"
		}
	}

	// Sequential execution: all batches of a round execute in order.
	execPerRound := time.Duration(batchesPerRound) * (env.ExecPerBatch + time.Duration(b)*env.ExecPerTxn)
	if execRate := 1 / execPerRound.Seconds(); execRate < rate {
		rate, bound = execRate, "execution"
	}

	// Client I/O (request receive + reply send).
	if ioRate := 1 / (time.Duration(txnPerRound) * env.ClientIOPerTxn).Seconds(); ioRate < rate {
		rate, bound = ioRate, "clientio"
	}

	// Message delay: without out-of-order processing a new round only
	// starts after the previous one commits.
	ooo := s.OutOfOrder && s.Protocol != HotStuff
	if !ooo {
		if delayRate := 1 / (pri.phases * env.MsgDelay.Seconds()); delayRate < rate {
			rate, bound = delayRate, "delay"
		}
	}

	tput := rate * txnPerRound
	if s.Protocol == Zyzzyva && m > 1 && env.ZyzzyvaClientPenalty > 0 {
		tput *= env.ZyzzyvaClientPenalty
	}

	// Latency: commit-path delays plus service time, inflated near
	// saturation (an M/M/1-flavoured factor, capped).
	service := time.Duration(float64(time.Second) / rate)
	inflation := 1.0
	if bound != "delay" {
		inflation = 8 // pipelined protocols run saturated in the paper's runs
	}
	lat := time.Duration(float64(pri.phases+1)*float64(env.MsgDelay)) +
		time.Duration(float64(service)*inflation) +
		time.Duration(float64(time.Duration(b))*float64(env.ClientIOPerTxn)) // batch formation

	return Result{Throughput: tput, Latency: lat, Bound: bound}
}

// String renders a setup compactly (used by the benchmark harness).
func (s Setup) String() string {
	name := string(s.Protocol)
	if s.Concurrent > 1 {
		name = fmt.Sprintf("rcc-%s(m=%d)", s.Protocol, s.Concurrent)
	}
	return fmt.Sprintf("%s n=%d b=%d ooo=%v fail=%d", name, s.N, s.BatchSize, s.OutOfOrder, s.Failures)
}

// SingleReplicaReply returns the Fig. 7 (left) "Reply" rate: a single
// replica receiving client transactions and answering without executing.
func SingleReplicaReply(env Environment) float64 {
	return 1 / env.ClientIOPerTxn.Seconds()
}

// SingleReplicaFull returns the Fig. 7 (left) "Full" rate: receive,
// execute, and reply, at the given batch size.
func SingleReplicaFull(env Environment, batch int) float64 {
	if batch < 1 {
		batch = 1
	}
	per := env.ClientIOPerTxn + env.ExecPerTxn + time.Duration(int(env.ExecPerBatch)/batch)
	return 1 / per.Seconds()
}
