// Package core is the high-level public API of the RCC reproduction: it
// assembles complete replicated deployments — consensus machines, execution
// engine, blockchain ledger, transports, and clients — behind a handful of
// calls.
//
// Quickstart (see examples/quickstart):
//
//	cluster, _ := core.NewCluster(core.Options{N: 4, Protocol: core.RCC})
//	defer cluster.Stop()
//	cluster.Start()
//	cl := cluster.NewClient(1)
//	res, _ := cl.Execute(op, time.Second)
//
// Every deployment runs a real protocol state machine — RCC (internal/rcc)
// or standalone PBFT (internal/pbft) — on the goroutine runtime
// (internal/runtime) over an in-process transport; cmd/rccnode runs the same
// machinery over TCP.
package core

import (
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/client"
	"repro/internal/exec"
	"repro/internal/ledger"
	"repro/internal/obs"
	"repro/internal/pbft"
	"repro/internal/quorum"
	"repro/internal/rcc"
	"repro/internal/runtime"
	"repro/internal/sm"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/ycsb"
)

// Protocol selects the consensus protocol of a deployment.
type Protocol string

// Supported protocols. RCC is the paper's RCC-P: m concurrent PBFT
// instances unified per round. PBFT is RCC's coordinating consensus run on
// its own.
const (
	RCC  Protocol = "rcc"
	PBFT Protocol = "pbft"
)

// Options configures a cluster.
type Options struct {
	// N is the number of replicas (n > 3f, so at least 4).
	N int
	// Protocol selects the consensus protocol (default RCC).
	Protocol Protocol
	// BatchSize groups client transactions per proposal (default 1 for
	// interactive use; benchmarks use the paper's 100).
	BatchSize int
	// Window is the out-of-order proposal window (default 4; 1 disables
	// out-of-order processing).
	Window int
	// ProgressTimeout is the failure-detection timeout (default 500 ms).
	ProgressTimeout time.Duration
	// App builds the per-replica application; nil selects a fresh YCSB
	// store with the paper's 500k records.
	App func() exec.Application
	// Journal enables the per-replica blockchain ledger.
	Journal bool
	// DataDir enables durable storage (implies Journal): replica i
	// journals its ledger through a write-ahead log under
	// DataDir/replica-i and restores height and application state from
	// there on construction, so a cluster rebuilt on the same DataDir
	// resumes where the previous one stopped.
	DataDir string
	// SnapshotEvery persists application checkpoints every N blocks when
	// DataDir is set (see runtime.Config.SnapshotEvery).
	SnapshotEvery uint64
	// UnpredictableOrdering enables RCC's §IV permutation ordering.
	UnpredictableOrdering bool
	// Metrics is the instrument catalog wired through the consensus
	// machine and runtime of every replica built from these options. An
	// in-process cluster shares the one catalog: stage histograms and
	// consensus counters aggregate across replicas, while per-replica
	// series carry a replica="ID" label. Nil disables instrumentation.
	Metrics *obs.NodeMetrics
}

// ReplicaDir returns the data directory of replica i under base.
func ReplicaDir(base string, i int) string {
	return filepath.Join(base, fmt.Sprintf("replica-%d", i))
}

func (o *Options) defaults() error {
	if o.N < 4 {
		return fmt.Errorf("core: need at least 4 replicas, got %d", o.N)
	}
	if o.Protocol == "" {
		o.Protocol = RCC
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 1
	}
	if o.Window <= 0 {
		o.Window = 4
	}
	if o.ProgressTimeout <= 0 {
		o.ProgressTimeout = 500 * time.Millisecond
	}
	if o.App == nil {
		o.App = func() exec.Application { return ycsb.NewStore(ycsb.DefaultRecords) }
	}
	return nil
}

// machine builds the consensus machine for one replica.
func (o *Options) machine() (sm.Machine, error) {
	switch o.Protocol {
	case RCC:
		return rcc.New(rcc.Config{
			BatchSize:             o.BatchSize,
			Window:                o.Window,
			ProgressTimeout:       o.ProgressTimeout,
			UnpredictableOrdering: o.UnpredictableOrdering,
			Metrics:               o.Metrics,
		}), nil
	case PBFT:
		return pbft.New(pbft.Config{
			BatchSize: o.BatchSize, Window: o.Window, ProgressTimeout: o.ProgressTimeout,
			Metrics: o.Metrics,
		}), nil
	}
	return nil, fmt.Errorf("core: unknown protocol %q", o.Protocol)
}

// BuildMachine validates opts and builds one replica's consensus machine —
// the hook cmd/rccnode uses to run the same assembly over TCP.
func BuildMachine(opts *Options) (sm.Machine, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	return opts.machine()
}

// Cluster is a running in-process deployment.
type Cluster struct {
	opts     Options
	params   quorum.Params
	hub      *transport.Memory
	replicas []*runtime.Replica
	machines []sm.Machine
	clients  []*Client
	nextCli  types.ClientID
	started  bool
}

// NewCluster assembles a cluster; call Start to run it.
func NewCluster(opts Options) (*Cluster, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	params, err := quorum.NewParams(opts.N)
	if err != nil {
		return nil, err
	}
	c := &Cluster{opts: opts, params: params, hub: transport.NewMemory(), nextCli: 1}
	for i := 0; i < opts.N; i++ {
		m, err := opts.machine()
		if err != nil {
			return nil, err
		}
		rcfg := runtime.Config{
			ID:             types.ReplicaID(i),
			Params:         params,
			Machine:        m,
			App:            opts.App(),
			Journal:        opts.Journal,
			Journaling:     runtime.JournalOptions{SnapshotEvery: opts.SnapshotEvery},
			ReplyToClients: true,
			Metrics:        opts.Metrics,
		}
		if opts.DataDir != "" {
			rcfg.DataDir = ReplicaDir(opts.DataDir, i)
		}
		rep, err := runtime.New(rcfg)
		if err != nil {
			for j, prev := range c.replicas {
				c.hub.Detach(types.ReplicaID(j))
				prev.Stop()
			}
			return nil, fmt.Errorf("core: replica %d: %w", i, err)
		}
		rep.Attach(c.hub.AttachReplica(types.ReplicaID(i), rep))
		c.replicas = append(c.replicas, rep)
		c.machines = append(c.machines, m)
	}
	return c, nil
}

// Params returns the deployment's quorum parameters.
func (c *Cluster) Params() quorum.Params { return c.params }

// Start launches every replica's event loop.
func (c *Cluster) Start() {
	if c.started {
		return
	}
	c.started = true
	for _, r := range c.replicas {
		r.Run()
	}
}

// Stop shuts the whole deployment down.
func (c *Cluster) Stop() {
	for _, cl := range c.clients {
		cl.proc.Stop()
	}
	for i, r := range c.replicas {
		c.hub.Detach(types.ReplicaID(i))
		r.Stop()
	}
}

// Crash detaches replica i from the transport (a crash fault: the process
// keeps running but nothing reaches it and nothing leaves it).
func (c *Cluster) Crash(i int) { c.hub.Detach(types.ReplicaID(i)) }

// Replica returns the i-th replica process.
func (c *Cluster) Replica(i int) *runtime.Replica { return c.replicas[i] }

// Machine returns the i-th replica's consensus machine (for introspection;
// e.g. cast to *rcc.Replica for Status).
func (c *Cluster) Machine(i int) sm.Machine { return c.machines[i] }

// Ledger returns replica i's journal (nil unless Options.Journal).
func (c *Cluster) Ledger(i int) *ledger.Ledger { return c.replicas[i].Ledger() }

// Client is a connected cluster client.
type Client struct {
	id      types.ClientID
	mach    *client.Client
	proc    *runtime.ClientProc
	done    chan client.Completion
	nextSeq uint64
}

// NewClient connects a new client to the cluster; pass 0 to auto-assign an
// identity. The client accepts a result on f+1 matching replies.
func (c *Cluster) NewClient(id types.ClientID) *Client {
	if id == 0 {
		id = c.nextCli
	}
	if id >= c.nextCli {
		c.nextCli = id + 1
	}
	mach := client.New(client.Config{
		Client:       id,
		Broadcast:    true,
		RetryTimeout: 2 * c.opts.ProgressTimeout,
	})
	cl := &Client{id: id, mach: mach, done: make(chan client.Completion, 256)}
	mach.SetCompletionHook(func(comp client.Completion) {
		select {
		case cl.done <- comp:
		default:
		}
	})
	proc := runtime.NewClient(id, c.params, mach)
	proc.Attach(c.hub.AttachClient(id, proc))
	cl.proc = proc
	c.clients = append(c.clients, cl)
	proc.Run()
	return cl
}

// ID returns the client identity.
func (cl *Client) ID() types.ClientID { return cl.id }

// Submit queues op as the client's next transaction without waiting.
func (cl *Client) Submit(op []byte) uint64 {
	cl.nextSeq++
	tx := types.Transaction{Client: cl.id, Seq: cl.nextSeq, Op: op}
	cl.proc.DeliverReplica(types.NoReplica, &client.Submission{Tx: tx})
	return cl.nextSeq
}

// Await blocks until the next completion arrives or the timeout expires.
func (cl *Client) Await(timeout time.Duration) (client.Completion, error) {
	select {
	case comp := <-cl.done:
		return comp, nil
	case <-time.After(timeout):
		return client.Completion{}, fmt.Errorf("core: client %d timed out after %v", cl.id, timeout)
	}
}

// Execute submits op and waits for its f+1-certified outcome.
func (cl *Client) Execute(op []byte, timeout time.Duration) (client.Completion, error) {
	seq := cl.Submit(op)
	deadline := time.Now().Add(timeout)
	for {
		remain := time.Until(deadline)
		if remain <= 0 {
			return client.Completion{}, fmt.Errorf("core: transaction %d/%d timed out after %v", cl.id, seq, timeout)
		}
		comp, err := cl.Await(remain)
		if err != nil {
			return client.Completion{}, fmt.Errorf("core: transaction %d/%d timed out after %v", cl.id, seq, timeout)
		}
		if comp.Seq == seq {
			return comp, nil
		}
		// An earlier pipelined completion; keep draining.
	}
}
