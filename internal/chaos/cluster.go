package chaos

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/crypto"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/quorum"
	"repro/internal/rcc"
	"repro/internal/runtime"
	"repro/internal/simnet"
	"repro/internal/statesync"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/wal"
	"repro/internal/ycsb"
)

// Config parameterizes one chaos run.
type Config struct {
	// Nodes is the cluster size (default 4).
	Nodes int
	// Duration is the full run length including warmup and settle
	// (default 60s).
	Duration time.Duration
	// Seed drives the fault schedule (and nothing else): same seed, same
	// schedule.
	Seed int64
	// WAN installs the five-region geo-latency profile
	// (simnet.WANLatencyMatrix) as constant per-link delays on the live
	// transport, so faults land on links that already carry tens of
	// milliseconds.
	WAN bool
	// ArtifactDir, when set, receives flight dumps and the merged cluster
	// timeline of a failed run.
	ArtifactDir string
	// Schedule overrides the generated schedule (Seed is then only
	// reported, not used).
	Schedule *Schedule
	// Logf, when set, receives harness progress lines.
	Logf func(format string, args ...any)
}

// The load and protocol shape of every run. One closed-loop client per node
// keeps window transactions in flight.
const (
	window  = 4
	records = 1000 // YCSB store size
	// batchSize is small so heights churn, which is what stresses
	// checkpoints, pruning, and state transfer.
	batchSize     = 2
	snapshotEvery = 8 // checkpoint cadence in blocks
	// secret keys the transport MACs.
	secret = "chaos"
	// progressTimeout is the per-instance failure-detection timeout: longer
	// than transient scheduling noise, much shorter than an episode, so
	// in-the-dark instances are detected mid-run.
	progressTimeout = 2 * time.Second
	retryTimeout    = 500 * time.Millisecond // clients' retransmission timeout
)

func (c *Config) defaults() {
	if c.Nodes < 4 {
		c.Nodes = 4
	}
	if c.Duration <= 0 {
		c.Duration = 60 * time.Second
	}
}

func (c *Config) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// node is one cluster member across all its incarnations.
type node struct {
	id   types.ReplicaID
	dir  string
	addr string // fixed across restarts so peers redial the same place
	fp   *wal.Failpoints

	mu  sync.Mutex
	rep *runtime.Replica
	tcp *transport.TCP
	met *obs.NodeMetrics
	up  bool

	// Lifetime totals accumulated across incarnations.
	restarts  int
	wipes     int
	syncStats statesync.Stats // counters only; summed at each teardown
	deadSnaps []flight.Snapshot
}

// Cluster is a live TCP deployment under the harness's control.
type Cluster struct {
	cfg    Config
	params quorum.Params
	faults *transport.Faults
	base   string
	nodes  []*node

	clientMu sync.Mutex
	clients  []*clientHandle
	stopSub  bool // closed-loop submission stops when set
}

type clientHandle struct {
	id   types.ClientID
	mach *client.Client
	proc *runtime.ClientProc
	wl   *ycsb.Workload

	// submitted and completed track the closed loop from outside the
	// client's event loop (client.Client itself is single-threaded, so its
	// own Done is off-limits to the harness). drained = completed caught
	// up with submitted after StopSubmission.
	submitted atomic.Uint64
	completed atomic.Uint64
}

// NewCluster boots cfg.Nodes replicas over loopback TCP. Call StartClients
// to begin load, Close to tear down.
func NewCluster(cfg Config) (*Cluster, error) {
	cfg.defaults()
	params, err := quorum.NewParams(cfg.Nodes)
	if err != nil {
		return nil, err
	}
	base, err := os.MkdirTemp("", "rcc-chaos-")
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		cfg:    cfg,
		params: params,
		faults: transport.NewFaults(),
		base:   base,
	}
	if cfg.WAN {
		for from, row := range simnet.WANLatencyMatrix(cfg.Nodes) {
			for to, d := range row {
				c.faults.SetLinkDelay(types.ReplicaID(from), types.ReplicaID(to), d)
			}
		}
	}
	c.nodes = make([]*node, cfg.Nodes)
	for i := range c.nodes {
		c.nodes[i] = &node{
			id:  types.ReplicaID(i),
			dir: filepath.Join(base, fmt.Sprintf("replica-%d", i)),
			fp:  &wal.Failpoints{},
		}
	}
	// Boot in two passes: listeners first (addresses), then peers+run.
	for _, n := range c.nodes {
		if err := c.boot(n, "127.0.0.1:0"); err != nil {
			c.Close()
			return nil, err
		}
	}
	peers := c.peerMap()
	for _, n := range c.nodes {
		n.tcp.SetPeers(peers)
		n.rep.Run()
		n.up = true
	}
	return c, nil
}

// peerMap returns the fixed replica address book.
func (c *Cluster) peerMap() map[types.ReplicaID]string {
	peers := make(map[types.ReplicaID]string, len(c.nodes))
	for _, n := range c.nodes {
		peers[n.id] = n.addr
	}
	return peers
}

// boot builds one incarnation of n: fresh metrics catalog and flight ring
// (like a real process), durable store from whatever the data dir holds,
// state transfer, WAL pruning, and the shared fault matrix on the
// transport. It does not Run the replica.
func (c *Cluster) boot(n *node, listen string) error {
	met := obs.NewNodeMetrics(obs.NewRegistry(), 0, -1)
	rep, err := runtime.New(runtime.Config{
		ID:     n.id,
		Params: c.params,
		Machine: rcc.New(rcc.Config{
			BatchSize:       batchSize,
			Window:          8,
			ProgressTimeout: progressTimeout,
			Metrics:         met,
		}),
		App:     ycsb.NewStore(records),
		DataDir: n.dir,
		Journaling: runtime.JournalOptions{
			SnapshotEvery: snapshotEvery,
			PruneWAL:      true,
			Failpoints:    n.fp,
		},
		ReplyToClients: true,
		StateSync: runtime.StateSyncOptions{
			Enabled:     true,
			OfferWait:   150 * time.Millisecond,
			Retry:       300 * time.Millisecond,
			SteadyProbe: 500 * time.Millisecond,
		},
		Flight:  runtime.FlightOptions{MirrorInterval: 500 * time.Millisecond},
		Metrics: met,
		Logf:    c.cfg.Logf,
	})
	if err != nil {
		return fmt.Errorf("replica %d: %w", n.id, err)
	}
	tcp, err := transport.NewTCP(transport.TCPConfig{
		Self:   n.id,
		Listen: listen,
		Auth:   crypto.NewMAC(crypto.PartyID(n.id), []byte(secret)),
		Faults: c.faults,
		Flight: met.Flight,
	}, rep)
	if err != nil {
		return fmt.Errorf("replica %d transport: %w", n.id, err)
	}
	rep.Attach(tcp)
	n.rep, n.tcp, n.met = rep, tcp, met
	n.addr = tcp.Addr()
	return nil
}

// Kill takes node i down the way kill -9 would and accumulates the dying
// incarnation's statesync counters and flight ring.
func (c *Cluster) Kill(i int) {
	n := c.nodes[i]
	n.mu.Lock()
	defer n.mu.Unlock()
	if !n.up {
		return
	}
	c.harvestLocked(n)
	n.rep.Kill()
	n.up = false
	c.cfg.logf("chaos: killed node %d", i)
}

// harvestLocked folds the current incarnation's counters and ring into the
// node's lifetime totals. Caller holds n.mu.
func (c *Cluster) harvestLocked(n *node) {
	if n.rep == nil {
		return
	}
	if sy := n.rep.StateSync(); sy != nil {
		st := sy.Stats()
		n.syncStats.Installs += st.Installs
		n.syncStats.InstalledSnaps += st.InstalledSnaps
		n.syncStats.CkptTargets += st.CkptTargets
	}
	if n.met != nil && n.met.Flight != nil {
		n.deadSnaps = append(n.deadSnaps, n.met.Flight.Dump(0))
		if len(n.deadSnaps) > 6 {
			n.deadSnaps = n.deadSnaps[len(n.deadSnaps)-6:]
		}
	}
}

// Wipe removes node i's data directory. The node must be down.
func (c *Cluster) Wipe(i int) error {
	n := c.nodes[i]
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.up {
		return fmt.Errorf("chaos: wipe of running node %d", i)
	}
	n.wipes++
	c.cfg.logf("chaos: wiped node %d", i)
	return os.RemoveAll(n.dir)
}

// Restart boots a fresh incarnation of node i at its original address.
func (c *Cluster) Restart(i int) error {
	n := c.nodes[i]
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.up {
		return nil
	}
	if err := c.boot(n, n.addr); err != nil {
		return err
	}
	n.tcp.SetPeers(c.peerMap())
	n.rep.Run()
	n.up = true
	n.restarts++
	c.cfg.logf("chaos: restarted node %d (restart #%d)", i, n.restarts)
	return nil
}

// Faults exposes the shared link-fault matrix.
func (c *Cluster) Faults() *transport.Faults { return c.faults }

// Isolate cuts node i off from every peer.
func (c *Cluster) Isolate(i int) {
	c.faults.Isolate(types.ReplicaID(i), c.cfg.Nodes)
	c.cfg.logf("chaos: isolated node %d", i)
}

// Rejoin heals every link of node i (other nodes' concurrent cuts, if any,
// stay).
func (c *Cluster) Rejoin(i int) {
	for j := 0; j < c.cfg.Nodes; j++ {
		if j != i {
			c.faults.Heal(types.ReplicaID(i), types.ReplicaID(j))
		}
	}
	c.cfg.logf("chaos: rejoined node %d", i)
}

// Up reports whether node i currently runs.
func (c *Cluster) Up(i int) bool {
	n := c.nodes[i]
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.up
}

// eachUp invokes f for every running node while holding its lifecycle
// lock, so the incarnation cannot be torn down mid-visit.
func (c *Cluster) eachUp(f func(n *node)) {
	for _, n := range c.nodes {
		n.mu.Lock()
		if n.up {
			f(n)
		}
		n.mu.Unlock()
	}
}

// StartClients launches the closed-loop load: each client keeps window
// transactions in flight, submitting a fresh one the moment one completes,
// and reports every completion — an acked transaction — to mon.
func (c *Cluster) StartClients(mon *monitor) {
	peers := c.peerMap()
	for i := 0; i < c.cfg.Nodes; i++ {
		id := types.ClientID(i + 1)
		h := &clientHandle{
			id:   id,
			mach: client.New(client.Config{Client: id, Broadcast: true, RetryTimeout: retryTimeout}),
			wl:   ycsb.NewWorkload(ycsb.WorkloadConfig{Records: records, Seed: int64(id)}),
		}
		h.mach.SetWindow(window)
		h.proc = runtime.NewClient(id, c.params, h.mach)
		h.mach.SetCompletionHook(func(comp client.Completion) {
			mon.acked(id, comp.Seq)
			h.completed.Add(1)
			c.clientMu.Lock()
			stop := c.stopSub
			c.clientMu.Unlock()
			if !stop {
				// Refill the window from inside the client's own event
				// loop; Submission is the local bridge for exactly this.
				h.submitted.Add(1)
				h.proc.DeliverReplica(types.NoReplica, &client.Submission{Tx: h.wl.Next(id)})
			}
		})
		for j := 0; j < window; j++ {
			h.submitted.Add(1)
			h.mach.Submit(h.wl.Next(id))
		}
		tcp, err := transport.NewTCP(transport.TCPConfig{
			IsClient: true, SelfClient: id, Peers: peers,
			Auth: crypto.NewMAC(crypto.ClientPartyID(id), []byte(secret)),
		}, h.proc)
		if err != nil {
			c.cfg.logf("chaos: client %d transport: %v", id, err)
			continue
		}
		h.proc.Attach(tcp)
		h.proc.Run()
		c.clients = append(c.clients, h)
	}
}

// StopSubmission stops the closed loop: in-flight transactions may still
// complete (and are still recorded as acked), but no new ones enter.
func (c *Cluster) StopSubmission() {
	c.clientMu.Lock()
	c.stopSub = true
	c.clientMu.Unlock()
}

// DrainClients waits up to d for every client's in-flight window to
// complete, then stops the client processes. Returns how many clients
// drained fully. Call StopSubmission first or the loop never drains.
func (c *Cluster) DrainClients(d time.Duration) int {
	drained := func(h *clientHandle) bool {
		return h.completed.Load() >= h.submitted.Load()
	}
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		done := 0
		for _, h := range c.clients {
			if drained(h) {
				done++
			}
		}
		if done == len(c.clients) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	n := 0
	for _, h := range c.clients {
		if drained(h) {
			n++
		}
		h.proc.Stop()
	}
	return n
}

// Close tears everything down and removes the data directories.
func (c *Cluster) Close() {
	for _, h := range c.clients {
		h.proc.Stop()
	}
	for _, n := range c.nodes {
		n.mu.Lock()
		if n.up {
			c.harvestLocked(n)
			n.rep.Stop()
			n.up = false
		}
		n.mu.Unlock()
	}
	os.RemoveAll(c.base)
}
