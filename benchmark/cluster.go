package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/client"
	"repro/internal/crypto"
	"repro/internal/crypto/digestcache"
	"repro/internal/exec"
	"repro/internal/obs"
	"repro/internal/quorum"
	"repro/internal/rcc"
	"repro/internal/runtime"
	"repro/internal/simnet"
	"repro/internal/sm"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/ycsb"
)

const (
	nodes     = 4 // f = 1
	batchSize = 100
	ppWindow  = 8

	// inboxDepth is each replica's runtime.Config.QueueDepth. A replica's
	// self-addressed sends go through its own bounded inbox, so an event loop
	// that finds the inbox full while it broadcasts blocks on itself for good.
	// At the default 4096 a 150 ms hiccup of a shared host fills the inbox on
	// lan_open (every replica receives every client's requests) and the run
	// hangs; 65536 needs a two-second one.
	inboxDepth = 1 << 16
)

var secret = []byte("rcc-benchmark")

// epoch is the one process clock every timestamp of a run is taken on.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// primaryOf is the replica serving client c: rcc assigns c to instance
// c mod m, and with m = n instance i is led by replica i.
func primaryOf(c types.ClientID) types.ReplicaID { return types.ReplicaID(uint32(c) % nodes) }

// node is one live replica and the public handles the benchmark reads.
type node struct {
	id     types.ReplicaID
	rep    *runtime.Replica
	mach   *rcc.Replica
	tcp    *transport.TCP
	met    *obs.NodeMetrics // nil on untraced runs
	dir    string
	killed atomic.Bool
}

// rec is one request's schedule and outcome on the process clock.
type rec struct {
	due  int64 // when it was due (open loop) or sent (closed loop)
	done int64 // 0 while outstanding
}

// loadClient is one client identity: machine, process, socket, generator and
// the record of everything it submitted.
type loadClient struct {
	id   types.ClientID
	mach *client.Client
	proc *runtime.ClientProc
	gen  *ycsb.Workload
	tr   *tracer // nil on untraced runs

	mu   sync.Mutex
	recs []rec // index = seq-1

	completed atomic.Uint64
	// tokens carries one token per completion to the closed-loop feeder. The
	// completion hook runs on the client's event loop and must never submit
	// from there: ClientProc.DeliverReplica blocks once a batch of replies
	// has filled the inbox the loop itself drains. Capacity 2*window, so the
	// hook's send cannot block (at most window requests are outstanding).
	tokens chan struct{}
}

// cluster is one booted deployment: four replicas, their clients, one data
// directory.
type cluster struct {
	sp      spec
	params  quorum.Params
	dir     string
	nodes   []*node
	clients []*loadClient
	tr      *tracer // nil on untraced runs
}

// boot starts the replicas and clients of sp with data under dir, and returns
// once one transaction has been acknowledged.
func boot(sp spec, seed int64, dir string, tr *tracer) (c *cluster, err error) {
	params, err := quorum.NewParams(nodes)
	if err != nil {
		return nil, err
	}
	c = &cluster{sp: sp, params: params, dir: dir, tr: tr}
	defer func() {
		if err != nil {
			c.close()
		}
	}()
	var faults *transport.Faults
	if sp.wan {
		faults = transport.NewFaults()
		for from, row := range simnet.WANLatencyMatrix(nodes) {
			for to, d := range row {
				faults.SetLinkDelay(types.ReplicaID(from), types.ReplicaID(to), d)
			}
		}
	}
	for i := 0; i < nodes; i++ {
		n, err := c.bootNode(types.ReplicaID(i), faults)
		if err != nil {
			return c, err
		}
		c.nodes = append(c.nodes, n)
	}
	peers := make(map[types.ReplicaID]string, nodes)
	for _, n := range c.nodes {
		peers[n.id] = n.tcp.Addr()
	}
	for _, n := range c.nodes {
		n.tcp.SetPeers(peers)
		n.rep.Run()
	}
	for _, id := range sp.clients {
		lc, err := c.bootClient(id, seed, peers)
		if err != nil {
			return c, err
		}
		c.clients = append(c.clients, lc)
	}
	first := c.clients[0]
	first.submit(now())
	deadline := time.Now().Add(10 * time.Second)
	for first.completed.Load() == 0 {
		if time.Now().After(deadline) {
			return c, fmt.Errorf("%s: first transaction not acknowledged within 10s", sp.name)
		}
		time.Sleep(200 * time.Microsecond)
	}
	<-first.tokens
	return c, nil
}

func (c *cluster) bootNode(id types.ReplicaID, faults *transport.Faults) (*node, error) {
	n := &node{id: id, dir: filepath.Join(c.dir, fmt.Sprintf("replica-%d", id))}
	if c.tr != nil {
		n.met = obs.NewNodeMetrics(obs.NewRegistry(), 0, -1)
	}
	n.mach = rcc.New(rcc.Config{
		BatchSize:       batchSize,
		Window:          ppWindow,
		ProgressTimeout: c.sp.progress,
		Metrics:         n.met,
	})
	var machine sm.Machine = n.mach
	store := ycsb.NewStore(ycsb.DefaultRecords)
	var app exec.Application = store
	if c.tr != nil {
		machine = &tracedMachine{Replica: n.mach, lt: c.tr.layers[id]}
		app = &tracedApp{Store: store, tr: c.tr, id: id}
	}
	rep, err := runtime.New(runtime.Config{
		ID:             id,
		Params:         c.params,
		Machine:        machine,
		App:            app,
		DataDir:        n.dir,
		Journaling:     runtime.JournalOptions{Async: true},
		ReplyToClients: true,
		QueueDepth:     inboxDepth,
		Metrics:        n.met,
	})
	if err != nil {
		return nil, fmt.Errorf("replica %d: %w", id, err)
	}
	n.rep = rep
	auth, err := crypto.NewAuth(c.sp.scheme, crypto.PartyID(id), secret)
	if err != nil {
		rep.Stop()
		return nil, err
	}
	var ep transport.Endpoint = rep
	if c.tr != nil {
		auth = traceAuth(auth, c.tr.layers[id])
		ep = &tracedReplicaEndpoint{Endpoint: rep, tr: c.tr, id: id}
	}
	cfg := transport.TCPConfig{Self: id, Listen: "127.0.0.1:0", Auth: auth, Faults: faults}
	if c.sp.scheme == crypto.SchemeDS {
		cfg.DigestCache = digestcache.New(digestcache.DefaultEntries)
	}
	n.tcp, err = transport.NewTCP(cfg, ep)
	if err != nil {
		rep.Stop()
		return nil, fmt.Errorf("replica %d transport: %w", id, err)
	}
	var tp transport.Transport = n.tcp
	if c.tr != nil {
		tp = &tracedReplicaTransport{Transport: n.tcp, tr: c.tr, id: id}
	}
	rep.Attach(tp)
	return n, nil
}

func (c *cluster) bootClient(id types.ClientID, seed int64, peers map[types.ReplicaID]string) (*loadClient, error) {
	window := c.sp.window
	if window == 0 {
		window = 1 << 30 // open loop: depth is set by the schedule alone
	}
	lc := &loadClient{
		id:     id,
		mach:   client.New(client.Config{Client: id, Broadcast: true, RetryTimeout: c.sp.retry}),
		gen:    ycsb.NewWorkload(ycsb.WorkloadConfig{Seed: clientSeed(seed, id)}),
		tr:     c.tr,
		recs:   make([]rec, 0, 1<<16),
		tokens: make(chan struct{}, 2*max(c.sp.window, 1)),
	}
	lc.mach.SetWindow(window)
	lc.mach.SetCompletionHook(func(comp client.Completion) {
		t := now()
		lc.mu.Lock()
		lc.recs[comp.Seq-1].done = t
		lc.mu.Unlock()
		lc.completed.Add(1)
		if c.tr != nil {
			c.tr.markDone(id, comp.Seq, t)
		}
		select {
		case lc.tokens <- struct{}{}:
		default: // open loops never read tokens
		}
	})
	lc.proc = runtime.NewClient(id, c.params, lc.mach)
	auth, err := crypto.NewAuth(c.sp.scheme, crypto.ClientPartyID(id), secret)
	if err != nil {
		return nil, err
	}
	var ep transport.Endpoint = lc.proc
	if c.tr != nil {
		ep = &tracedClientEndpoint{Endpoint: lc.proc, tr: c.tr}
	}
	tcp, err := transport.NewTCP(transport.TCPConfig{IsClient: true, SelfClient: id, Peers: peers, Auth: auth}, ep)
	if err != nil {
		return nil, fmt.Errorf("client %d transport: %w", id, err)
	}
	var tp transport.Transport = tcp
	if c.tr != nil {
		tp = &tracedClientTransport{Transport: tcp, tr: c.tr}
	}
	lc.proc.Attach(tp)
	lc.proc.Run()
	return lc, nil
}

// submit generates the client's next transaction, records it as due at due,
// and hands it to the client's event loop. It returns how many ms after due
// the hand-over finished.
func (lc *loadClient) submit(due int64) float64 {
	tx := lc.gen.Next(lc.id)
	lc.mu.Lock()
	lc.recs = append(lc.recs, rec{due: due})
	lc.mu.Unlock()
	if lc.tr != nil {
		lc.tr.markDue(lc.id, tx.Seq, due)
	}
	lc.proc.DeliverReplica(types.NoReplica, &client.Submission{Tx: tx})
	return float64(now()-due) / 1e6
}

func (lc *loadClient) snapshot() []rec {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return append([]rec(nil), lc.recs...)
}

// live returns the replicas that were not killed.
func (c *cluster) live() []*node {
	var out []*node
	for _, n := range c.nodes {
		if !n.killed.Load() {
			out = append(out, n)
		}
	}
	return out
}

// kill takes replica i down the way kill -9 would.
func (c *cluster) kill(i int) {
	n := c.nodes[i]
	if n.killed.CompareAndSwap(false, true) {
		n.rep.Kill()
	}
}

// close stops every client and replica and removes the data directory.
func (c *cluster) close() {
	for _, lc := range c.clients {
		lc.proc.Stop()
	}
	var wg sync.WaitGroup
	for _, n := range c.nodes {
		if n.killed.CompareAndSwap(false, true) {
			wg.Add(1)
			go func() {
				defer wg.Done()
				n.rep.Stop()
			}()
		}
	}
	wg.Wait()
	os.RemoveAll(c.dir)
}
