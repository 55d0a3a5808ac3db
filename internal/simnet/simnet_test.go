package simnet

import (
	"testing"
	"time"

	"repro/internal/sm"
	"repro/internal/types"
)

// echo is a trivial machine: it re-broadcasts every PREPARE once, bumping
// the round, up to a bound — enough traffic to exercise the simulator.
type echo struct {
	env   sm.Env
	seen  int
	bound int
}

func (e *echo) Start(env sm.Env) { e.env = env }
func (e *echo) OnMessage(from sm.Source, m types.Message) {
	p, ok := m.(*types.Prepare)
	if !ok || int(p.Round) >= e.bound {
		return
	}
	e.seen++
	e.env.Broadcast(types.NewPrepare(0, e.env.ID(), 0, p.Round+1, p.Digest))
}
func (e *echo) OnTimer(sm.TimerID) {}

func cluster(t *testing.T, cfg Config, bound int) (*Network, []*echo) {
	t.Helper()
	if cfg.N == 0 {
		cfg.N = 4
	}
	if cfg.Latency == 0 {
		cfg.Latency = time.Millisecond
	}
	net, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	machines := make([]*echo, cfg.N)
	for i := range machines {
		machines[i] = &echo{bound: bound}
		net.SetMachine(types.ReplicaID(i), machines[i])
	}
	net.Start()
	return net, machines
}

func kick(net *Network) {
	net.Schedule(0, func() {
		net.Node(0).Machine().OnMessage(sm.FromReplica(1), types.NewPrepare(0, 1, 0, 0, types.ZeroDigest))
	})
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (uint64, uint64) {
		net, _ := cluster(t, Config{Jitter: 3 * time.Millisecond, Seed: 5}, 6)
		kick(net)
		net.Run(2 * time.Second)
		return net.MessagesSent(), net.BytesSent()
	}
	m1, b1 := run()
	m2, b2 := run()
	if m1 != m2 || b1 != b2 {
		t.Fatalf("replay diverged: (%d,%d) vs (%d,%d)", m1, b1, m2, b2)
	}
	if m1 == 0 {
		t.Fatal("no traffic generated")
	}
}

func TestSeedChangesScheduleWithJitter(t *testing.T) {
	run := func(seed int64) time.Duration {
		net, _ := cluster(t, Config{Jitter: 5 * time.Millisecond, Seed: seed}, 6)
		kick(net)
		net.Run(2 * time.Second)
		return net.Now()
	}
	_ = run(1) // mostly checks absence of panics; jitter paths covered
}

func TestCrashSilencesReplica(t *testing.T) {
	net, machines := cluster(t, Config{}, 8)
	net.Crash(2)
	kick(net)
	net.Run(time.Second)
	if machines[2].seen != 0 {
		t.Fatal("crashed replica processed messages")
	}
	if machines[1].seen == 0 {
		t.Fatal("healthy replica made no progress")
	}
}

func TestDropRuleFiltersMessages(t *testing.T) {
	dropped := 0
	cfg := Config{
		Drop: func(from, to types.ReplicaID, m types.Message) bool {
			if from == 1 && to == 3 {
				dropped++
				return true
			}
			return false
		},
	}
	net, machines := cluster(t, cfg, 6)
	kick(net)
	net.Run(time.Second)
	if dropped == 0 {
		t.Fatal("drop rule never fired")
	}
	// Replica 3 still progresses via 0 and 2.
	if machines[3].seen == 0 {
		t.Fatal("partitioned replica received nothing at all")
	}
}

func TestBandwidthSerializesTransmission(t *testing.T) {
	// With finite bandwidth, sending k messages back to back must take at
	// least k·size/bw of virtual time before the last arrival.
	slow, _ := New(Config{N: 4, Latency: time.Millisecond, BandwidthBps: 1e6}) // 1 Mbit/s
	fast, _ := New(Config{N: 4, Latency: time.Millisecond})
	recvSlow, recvFast := 0, 0
	sinkS := &funcMachine{onMsg: func() { recvSlow++ }}
	sinkF := &funcMachine{onMsg: func() { recvFast++ }}
	slow.SetMachine(1, sinkS)
	fast.SetMachine(1, sinkF)
	sender := &funcMachine{}
	slow.SetMachine(0, sender)
	fast.SetMachine(0, sender)
	slow.Start()
	fast.Start()

	b := &types.Batch{Txns: make([]types.Transaction, 100)} // 5400 B proposal
	send := func(net *Network) {
		net.Schedule(0, func() {
			for i := 0; i < 10; i++ {
				pp := &types.PrePrepare{Round: types.Round(i + 1), Batch: b}
				net.Node(0).Send(1, pp)
			}
		})
	}
	send(slow)
	send(fast)
	// 10 × 5400 B × 8 / 1e6 bps = 432 ms of serialization on the slow net.
	slow.Run(100 * time.Millisecond)
	fast.Run(100 * time.Millisecond)
	if recvFast != 10 {
		t.Fatalf("infinite-bandwidth net delivered %d/10", recvFast)
	}
	if recvSlow >= 10 {
		t.Fatal("finite bandwidth did not delay deliveries")
	}
	slow.Run(time.Second)
	if recvSlow != 10 {
		t.Fatalf("slow net eventually delivered %d/10", recvSlow)
	}
}

func TestTimersFireAndCancel(t *testing.T) {
	net, _ := New(Config{N: 4, Latency: time.Millisecond})
	fired := 0
	m := &funcMachine{onTimer: func() { fired++ }}
	net.SetMachine(0, m)
	net.Start()
	id1 := sm.TimerID{Kind: sm.TimerProgress, Round: 1}
	id2 := sm.TimerID{Kind: sm.TimerProgress, Round: 2}
	net.Node(0).SetTimer(id1, 10*time.Millisecond)
	net.Node(0).SetTimer(id2, 20*time.Millisecond)
	net.Node(0).CancelTimer(id2)
	net.Run(time.Second)
	if fired != 1 {
		t.Fatalf("fired %d timers, want 1 (one canceled)", fired)
	}
	// Re-arming replaces the old deadline.
	net.Node(0).SetTimer(id1, 10*time.Millisecond)
	net.Node(0).SetTimer(id1, 30*time.Millisecond)
	net.Run(net.Now() + 50*time.Millisecond)
	if fired != 2 {
		t.Fatalf("re-armed timer fired %d times total, want 2", fired)
	}
}

func TestVirtualClockAdvancesToRunHorizon(t *testing.T) {
	net, _ := New(Config{N: 4, Latency: time.Millisecond})
	net.Run(5 * time.Second)
	if net.Now() != 5*time.Second {
		t.Fatalf("clock %v, want 5s", net.Now())
	}
}

func TestMessagesByTypeAccounting(t *testing.T) {
	net, _ := cluster(t, Config{}, 4)
	kick(net)
	net.Run(time.Second)
	if net.MessagesByType()[types.MsgPrepare] == 0 {
		t.Fatal("per-type accounting empty")
	}
}

// funcMachine adapts closures to sm.Machine.
type funcMachine struct {
	env     sm.Env
	onMsg   func()
	onTimer func()
}

func (f *funcMachine) Start(env sm.Env) { f.env = env }
func (f *funcMachine) OnMessage(sm.Source, types.Message) {
	if f.onMsg != nil {
		f.onMsg()
	}
}
func (f *funcMachine) OnTimer(sm.TimerID) {
	if f.onTimer != nil {
		f.onTimer()
	}
}

// clientEcho is a trivial client machine: counts replies, sets a timer.
type clientEcho struct {
	env     sm.ClientEnv
	replies int
	fired   int
}

func (c *clientEcho) Start(env sm.ClientEnv) {
	c.env = env
	c.env.Broadcast(types.NewClientRequest(0, types.Transaction{Client: env.Client(), Seq: 1, Op: []byte("x")}))
	c.env.SetTimer(sm.TimerID{Kind: sm.TimerClient, Round: 1}, 50*time.Millisecond)
	c.env.Logf("client started")
}
func (c *clientEcho) OnMessage(from types.ReplicaID, m types.Message) { c.replies++ }
func (c *clientEcho) OnTimer(sm.TimerID)                              { c.fired++ }
func (c *clientEcho) Flush()                                          {}

// replyBack answers every client request with a reply.
type replyBack struct{ env sm.Env }

func (r *replyBack) Start(env sm.Env) { r.env = env }
func (r *replyBack) OnMessage(from sm.Source, m types.Message) {
	if req, ok := m.(*types.ClientRequest); ok && from.IsClient {
		tx := req.Txns[0]
		r.env.SendClient(from.Client, types.NewClientReply(0, r.env.ID(), tx.Client, 0, types.ZeroDigest, []uint64{tx.Seq}))
	}
}
func (r *replyBack) OnTimer(sm.TimerID) {}

func TestClientNodeRoundTripAndTimer(t *testing.T) {
	net, _ := New(Config{N: 4, Latency: time.Millisecond})
	for i := 0; i < 4; i++ {
		net.SetMachine(types.ReplicaID(i), &replyBack{})
	}
	cl := &clientEcho{}
	net.AddClient(7, cl)
	net.Start()
	net.Run(time.Second)
	if cl.replies != 4 {
		t.Fatalf("client got %d replies, want 4", cl.replies)
	}
	if cl.fired != 1 {
		t.Fatalf("client timer fired %d times, want 1", cl.fired)
	}
}

func TestClientTimerCancel(t *testing.T) {
	net, _ := New(Config{N: 4, Latency: time.Millisecond})
	cl := &clientEcho{}
	node := net.AddClient(7, cl)
	net.Start()
	node.CancelTimer(sm.TimerID{Kind: sm.TimerClient, Round: 1})
	net.Run(time.Second)
	if cl.fired != 0 {
		t.Fatalf("canceled client timer fired %d times", cl.fired)
	}
}

func TestRunStepsBoundsWork(t *testing.T) {
	net, _ := cluster(t, Config{}, 50)
	kick(net)
	if ran := net.RunSteps(5); ran != 5 {
		t.Fatalf("RunSteps processed %d, want 5", ran)
	}
}

func TestRestoreUndoesCrash(t *testing.T) {
	net, machines := cluster(t, Config{}, 8)
	net.Crash(2)
	kick(net)
	net.Run(time.Second)
	if machines[2].seen != 0 {
		t.Fatal("crashed replica progressed")
	}
	net.Restore(2)
	net.Schedule(net.Now(), func() {
		net.Node(2).Machine().OnMessage(sm.FromReplica(1), types.NewPrepare(0, 1, 0, 0, types.ZeroDigest))
	})
	net.Run(net.Now() + time.Second)
	if machines[2].seen == 0 {
		t.Fatal("restored replica never progressed")
	}
}
