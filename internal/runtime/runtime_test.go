package runtime

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/pbft"
	"repro/internal/quorum"
	"repro/internal/rcc"
	"repro/internal/sm"
	"repro/internal/transport"
	"repro/internal/types"
	"repro/internal/ycsb"
)

// memCluster builds an n-replica in-memory runtime deployment.
func memCluster(t *testing.T, n int, machine func() sm.Machine) ([]*Replica, *transport.Memory) {
	t.Helper()
	params, err := quorum.NewParams(n)
	if err != nil {
		t.Fatal(err)
	}
	hub := transport.NewMemory()
	reps := make([]*Replica, n)
	for i := 0; i < n; i++ {
		var err error
		reps[i], err = New(Config{
			ID:             types.ReplicaID(i),
			Params:         params,
			Machine:        machine(),
			App:            ycsb.NewStore(1000),
			Journal:        true,
			ReplyToClients: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		reps[i].Attach(hub.AttachReplica(types.ReplicaID(i), reps[i]))
	}
	for _, r := range reps {
		r.Run()
	}
	t.Cleanup(func() {
		for i, r := range reps {
			hub.Detach(types.ReplicaID(i))
			r.Stop()
		}
	})
	return reps, hub
}

func runClient(t *testing.T, hub *transport.Memory, params quorum.Params, id types.ClientID, txns int) *client.Client {
	t.Helper()
	mach := client.New(client.Config{Client: id, Broadcast: true, RetryTimeout: time.Second})
	wl := ycsb.NewWorkload(ycsb.WorkloadConfig{Records: 1000, Seed: int64(id)})
	for i := 0; i < txns; i++ {
		mach.Submit(wl.Next(id))
	}
	proc := NewClient(id, params, mach)
	proc.Attach(hub.AttachClient(id, proc))
	proc.Run()
	t.Cleanup(proc.Stop)
	return mach
}

func TestPBFTOverGoroutineRuntime(t *testing.T) {
	params, _ := quorum.NewParams(4)
	reps, hub := memCluster(t, 4, func() sm.Machine {
		return pbft.New(pbft.Config{BatchSize: 1, Window: 4})
	})
	c := runClient(t, hub, params, 1, 5)

	waitFor(t, 10*time.Second, func() bool { return len(c.Completions()) == 5 })
	// Every replica executed the same 5 transactions and journalled them.
	for i, r := range reps {
		waitFor(t, 5*time.Second, func() bool { return r.Executed() == 5 })
		if err := r.Ledger().Verify(); err != nil {
			t.Fatalf("replica %d ledger: %v", i, err)
		}
	}
	// Ledgers must agree block for block.
	h0 := reps[0].Ledger().Head().Hash()
	for i := 1; i < 4; i++ {
		if reps[i].Ledger().Head().Hash() != h0 {
			t.Fatalf("replica %d ledger head diverges", i)
		}
	}
}

func TestRCCOverGoroutineRuntime(t *testing.T) {
	params, _ := quorum.NewParams(4)
	_, hub := memCluster(t, 4, func() sm.Machine {
		return rcc.New(rcc.Config{BatchSize: 1, Window: 4})
	})
	// Four clients, one per instance.
	clients := make([]*client.Client, 4)
	for i := range clients {
		clients[i] = runClient(t, hub, params, types.ClientID(i+1), 3)
	}
	for i, c := range clients {
		waitFor(t, 15*time.Second, func() bool { return len(c.Completions()) == 3 })
		_ = i
	}
}

func TestClientRepliesCarryMatchingResults(t *testing.T) {
	params, _ := quorum.NewParams(4)
	_, hub := memCluster(t, 4, func() sm.Machine {
		return pbft.New(pbft.Config{BatchSize: 1, Window: 4})
	})
	c := runClient(t, hub, params, 9, 1)
	waitFor(t, 10*time.Second, func() bool { return len(c.Completions()) == 1 })
	if c.Completions()[0].Result.IsZero() {
		t.Fatal("completion carries zero result digest")
	}
}

func TestStopIsIdempotentAndClean(t *testing.T) {
	params, _ := quorum.NewParams(4)
	hub := transport.NewMemory()
	r, err := New(Config{
		ID: 0, Params: params,
		Machine: pbft.New(pbft.Config{BatchSize: 1}),
		App:     ycsb.NewStore(10),
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Attach(hub.AttachReplica(0, r))
	r.Run()
	r.Stop()
	r.Stop() // second stop must not panic or deadlock
}

// bareMachine implements sm.Machine and nothing else.
type bareMachine struct{}

func (bareMachine) Start(sm.Env)                       {}
func (bareMachine) OnMessage(sm.Source, types.Message) {}
func (bareMachine) OnTimer(sm.TimerID)                 {}

// TestNewRefusesMachineWithoutStateSync: the runtime's state-transfer
// contract is resolved once, at construction. A machine without
// sm.StateSyncable is refused by name before any disk state opens, and each
// hosted machine's optional boundary capability is resolved with it.
func TestNewRefusesMachineWithoutStateSync(t *testing.T) {
	params, _ := quorum.NewParams(4)
	dir := t.TempDir()
	_, err := New(Config{ID: 0, Params: params, Machine: bareMachine{}, App: ycsb.NewStore(10), DataDir: dir})
	if err == nil || !strings.Contains(err.Error(), "runtime.bareMachine") || !strings.Contains(err.Error(), "sm.StateSyncable") {
		t.Fatalf("New with a machine lacking sm.StateSyncable: err = %v", err)
	}
	if ents, _ := os.ReadDir(dir); len(ents) != 0 {
		t.Fatalf("refused New left %d entries in its data dir", len(ents))
	}
	for _, tc := range []struct {
		m        sm.Machine
		boundary bool
	}{
		{pbft.New(pbft.Config{BatchSize: 1}), false},
		{rcc.New(rcc.Config{BatchSize: 1}), true},
	} {
		r, err := New(Config{ID: 0, Params: params, Machine: tc.m, App: ycsb.NewStore(10)})
		if err != nil {
			t.Fatalf("%T: %v", tc.m, err)
		}
		if r.syncable == nil || (r.boundary != nil) != tc.boundary {
			t.Fatalf("%T: syncable %v, boundary %v; want boundary %v", tc.m, r.syncable != nil, r.boundary != nil, tc.boundary)
		}
		r.Stop()
	}
}

// selfFlood broadcasts floodSize PREPAREs, itself included, on Start and on
// every message from another replica, and records the rounds it receives
// from itself.
type selfFlood struct {
	bareMachine
	env  sm.Env
	got  []types.Round
	done chan struct{}
}

const floodSize = 64

func (f *selfFlood) flood(base types.Round) {
	for i := types.Round(0); i < floodSize; i++ {
		f.env.Broadcast(types.NewPrepare(0, 0, 0, base+i, types.ZeroDigest))
	}
}

func (f *selfFlood) Start(env sm.Env) { f.env = env; f.flood(0) }

func (f *selfFlood) OnMessage(from sm.Source, m types.Message) {
	if from.Replica != f.env.ID() {
		f.flood(floodSize)
		return
	}
	f.got = append(f.got, m.(*types.Prepare).Round)
	if len(f.got) == 2*floodSize {
		close(f.done)
	}
}

func (*selfFlood) SyncPoint() []byte                  { return nil }
func (*selfFlood) ValidateSyncPoint([]byte) error     { return nil }
func (*selfFlood) InstallSyncPoint(data []byte) error { return nil }

// TestSelfBroadcastNeverBlocksTheLoop: a machine that addresses far more
// messages to itself than its one-slot inbox holds, on Start and while
// handling a peer's message, receives all of them in send order; the loop
// never waits on the inbox only it drains.
func TestSelfBroadcastNeverBlocksTheLoop(t *testing.T) {
	params, _ := quorum.NewParams(4)
	f := &selfFlood{done: make(chan struct{})}
	r, err := New(Config{ID: 0, Params: params, Machine: f, App: ycsb.NewStore(10), QueueDepth: 1})
	if err != nil {
		t.Fatal(err)
	}
	r.Run()
	defer r.Stop()
	r.DeliverReplica(1, types.NewPrepare(0, 0, 0, 0, types.ZeroDigest))
	select {
	case <-f.done:
	case <-time.After(5 * time.Second):
		t.Fatal("event loop blocked delivering to itself")
	}
	for i, round := range f.got {
		if round != types.Round(i) {
			t.Fatalf("self message %d has round %d: self-delivery reordered", i, round)
		}
	}
}

func TestQueueBackpressureDoesNotDeadlockOnStop(t *testing.T) {
	params, _ := quorum.NewParams(4)
	r, err := New(Config{
		ID: 0, Params: params,
		Machine:    pbft.New(pbft.Config{BatchSize: 1}),
		App:        ycsb.NewStore(10),
		QueueDepth: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	r.Run()
	done := make(chan struct{})
	go func() {
		for i := 0; i < 100; i++ {
			r.DeliverReplica(1, types.NewPrepare(0, 1, 0, types.Round(i+1), types.ZeroDigest))
		}
		close(done)
	}()
	time.Sleep(20 * time.Millisecond)
	r.Stop()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("producer deadlocked against stopped replica")
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal(fmt.Sprintf("condition not reached within %v", timeout))
}
