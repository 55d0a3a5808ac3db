package pbft

import (
	"testing"
	"time"

	"repro/internal/quorum"
	"repro/internal/sm"
	"repro/internal/types"
)

// recEnv is a synchronous sm.Env recording, for one instance, its
// deliveries, the PRE-PREPAREs it broadcasts, the timers it has armed and
// the rounds it suspected.
type recEnv struct {
	id       types.ReplicaID
	params   quorum.Params
	decs     []sm.Decision
	props    []*types.PrePrepare
	timers   map[sm.TimerID]time.Duration
	suspects []types.Round
}

func newRecEnv(id types.ReplicaID) *recEnv {
	params, _ := quorum.NewParams(4)
	return &recEnv{id: id, params: params}
}

func (e *recEnv) ID() types.ReplicaID                 { return e.id }
func (e *recEnv) Params() quorum.Params               { return e.params }
func (e *recEnv) Send(types.ReplicaID, types.Message) {}
func (e *recEnv) Broadcast(m types.Message) {
	if pp, ok := m.(*types.PrePrepare); ok {
		e.props = append(e.props, pp)
	}
}
func (e *recEnv) SendClient(types.ClientID, types.Message) {}
func (e *recEnv) Deliver(d sm.Decision)                    { e.decs = append(e.decs, d) }
func (e *recEnv) SetTimer(id sm.TimerID, d time.Duration) {
	if e.timers == nil {
		e.timers = make(map[sm.TimerID]time.Duration)
	}
	e.timers[id] = d
}
func (e *recEnv) CancelTimer(id sm.TimerID)                 { delete(e.timers, id) }
func (e *recEnv) Now() time.Duration                        { return 0 }
func (e *recEnv) Suspect(_ types.InstanceID, r types.Round) { e.suspects = append(e.suspects, r) }
func (e *recEnv) Logf(string, ...any)                       {}

func newFixed(t *testing.T) (*Instance, *recEnv) {
	t.Helper()
	params, err := quorum.NewParams(4)
	if err != nil {
		t.Fatal(err)
	}
	env := &recEnv{id: 1, params: params}
	p := New(Config{Instance: 0, Primary: 0, FixedPrimary: true, Window: 16})
	p.Start(env)
	return p, env
}

func adopt(p *Instance, r types.Round, tag byte) {
	b := &types.Batch{Txns: []types.Transaction{{Client: 1, Seq: uint64(r), Op: []byte{tag}}}}
	p.AdoptDecision(sm.Decision{Round: r, Digest: b.Digest(), Batch: b})
}

func TestSkipToDeliversCommittedInRange(t *testing.T) {
	p, env := newFixed(t)
	// Rounds 2 and 5 committed; 1, 3, 4 void. Nothing delivered yet
	// (round 1 parks the frontier).
	adopt(p, 2, 'b')
	adopt(p, 5, 'e')
	if len(env.decs) != 0 {
		t.Fatalf("delivered %d before skip", len(env.decs))
	}
	p.SkipTo(7)
	if len(env.decs) != 2 {
		t.Fatalf("delivered %d, want 2 (rounds 2 and 5)", len(env.decs))
	}
	if env.decs[0].Round != 2 || env.decs[1].Round != 5 {
		t.Fatalf("delivery order %d, %d", env.decs[0].Round, env.decs[1].Round)
	}
	if p.Delivered() != 7 {
		t.Fatalf("frontier %d, want 7", p.Delivered())
	}
}

func TestSkipToHugeRangeIsCheap(t *testing.T) {
	// Restart penalties can span millions of rounds (Fig. 4 line 12); the
	// skip must not materialize them.
	p, _ := newFixed(t)
	adopt(p, 1, 'a')
	start := time.Now()
	p.SkipTo(50_000_000)
	if d := time.Since(start); d > 200*time.Millisecond {
		t.Fatalf("SkipTo(50M) took %v", d)
	}
	if p.Delivered() != 50_000_000 {
		t.Fatalf("frontier %d", p.Delivered())
	}
	if len(p.rounds) > 2 {
		t.Fatalf("skip left %d round entries behind", len(p.rounds))
	}
}

func TestSkipToIdempotentAndBackwardsSafe(t *testing.T) {
	p, env := newFixed(t)
	adopt(p, 1, 'a')
	p.SkipTo(10)
	n := len(env.decs)
	p.SkipTo(10) // same target
	p.SkipTo(5)  // backwards: no-op
	if len(env.decs) != n {
		t.Fatal("repeated/backwards skip re-delivered")
	}
}

func TestSkipToDiscardsPartialRounds(t *testing.T) {
	p, _ := newFixed(t)
	// A preprepared-but-uncommitted round inside the skip range is void
	// by agreement and must be discarded.
	b := &types.Batch{Txns: []types.Transaction{{Client: 1, Seq: 1, Op: []byte("x")}}}
	pp := &types.PrePrepare{View: 0, Round: 3, Digest: b.Digest(), Batch: b}
	p.OnMessage(sm.FromReplica(0), pp)
	if len(p.rounds) != 1 {
		t.Fatal("preprepare not recorded")
	}
	p.SkipTo(10)
	if _, ok := p.rounds[3]; ok {
		t.Fatal("void partial round survived the skip")
	}
}

func TestResumeAtKeepsProposerAboveFloor(t *testing.T) {
	params, _ := quorum.NewParams(4)
	env := &recEnv{id: 0, params: params}
	p := New(Config{Instance: 0, Primary: 0, FixedPrimary: true, Window: 4})
	p.Start(env)
	p.Halt()
	p.ResumeAt(100)
	if got := p.NextProposeRound(); got != 100 {
		t.Fatalf("next propose round %d, want 100", got)
	}
	b := &types.Batch{Txns: []types.Transaction{{Client: 1, Seq: 1, Op: []byte("x")}}}
	if !p.Propose(b) {
		t.Fatal("primary cannot propose after resume")
	}
}

func TestVoidRangeDigestDistinguishesRanges(t *testing.T) {
	if voidRangeDigest(1, 5) == voidRangeDigest(1, 6) {
		t.Fatal("range digests collide on different ends")
	}
	if voidRangeDigest(1, 5) == voidRangeDigest(2, 5) {
		t.Fatal("range digests collide on different starts")
	}
	if voidRangeDigest(3, 9) != voidRangeDigest(3, 9) {
		t.Fatal("range digest not deterministic")
	}
}

func TestRetentionGCBoundsRoundState(t *testing.T) {
	params, _ := quorum.NewParams(4)
	env := &recEnv{id: 1, params: params}
	p := New(Config{Instance: 0, Primary: 0, FixedPrimary: true, Window: 16, retainDelivered: 64})
	p.Start(env)
	for r := types.Round(1); r <= 1000; r++ {
		adopt(p, r, byte(r))
	}
	if len(env.decs) != 1000 {
		t.Fatalf("delivered %d, want 1000", len(env.decs))
	}
	// The per-round map must stay bounded near the retention window, not
	// grow with total history.
	if len(p.rounds) > 64+64/4+1 {
		t.Fatalf("retention GC left %d round entries (window 64)", len(p.rounds))
	}
}
