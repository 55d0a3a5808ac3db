package sm

import (
	"testing"

	"repro/internal/types"
)

func TestSourceConstructors(t *testing.T) {
	r := FromReplica(7)
	if r.IsClient || r.Replica != 7 {
		t.Fatalf("FromReplica: %+v", r)
	}
	c := FromClient(42)
	if !c.IsClient || c.Client != 42 {
		t.Fatalf("FromClient: %+v", c)
	}
}

func TestTimerIDsDistinguishInstancesKindsRounds(t *testing.T) {
	ids := map[TimerID]bool{}
	for _, inst := range []types.InstanceID{0, 1, types.CoordInstance(1)} {
		for _, kind := range []TimerKind{TimerProgress, TimerRecovery, TimerLag} {
			for _, round := range []types.Round{0, 1} {
				ids[TimerID{Instance: inst, Kind: kind, Round: round}] = true
			}
		}
	}
	if len(ids) != 18 {
		t.Fatalf("timer IDs collide: %d distinct, want 18", len(ids))
	}
}
