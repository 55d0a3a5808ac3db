package quorum

import (
	"testing"
	"testing/quick"
)

func TestNewParamsRejectsTinyClusters(t *testing.T) {
	for n := -1; n < 4; n++ {
		if _, err := NewParams(n); err == nil {
			t.Fatalf("accepted n=%d", n)
		}
	}
}

func TestParamsKnownValues(t *testing.T) {
	cases := []struct{ n, f, nf int }{
		{4, 1, 3}, {7, 2, 5}, {10, 3, 7}, {16, 5, 11},
		{32, 10, 22}, {64, 21, 43}, {91, 30, 61},
	}
	for _, c := range cases {
		p, err := NewParams(c.n)
		if err != nil {
			t.Fatal(err)
		}
		if p.F != c.f || p.NF() != c.nf || p.N <= 3*p.F {
			t.Fatalf("n=%d: f=%d nf=%d, want f=%d nf=%d with n > 3f", c.n, p.F, p.NF(), c.f, c.nf)
		}
	}
}

// TestQuorumIntersection checks the property all BFT safety rests on: two
// quorums of nf replicas overlap in at least f+1 replicas, hence in at
// least one non-faulty replica.
func TestQuorumIntersection(t *testing.T) {
	f := func(nRaw uint8) bool {
		n := int(nRaw%100) + 4
		p, err := NewParams(n)
		if err != nil {
			return false
		}
		overlap := 2*p.NF() - p.N
		return overlap >= p.F+1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestInDarkRecoveryBound checks nf − f > f (Assumption A1's consequence):
// the replicas guaranteed to hold an accepted proposal outnumber the faulty
// ones, so checkpoints can always out-vote them.
func TestInDarkRecoveryBound(t *testing.T) {
	for n := 4; n <= 128; n++ {
		p, _ := NewParams(n)
		if p.InDarkRecovery() <= p.F {
			t.Fatalf("n=%d: nf−f=%d not above f=%d", n, p.InDarkRecovery(), p.F)
		}
	}
}
