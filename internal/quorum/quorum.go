// Package quorum implements the quorum arithmetic of Byzantine consensus
// (n > 3f; nf = n − f non-faulty replicas) shared by all protocols in this
// repository.
package quorum

import "fmt"

// Params captures the fault-tolerance parameters of a deployment.
type Params struct {
	N int // total replicas
	F int // maximum Byzantine replicas tolerated
}

// NewParams derives Params for n replicas with the maximum f such that
// n > 3f. It returns an error when n < 4 (no fault can be tolerated in a
// meaningful BFT setup below four replicas).
func NewParams(n int) (Params, error) {
	if n < 4 {
		return Params{}, fmt.Errorf("quorum: need at least 4 replicas, got %d", n)
	}
	return Params{N: n, F: (n - 1) / 3}, nil
}

// NF returns nf = n − f, the number of non-faulty replicas (and the size of
// a Byzantine quorum).
func (p Params) NF() int { return p.N - p.F }

// FaultDetection returns f+1, the number of distinct claims that guarantees
// at least one comes from a non-faulty replica.
func (p Params) FaultDetection() int { return p.F + 1 }

// InDarkRecovery returns nf − f, the minimum number of non-faulty replicas
// guaranteed to hold an accepted proposal (Assumption A1/A3), which is also
// the threshold of failure claims that triggers a dynamic per-need
// checkpoint (§III-D).
func (p Params) InDarkRecovery() int { return p.NF() - p.F }
