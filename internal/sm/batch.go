package sm

import (
	"time"

	"repro/internal/types"
)

// BatchDeadline is a primary's partial-batch deadline. Request arrivals do
// not move it, so a queued request waits at most one deadline plus a window
// slot for its batch. It is measured either from the last proposal or,
// patiently, from the first moment after it at which the primary had both a
// free window slot and a queued request. Waiting for a slot or for a first
// request then does not count, so a window-bound primary, or one whose
// requests arrive in bursts, keeps filling its batches instead of cutting a
// partial as soon as it can. One BatchDeadline drives one instance's
// TimerBatch.
type BatchDeadline struct {
	last    time.Duration // Now() at the last proposal
	from    time.Duration // start of the patient deadline
	stalled bool          // the last proposal filled the window or emptied the queue
	armed   time.Duration // deadline TimerBatch is set for; 0 when none
}

// Proposed records a proposal at now, which filled the window or emptied
// the queue if stalled, and returns the gap since the previous proposal
// (since start, for the first).
func (b *BatchDeadline) Proposed(now time.Duration, stalled bool) time.Duration {
	gap := now - b.last
	b.last, b.from, b.stalled = now, now, stalled
	return gap
}

// Passed reports whether wait has elapsed since the deadline's start: the
// last proposal (start, before the first), or the patient start if patient.
// Callers consult it only while they have a free slot and a queued
// request. If the deadline has not passed, Passed arms inst's TimerBatch
// for it, once per deadline.
func (b *BatchDeadline) Passed(env Env, inst types.InstanceID, wait time.Duration, patient bool) bool {
	now := env.Now()
	start := b.last
	if patient {
		if b.stalled {
			b.from, b.stalled = now, false
		}
		start = b.from
	}
	due := start + wait
	if now >= due {
		return true
	}
	if b.armed != due {
		b.armed = due
		env.SetTimer(TimerID{Instance: inst, Kind: TimerBatch}, due-now)
	}
	return false
}

// Fired records that TimerBatch fired, so the next Passed arms it again.
func (b *BatchDeadline) Fired() { b.armed = 0 }
