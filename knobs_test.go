package repro

import (
	"reflect"
	"slices"
	"testing"

	"repro/internal/chaos"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/pbft"
	"repro/internal/rcc"
	"repro/internal/runtime"
	"repro/internal/statesync"
	"repro/internal/store"
	"repro/internal/transport"
)

// knobCensus is the reviewed list of exported fields on the option structs
// of the replica-process path and its two consensus machines. Every entry
// is a knob some caller outside tests sets to more than one value, or a
// deployment setting, with two exceptions: store.Options.AsyncQueueDepth,
// a cross-package test seam (runtime's tests set it through another
// package), which stays exported until an export_test.go hook replaces it
// (ROADMAP 19a); and client.Config's Broadcast, which every caller sets to
// true, with the Primary and Instance that only a non-broadcasting client
// reads (ROADMAP 24c). A field that every caller leaves at its default is
// an unexported constant instead; a tuning only same-package tests change
// is an unexported field.
var knobCensus = []struct {
	v      any
	fields []string
}{
	{transport.TCPConfig{}, []string{"Self", "SelfClient", "IsClient", "Listen", "Peers", "Auth",
		"DigestCache", "VerifyObserve", "Flight", "Faults"}},
	{statesync.Config{}, []string{"Self", "N", "OfferWait", "RetryInterval", "SteadyProbe", "Flight"}},
	{runtime.StateSyncOptions{}, []string{"Enabled", "OfferWait", "Retry", "SteadyProbe"}},
	{runtime.FlightOptions{}, []string{"MirrorInterval"}},
	{runtime.JournalOptions{}, []string{"Sync", "Async", "SnapshotEvery", "PruneWAL", "Failpoints"}},
	{store.Options{}, []string{"Sync", "AsyncQueueDepth", "AsyncOnCommit", "Identity", "PruneWAL", "Failpoints"}},
	{core.Options{}, []string{"N", "Protocol", "BatchSize", "Window", "ProgressTimeout", "App", "DataDir", "SnapshotEvery", "UnpredictableOrdering", "Metrics"}},
	{chaos.Config{}, []string{"Nodes", "Duration", "Seed", "WAN", "ArtifactDir", "Schedule", "Logf"}},
	{client.Config{}, []string{"Client", "RetryTimeout", "Broadcast", "Primary", "Instance"}},
	{rcc.Config{}, []string{"BatchSize", "Window", "ProgressTimeout", "RecoveryTimeout", "UnpredictableOrdering", "Metrics"}},
	{pbft.Config{}, []string{"Instance", "Primary", "FixedPrimary", "Window", "ProgressTimeout", "BatchSize", "Metrics"}},
}

// TestKnobCensus fails when an option struct gains or loses an exported
// field without the table above changing with it, so adding a knob takes a
// reviewed edit here.
func TestKnobCensus(t *testing.T) {
	for _, c := range knobCensus {
		ty := reflect.TypeOf(c.v)
		var got []string
		for i := 0; i < ty.NumField(); i++ {
			if f := ty.Field(i); f.IsExported() {
				got = append(got, f.Name)
				if !slices.Contains(c.fields, f.Name) {
					t.Errorf("%v.%s is a new exported knob: list its non-test callers and the values they pass "+
						"(ROADMAP landing rule L6); keep it only if they differ, and then add it to knobCensus", ty, f.Name)
				}
			}
		}
		for _, name := range c.fields {
			if !slices.Contains(got, name) {
				t.Errorf("%v.%s is in knobCensus but no longer exported: drop it from the table", ty, name)
			}
		}
	}
}
