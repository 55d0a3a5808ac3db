// Package chaos is the randomized fault-injection harness: it drives a
// real multi-node TCP cluster under sustained closed-loop client load
// while a seeded schedule injects the failure modes a deployment actually
// meets — abrupt process death (kill -9), data-directory wipes, network
// partitions, fsync errors, and torn writes at crash — and verifies after
// every run that no acknowledged transaction was lost, that no height ever
// carried two different blocks, and that the surviving replicas reconverge
// to one head.
//
// The harness is built from four pieces:
//
//   - Schedule (schedule.go): a reproducible fault timeline. Generate is a
//     pure function of its seed, so a failing run is replayed exactly by
//     rerunning the same seed; the generator never disturbs more than f
//     nodes at once, keeping a live quorum by construction.
//   - Cluster (cluster.go): node lifecycle over real loopback TCP. Every
//     node is a full runtime.Replica — durable WAL, periodic checkpoints
//     with WAL pruning, state transfer that also trusts f+1 identical
//     checkpoint offers, flight recorder — behind a transport.TCP that shares
//     one transport.Faults matrix (partitions, per-link WAN delays) and
//     one wal.Failpoints per node (fsync-error, torn-write).
//   - Monitor (monitor.go): accumulates every acknowledged transaction and
//     every committed block the moment a live replica materializes it,
//     cross-checking block identity across replicas while the run is still
//     going — a safety violation is caught at the height it happens, not
//     at the end.
//   - Verdict (chaos.go, verify.go): after the schedule drains, the
//     cluster heals, down nodes restart, and the run passes only if the
//     cluster reconverges (equal height, head hash, and state digest
//     everywhere), every acked transaction is on the chain, and no
//     transaction committed twice. A failed run dumps each incarnation's
//     flight ring and the merged cluster timeline with detected anomalies
//     — the same artifacts a production incident would leave behind.
//
// Run it via rccbench -exp chaos (flags: -seed, -nodes, -duration, -wan).
package chaos
