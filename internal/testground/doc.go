// Package testground is the distributed campaign runner: it turns a
// declarative test-plan manifest into an orchestrated multi-process
// run of the real binaries and a scored, archivable report — the
// in-tree counterpart of running a TestGround-style testbed against
// the TinyLEO control plane.
//
// A plan (Manifest, parsed from JSON by Load) declares what to
// launch (agent count, control slots, constellation shape), what to
// break when (a fault schedule), and what "good" means (a flight
// recorder SLO rule spec). Two modes execute it:
//
//   - exec (RunExec): one real tinyleo-ctl and N real tinyleo-sat
//     processes over the real TCP southbound. A small sync service
//     (Sync: HTTP barriers + parameter distribution) coordinates
//     startup — the controller publishes its :0-bound addresses, every
//     agent resolves them and rendezvouses at the start barrier before
//     dialing. Faults are delivered as process signals (kill, term,
//     stop, cont) on schedule. Artifacts (fleet snapshot, flight
//     recordings, traces, process logs) are collected into a run
//     directory and the run is scored over the final fleet snapshot.
//
//   - virtual (RunVirtual): the same plan drives the in-process chaos
//     engine (internal/chaos) on a virtual clock. Same manifest + seed
//     → byte-identical scored report, which is what CI diffs.
//
// The scored RunReport reuses the flight recorder's SLO engine
// (internal/obs/flightrec): rules evaluate over the fleet snapshot's
// derived health series plus the controller's own telemetry, and the
// report records every verdict alongside the executed fault schedule
// and the artifact inventory.
package testground
