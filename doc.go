// Package heardof is a Go reproduction of "Communication Predicates: A
// High-Level Abstraction for Coping with Transient and Dynamic Faults"
// (Martin Hutle and André Schiper, DSN 2007).
//
// The repository implements the Heard-Of (HO) round model, communication
// predicates, the OneThirdRule consensus algorithm, the paper's §4.1
// real-time system model as a deterministic discrete-event simulator, the
// predicate-implementation layer (Algorithms 2, 3, and 4), and the
// failure-detector baselines the paper argues against (Chandra–Toueg ◇S
// consensus and the Aguilera et al. crash-recovery consensus).
//
// Above the reproduction sits a service stack with ONE replica core
// (live.ReplicaCore: batched proposals, decision sync, exactly-once
// sessions) and two ways to run its rounds: a deterministic
// virtual-round driver (internal/rsm) under the simulated, sharded KV
// store (internal/kvstore), and a live deployment runtime
// (internal/live, internal/livekv) that runs the same core over real
// channel/TCP transports behind the cmd/hoserve HTTP server.
//
// The public surface lives in the internal packages (this module is a
// self-contained research artifact); see DESIGN.md for the system inventory
// and EXPERIMENTS.md for the paper-versus-measured record of every result.
//
// Layering follows Figure 1 of the paper:
//
//	HO algorithm layer:        internal/core, internal/otr, internal/uv,
//	                           internal/lastvoting, internal/translation
//	predicate interface:       internal/predicate
//	implementation layer:      internal/predimpl (Algorithms 2 and 3)
//	system model:              internal/simtime (§4.1), internal/stable
//	baselines:                 internal/runtime, internal/fd, internal/ctcs,
//	                           internal/acr
//	service layers:            internal/rsm, internal/kvstore
//	live runtime (real time):  internal/live, internal/livekv (DESIGN.md §9)
package heardof
