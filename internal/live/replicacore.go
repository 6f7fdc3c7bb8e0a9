// ReplicaCore: the replica protocol as a pure step function. Everything
// that makes the live replica a PROTOCOL — round-message delivery into
// the per-slot instance, batch dissemination and adopt-newest-offered
// proposals, push/pull decision sync, apply-side (client,seq) dedup, and
// batch GC against the min-peer-applied horizon — lives here as
//
//	state × event → state′ × outbound envelopes × applied entries
//
// with no goroutines, channels, clocks, or I/O. Three consumers drive it:
//
//   - Replica (replica.go), the production shell: one goroutine feeds
//     transport deliveries, round-timeout fires, and heartbeat ticks in
//     as events, sends the returned envelopes, and resolves waiters for
//     the returned applied entries. Real time exists only there.
//   - The exhaustive model checker (internal/modelcheck), which clones
//     cores, enumerates every interleaving of the same events over a
//     message soup, and checks safety invariants on each reachable
//     state. Because it runs THIS code, what the checker verifies is
//     the deployed protocol, not a hand-written model of it.
//   - The simulator's virtual-round driver (internal/rsm), which steps n
//     cores in lockstep ticks under an HO environment, so the simulated
//     KV service runs the deployed replica code too.
//
// Within one Step the core self-drives to a local fixpoint: any event
// may unblock applying decided slots, which may free the core to start
// the next slot's consensus, which may (for n=1 or a jumped backlog)
// close rounds immediately. Events are therefore coarse "something
// happened" edges; the core owns all protocol sequencing.

package live

import (
	"errors"
	"fmt"

	"heardof/internal/core"
)

// Mutation re-introduces a previously fixed protocol bug, for the model
// checker's seeded-mutant suite (DESIGN.md §10): each mutant must make
// the checker report a violation, proving the checker would have caught
// the original bug. Production configurations MUST leave this zero;
// NewReplica rejects anything else.
type Mutation uint16

const (
	// MutFreshRetry restarts an undecided slot with a fresh instance
	// after RetryAfter rounds — the pre-PR-5-review bug that discarded
	// LastVoting's locked vote (x_p, ts_p) and let a second attempt
	// decide differently from a first-attempt decision it never saw.
	MutFreshRetry Mutation = 1 << iota
	// MutNoJump disables the jump rule (see node.go): a process never
	// closes a round early on observing a peer beyond it. Two survivors
	// of a larger group can then drift a constant number of rounds apart
	// forever — the livelock the jump rule was introduced to fix.
	MutNoJump
	// MutForgetVote makes crash-RECOVERY drop the persisted locked vote
	// (RestoreReplicaCore skips re-installing it): the recovered replica
	// restarts its slot from scratch and can help decide a value a
	// pre-crash quorum that included its vote already contradicts — the
	// split decision durability exists to prevent.
	MutForgetVote
)

// CoreConfig parameterizes one process's protocol core. It is the
// protocol subset of ReplicaConfig: no transport, no timeouts, no apply
// hook — those belong to the shell driving the core.
type CoreConfig[C any] struct {
	// Self and N identify this process within the group's n processes.
	Self core.ProcessID
	N    int
	// Algorithm decides each slot; Msg is its wire codec.
	Algorithm core.Algorithm
	Msg       Codec
	// Batch serializes command batches.
	Batch BatchCodec[C]
	// MaxBatch caps commands per proposal (default 64).
	MaxBatch int

	// Persist, when non-nil, receives every protocol fact that must be
	// durable (see persist.go). The core only buffers saves; the shell
	// owns the Sync barrier. Nil means volatile operation.
	Persist Persister

	// Mutation re-enables a seeded protocol bug (model checker only).
	Mutation Mutation
	// RetryAfter is MutFreshRetry's trigger: rounds before an undecided
	// slot is restarted with a fresh instance (default 5 when mutated).
	RetryAfter core.Round

	// MaxRound, when nonzero, freezes a slot's round progression at that
	// round: the collection window of round MaxRound never closes. This
	// is a model-checking bound (rounds are unbounded in production —
	// the checker needs a finite state space) and must be zero in the
	// shell.
	MaxRound core.Round
	// MaxSlots, when nonzero, stops the core from STARTING consensus for
	// slots beyond it (externally decided slots still apply). A model
	// bound like MaxRound; zero in the shell.
	MaxSlots uint64
}

// EventKind discriminates core events.
type EventKind uint8

const (
	// EvEnvelope delivers one inbound transport envelope.
	EvEnvelope EventKind = iota + 1
	// EvSubmit accepts a local command under a client session.
	EvSubmit
	// EvRoundTimeout closes the running round's collection window (the
	// shell's per-round timer fired; the checker schedules it freely).
	EvRoundTimeout
	// EvTick is the idle anti-entropy edge: re-pull a missing decided
	// batch, or probe peers for decisions when fully idle.
	EvTick
	// EvNudge carries no input; it just lets the core re-run its
	// advance fixpoint (used by the shell after Submit registered work).
	EvNudge
)

// Event is one core input.
type Event[C any] struct {
	Kind EventKind
	// Env is EvEnvelope's payload.
	Env Envelope
	// Client, Seq, Cmd are EvSubmit's payload.
	Client, Seq uint64
	Cmd         C
}

// Outbound is one envelope the step wants transmitted. To == AllPeers
// broadcasts to every process but self.
type Outbound struct {
	To  core.ProcessID
	Env Envelope
}

// AllPeers broadcasts an outbound envelope to the whole group.
const AllPeers = core.ProcessID(-1)

// AppliedEntry reports one entry committed by a step, in commit order.
// Fresh entries passed session dedup (the shell runs the Apply hook and
// counts them); stale ones resolve as duplicates.
type AppliedEntry[C any] struct {
	Slot  uint64
	Entry Entry[C]
	Fresh bool
}

// StepResult is everything a step asks its driver to do.
type StepResult[C any] struct {
	// Out lists envelopes to transmit, in order.
	Out []Outbound
	// Applied lists entries committed by this step, in commit order.
	Applied []AppliedEntry[C]
	// SubmitDup reports that an EvSubmit's sequence number was at or
	// below the client's applied high-water mark.
	SubmitDup bool
}

// ReplicaCore is the protocol state of one replica. It is NOT
// goroutine-safe: the shell serializes access under its mutex, the
// checker is single-threaded per exploration branch.
type ReplicaCore[C any] struct {
	cfg CoreConfig[C]

	pending   []Entry[C]
	batches   map[int64][]Entry[C]
	inLog     map[int64]bool     // batch ids a log slot decided (retention anchor)
	offered   map[int64]struct{} // peer batches not yet fully applied
	decided   map[uint64]int64   // slot → batch id, not yet applied
	maxSeen   map[uint64]uint64  // client → highest accepted seq
	log       []int64            // applied decisions; log[i] decided slot i+1
	logHash   uint64
	hwm       map[uint64]uint64 // client → highest applied seq
	batchSeq  int64
	poked     bool   // round traffic for our next slot arrived while idle
	blockedOn int64  // decided batch id whose contents are being pulled
	eagerPush uint64 // own-decided slot to push once applied

	// restoredVote holds a crash-recovered instance encoding until
	// consensus for its slot restarts and re-installs it (persist.go).
	restoredVote     []byte
	restoredVoteSlot uint64

	// peerApplied tracks each peer's last observed commit index (their
	// round messages carry their current slot; their sync pulls carry
	// applied+1). Batches of slots every replica has applied are pruned
	// — the GC horizon that keeps long-running servers bounded. A peer
	// that has never been heard from pins the horizon at 0.
	peerApplied map[core.ProcessID]uint64
	prunedTo    uint64

	cur *slotRun // non-nil while a slot instance runs

	stats ReplicaStats
}

// maxSyncPairs caps decisions per sync push.
const maxSyncPairs = 128

// NewReplicaCore validates the configuration and builds an idle core.
func NewReplicaCore[C any](cfg CoreConfig[C]) (*ReplicaCore[C], error) {
	if cfg.N < 1 || cfg.N > core.MaxProcesses {
		return nil, fmt.Errorf("live: group size %d out of range [1, %d]", cfg.N, core.MaxProcesses)
	}
	if int(cfg.Self) < 0 || int(cfg.Self) >= cfg.N {
		return nil, fmt.Errorf("live: self %d outside group of %d", cfg.Self, cfg.N)
	}
	if cfg.Algorithm == nil || cfg.Msg == nil || cfg.Batch == nil {
		return nil, errors.New("live: nil algorithm, codec, or batch codec")
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	if cfg.Mutation&MutFreshRetry != 0 && cfg.RetryAfter <= 0 {
		cfg.RetryAfter = 5
	}
	if cfg.Persist != nil {
		if _, ok := cfg.Algorithm.NewInstance(cfg.Self, cfg.N, 0).(statePersistent); !ok {
			return nil, fmt.Errorf("live: algorithm %T cannot persist instance state", cfg.Algorithm)
		}
	}
	return &ReplicaCore[C]{
		cfg:         cfg,
		batches:     make(map[int64][]Entry[C]),
		inLog:       make(map[int64]bool),
		offered:     make(map[int64]struct{}),
		decided:     make(map[uint64]int64),
		maxSeen:     make(map[uint64]uint64),
		hwm:         make(map[uint64]uint64),
		peerApplied: make(map[core.ProcessID]uint64),
		logHash:     14695981039346656037, // FNV-64 offset basis
	}, nil
}

// Step applies one event and self-drives to a fixpoint: apply every
// decided-and-fetchable slot, then start the next slot's consensus if
// there is work. The returned result is the step's complete effect.
func (c *ReplicaCore[C]) Step(ev Event[C]) StepResult[C] {
	var res StepResult[C]
	switch ev.Kind {
	case EvEnvelope:
		c.handleEnvelope(ev.Env, &res)
	case EvSubmit:
		c.handleSubmit(ev, &res)
	case EvRoundTimeout:
		if c.cur != nil {
			c.transitionRound(&res)
			c.closeRounds(&res)
		}
	case EvTick:
		c.handleTick(&res)
	case EvNudge:
	}
	c.advance(&res)
	return res
}

// ---------------------------------------------------------------------
// Event handlers.

// handleSubmit records a fresh submission (or flags a duplicate).
func (c *ReplicaCore[C]) handleSubmit(ev Event[C], res *StepResult[C]) {
	if ev.Seq > c.maxSeen[ev.Client] {
		c.maxSeen[ev.Client] = ev.Seq
	}
	if ev.Seq <= c.hwm[ev.Client] {
		res.SubmitDup = true
		return
	}
	for _, e := range c.pending {
		if e.Client == ev.Client && e.Seq == ev.Seq {
			return // a resubmission of a still-pending command
		}
	}
	c.pending = append(c.pending, Entry[C]{Client: ev.Client, Seq: ev.Seq, Cmd: ev.Cmd})
}

// Accept records a submission WITHOUT driving the protocol forward — the
// shell's submit path, which nudges its event loop to advance instead of
// running consensus on the submitter's goroutine. It reports whether the
// sequence number was already applied (a duplicate).
func (c *ReplicaCore[C]) Accept(client, seq uint64, cmd C) (dup bool) {
	var res StepResult[C]
	c.handleSubmit(Event[C]{Kind: EvSubmit, Client: client, Seq: seq, Cmd: cmd}, &res)
	return res.SubmitDup
}

// handleTick is the anti-entropy edge: while consensus runs it is a
// no-op (round pacing owns the clock); while blocked on decided batch
// contents it re-pulls them; while idle it probes peers for decisions
// we may have missed.
func (c *ReplicaCore[C]) handleTick(res *StepResult[C]) {
	if c.cur != nil {
		return
	}
	if c.blockedOn != 0 {
		res.Out = append(res.Out, Outbound{To: AllPeers, Env: Envelope{
			Kind: KindBatchPull, From: c.cfg.Self, Payload: appendVarint(nil, c.blockedOn)}})
		return
	}
	next := uint64(len(c.log)) + 1
	res.Out = append(res.Out, Outbound{To: AllPeers, Env: Envelope{
		Slot: next, Kind: KindSyncPull, From: c.cfg.Self, Payload: appendUvarint(nil, next)}})
}

// handleEnvelope dispatches one inbound envelope.
func (c *ReplicaCore[C]) handleEnvelope(env Envelope, res *StepResult[C]) {
	switch env.Kind {
	case KindRound:
		c.handleRound(env, res)
	case KindBatch:
		c.handleBatch(env, res)
	case KindBatchPull:
		if bid, n := varint(env.Payload); n > 0 {
			if entries, ok := c.batches[bid]; ok {
				payload := c.cfg.Batch.AppendEntries(appendVarint(nil, bid), entries)
				res.Out = append(res.Out, Outbound{To: env.From, Env: Envelope{
					Kind: KindBatch, From: c.cfg.Self, Payload: payload}})
			}
		} else {
			c.stats.Malformed++
		}
	case KindSync:
		c.handleSync(env, res)
	case KindSyncPull:
		if from, n := uvarint(env.Payload); n > 0 {
			if from > 0 {
				c.notePeerApplied(env.From, from-1)
			}
			c.pushDecisions(env.From, from, res)
		} else {
			c.stats.Malformed++
		}
	default:
		c.stats.Malformed++
	}
}

// handleRound classifies a consensus message by slot: current → the
// running instance (or a work poke when idle); old → the sender lags,
// push decisions; future → we lag, pull decisions.
func (c *ReplicaCore[C]) handleRound(env Envelope, res *StepResult[C]) {
	msg, err := c.cfg.Msg.Decode(env.Payload)
	if err != nil {
		c.stats.Malformed++
		return
	}
	// A round message for slot s says its sender has applied s−1.
	if env.Slot > 0 {
		c.notePeerApplied(env.From, env.Slot-1)
	}
	next := uint64(len(c.log)) + 1
	switch {
	case env.Slot == next:
		if c.cur != nil {
			if c.cur.deliver(c.cfg.N, env.From, env.Round, msg, c.cfg.Mutation&MutNoJump != 0) {
				c.transitionRound(res)
				c.closeRounds(res)
			}
		} else {
			c.poked = true
		}
	case env.Slot < next:
		c.pushDecisions(env.From, env.Slot, res)
	default: // env.Slot > next: we lag
		res.Out = append(res.Out, Outbound{To: env.From, Env: Envelope{
			Kind: KindSyncPull, From: c.cfg.Self, Payload: appendUvarint(nil, next)}})
	}
}

// handleBatch stores a disseminated batch.
func (c *ReplicaCore[C]) handleBatch(env Envelope, res *StepResult[C]) {
	b := env.Payload
	bid, n := varint(b)
	if n <= 0 || bid <= 0 {
		c.stats.Malformed++
		return
	}
	entries, err := c.cfg.Batch.DecodeEntries(b[n:])
	if err != nil {
		c.stats.Malformed++
		return
	}
	if _, ok := c.batches[bid]; !ok {
		c.batches[bid] = entries
		if c.cfg.Persist != nil {
			c.cfg.Persist.SaveBatch(bid, b[n:])
		}
		if !c.batchApplied(bid) {
			c.offered[bid] = struct{}{}
		}
	}
}

// handleSync records pushed decisions.
func (c *ReplicaCore[C]) handleSync(env Envelope, res *StepResult[C]) {
	b := env.Payload
	count, n := uvarint(b)
	if n <= 0 || count > maxSyncPairs {
		c.stats.Malformed++
		return
	}
	b = b[n:]
	for i := uint64(0); i < count; i++ {
		slot, n1 := uvarint(b)
		if n1 <= 0 {
			c.stats.Malformed++
			return
		}
		bid, n2 := varint(b[n1:])
		if n2 <= 0 {
			c.stats.Malformed++
			return
		}
		b = b[n1+n2:]
		if slot == 0 {
			c.stats.Malformed++
			return
		}
		c.recordDecision(slot, bid, true)
	}
}

// ---------------------------------------------------------------------
// Consensus round sequencing (state machine in node.go).

// transitionRound closes the current round: apply T_p^r to the heard
// set, observe a decision, or (mutated) retry with a fresh instance.
func (c *ReplicaCore[C]) transitionRound(res *StepResult[C]) {
	if c.cfg.MaxRound > 0 && c.cur.r >= c.cfg.MaxRound {
		return // model bound: round MaxRound's window never closes
	}
	r := c.cur.r
	c.cur.inst.Transition(r, c.cur.inbox(c.cfg.N))
	c.stats.Rounds++
	if v, ok := c.cur.inst.Decided(); ok {
		slot := c.cur.slot
		c.cur = nil
		c.eagerPush = slot
		c.recordDecision(slot, int64(v), false)
		return
	}
	// The transition may have adopted or locked a vote: persist the
	// instance state before the next round's send can reveal it.
	c.persistVote()
	if c.cfg.Mutation&MutFreshRetry != 0 && r >= c.cfg.RetryAfter {
		// SEEDED BUG: discard the instance — and with it any locked
		// algorithm state — and let advance start a fresh attempt.
		c.cur = nil
		c.poked = true
		return
	}
	c.nextRound(res)
}

// nextRound enters the following round and broadcasts S_p^r.
func (c *ReplicaCore[C]) nextRound(res *StepResult[C]) {
	r := c.cur.r + 1
	payload := c.cur.inst.Send(r)
	c.cur.enter(c.cfg.N, r, c.cfg.Self, payload)
	c.emitRound(r, payload, res)
}

// closeRounds fast-forwards through rounds whose collection window is
// already closed (jumped backlog, or n=1 hearing itself).
func (c *ReplicaCore[C]) closeRounds(res *StepResult[C]) {
	for c.cur != nil && c.cur.closed(c.cfg.N, c.cfg.Mutation&MutNoJump != 0) {
		if c.cfg.MaxRound > 0 && c.cur.r >= c.cfg.MaxRound {
			return // model bound (see transitionRound)
		}
		c.transitionRound(res)
	}
}

// emitRound broadcasts one round message, counting undecodable payloads.
func (c *ReplicaCore[C]) emitRound(r core.Round, m core.Message, res *StepResult[C]) {
	b, err := c.cfg.Msg.Encode(m)
	if err != nil {
		c.stats.Malformed++
		return
	}
	res.Out = append(res.Out, Outbound{To: AllPeers, Env: Envelope{
		Slot: c.cur.slot, Round: r, Kind: KindRound, From: c.cfg.Self, Payload: b}})
}

// ---------------------------------------------------------------------
// The advance fixpoint: apply, then start.

// advance applies every decided slot whose contents are at hand, then
// starts the next slot's consensus if idle work exists, repeating until
// nothing changes.
func (c *ReplicaCore[C]) advance(res *StepResult[C]) {
	for {
		progressed := false
		for {
			slot := uint64(len(c.log)) + 1
			bid, ok := c.decided[slot]
			if !ok {
				break
			}
			if bid != 0 {
				if _, have := c.batches[bid]; !have {
					// Pull the missing contents; EvTick retries. The wait
					// is deliberately unbounded: the id was DECIDED, so
					// applying anything else would diverge (see the
					// fault-envelope note in replica.go's package comment).
					if c.blockedOn != bid {
						c.blockedOn = bid
						res.Out = append(res.Out, Outbound{To: AllPeers, Env: Envelope{
							Kind: KindBatchPull, From: c.cfg.Self, Payload: appendVarint(nil, bid)}})
					}
					break
				}
			}
			c.blockedOn = 0
			c.applySlot(slot, bid, res)
			progressed = true
		}
		if c.eagerPush != 0 && uint64(len(c.log)) >= c.eagerPush {
			// Eager push: peers that lost the deciding round learn the
			// outcome now instead of at the next sync trigger.
			from := c.eagerPush
			c.eagerPush = 0
			c.pushDecisions(AllPeers, from, res)
		}
		if c.cur == nil && c.blockedOn == 0 && c.hasWork() {
			if c.startSlot(res) {
				progressed = true
			}
		}
		if !progressed {
			return
		}
	}
}

// hasWork reports whether consensus for the next slot is warranted: a
// local or offered batch to commit, or peer round traffic showing the
// group is deciding it.
func (c *ReplicaCore[C]) hasWork() bool {
	if len(c.pending) > 0 || len(c.offered) > 0 {
		return true
	}
	if _, ok := c.decided[uint64(len(c.log))+1]; ok {
		return true
	}
	return c.poked
}

// startSlot opens the next slot's one instance and enters round 1.
func (c *ReplicaCore[C]) startSlot(res *StepResult[C]) bool {
	slot := uint64(len(c.log)) + 1
	if c.cfg.MaxSlots > 0 && slot > c.cfg.MaxSlots {
		return false // model bound: no consensus beyond the slot budget
	}
	c.poked = false
	proposal := c.propose(res)
	inst := c.cfg.Algorithm.NewInstance(c.cfg.Self, c.cfg.N, core.Value(proposal))
	if c.restoredVoteSlot != 0 {
		if c.restoredVoteSlot == slot {
			// Crash recovery: re-install the persisted instance state —
			// the locked vote — over the fresh proposal. The encoding was
			// validated at restore time; the round position restarts at 1
			// and the jump rule re-aligns us with the group.
			if sp, ok := inst.(statePersistent); ok {
				_ = sp.RestoreState(c.restoredVote)
			}
		}
		c.restoredVote, c.restoredVoteSlot = nil, 0
	}
	c.cur = newSlotRun(slot, inst)
	c.nextRound(res)
	c.closeRounds(res)
	return true
}

// propose picks this attempt's initial value: a fresh batch of local
// pending commands, else the newest offered peer batch, else the no-op 0.
func (c *ReplicaCore[C]) propose(res *StepResult[C]) int64 {
	if len(c.pending) > 0 {
		k := len(c.pending)
		if k > c.cfg.MaxBatch {
			k = c.cfg.MaxBatch
		}
		entries := make([]Entry[C], k)
		copy(entries, c.pending[:k])
		c.batchSeq++
		bid := (int64(c.cfg.Self)+1)<<40 | c.batchSeq
		c.batches[bid] = entries
		enc := c.cfg.Batch.AppendEntries(nil, entries)
		if c.cfg.Persist != nil {
			// Quorum-durable dissemination: the batch body is on our own
			// disk (after the shell's sync barrier) before any peer can see
			// — let alone vote for — its id.
			c.cfg.Persist.SaveBatch(bid, enc)
		}
		payload := append(appendVarint(nil, bid), enc...)
		res.Out = append(res.Out, Outbound{To: AllPeers, Env: Envelope{
			Kind: KindBatch, From: c.cfg.Self, Payload: payload}})
		return bid
	}
	var best int64
	for id := range c.offered {
		if id > best {
			best = id
		}
	}
	return best
}

// ---------------------------------------------------------------------
// Decisions, apply, GC.

// recordDecision folds one decision observation in. Conflicting
// observations for a slot — from our own instance, a peer's sync, or the
// applied log — increment Divergent and keep the first value, so a
// safety violation is counted, visible in /stats, and never silently
// overwritten.
func (c *ReplicaCore[C]) recordDecision(slot uint64, bid int64, viaSync bool) {
	if slot <= uint64(len(c.log)) {
		if c.log[slot-1] != bid {
			c.stats.Divergent++
		}
		return
	}
	if prev, ok := c.decided[slot]; ok {
		if prev != bid {
			c.stats.Divergent++
		}
		return
	}
	c.decided[slot] = bid
	if c.cfg.Persist != nil {
		c.cfg.Persist.SaveDecision(slot, bid)
	}
	if viaSync {
		c.stats.SyncDecisions++
	}
	if c.cur != nil && c.cur.slot == slot {
		// The running attempt's slot was decided externally: its one
		// instance is retired undecided (never restarted — restarting
		// would discard locked algorithm state; see node.go).
		c.cur = nil
	}
}

// applySlot commits slot's batch: apply fresh entries in order under
// session dedup, advance the log, prune. Contents must be at hand.
func (c *ReplicaCore[C]) applySlot(slot uint64, bid int64, res *StepResult[C]) {
	var entries []Entry[C]
	if bid != 0 {
		entries = c.batches[bid]
	}
	appliedFrom := len(res.Applied)
	for _, e := range entries {
		ae := AppliedEntry[C]{Slot: slot, Entry: e}
		if e.Seq > c.hwm[e.Client] {
			c.hwm[e.Client] = e.Seq
			ae.Fresh = true
			c.stats.Committed++
		}
		res.Applied = append(res.Applied, ae)
	}
	if len(entries) > 0 {
		// Drop applied commands from the local pending queue and retire
		// fully-applied offered batches.
		keep := c.pending[:0]
		for _, e := range c.pending {
			if e.Seq > c.hwm[e.Client] {
				keep = append(keep, e)
			}
		}
		c.pending = keep
		for id := range c.offered {
			if c.batchApplied(id) {
				delete(c.offered, id)
			}
		}
	}
	if c.cfg.Persist != nil {
		c.cfg.Persist.SaveApplied(slot, bid, c.persistFresh(res.Applied, appliedFrom))
	}
	delete(c.decided, slot)
	c.log = append(c.log, bid)
	if bid != 0 {
		c.inLog[bid] = true
	}
	const fnvPrime = 1099511628211
	c.logHash = (c.logHash ^ slot) * fnvPrime
	c.logHash = (c.logHash ^ uint64(bid)) * fnvPrime
	c.pruneBatches()
}

// pruneBatches bounds batch retention with two rules.
//
// Decided batches (in the log) are kept until every replica's observed
// commit index passes their slot: a laggard only ever pulls the batch
// of the slot it is applying, applied+1 ≤ horizon+1, so nothing past
// the horizon can be pulled again. A peer that was never heard from —
// or a long-dead one — pins this horizon, trading memory for its
// ability to rejoin from the log; bounded-membership GC is future work.
//
// Undecided batches (losing or superseded proposals — under contention
// most proposals lose) are dropped as soon as all their entries are at
// or below the local high-water marks: any replica that could still
// PROPOSE such a batch is by construction one that retains its
// contents (adoption only offers ids whose contents arrived, and a
// replica behind on the entries keeps them), so a later decision of
// the id can still be served.
func (c *ReplicaCore[C]) pruneBatches() {
	horizon := uint64(len(c.log))
	for q := 0; q < c.cfg.N; q++ {
		p := core.ProcessID(q)
		if p == c.cfg.Self {
			continue
		}
		if pa, ok := c.peerApplied[p]; !ok {
			horizon = 0
			break
		} else if pa < horizon {
			horizon = pa
		}
	}
	for s := c.prunedTo + 1; s <= horizon; s++ {
		if bid := c.log[s-1]; bid != 0 {
			delete(c.batches, bid)
			delete(c.inLog, bid)
		}
	}
	if horizon > c.prunedTo {
		c.prunedTo = horizon
	}
	for bid := range c.batches {
		if !c.inLog[bid] && c.batchApplied(bid) {
			delete(c.batches, bid)
			delete(c.offered, bid)
		}
	}
}

// notePeerApplied folds in an observation of a peer's commit index and
// re-runs the pruner (the horizon can advance on peer progress alone,
// e.g. after the local log has quiesced).
func (c *ReplicaCore[C]) notePeerApplied(p core.ProcessID, applied uint64) {
	if applied > c.peerApplied[p] {
		c.peerApplied[p] = applied
		c.pruneBatches()
	}
}

// batchApplied reports whether every entry of a known batch is at or
// below its client's high-water mark.
func (c *ReplicaCore[C]) batchApplied(bid int64) bool {
	entries, ok := c.batches[bid]
	if !ok {
		return false
	}
	for _, e := range entries {
		if e.Seq > c.hwm[e.Client] {
			return false
		}
	}
	return true
}

// pushDecisions emits the applied decisions from slot `from` on, to one
// peer or everyone. The shell rate-limits targeted pushes per peer.
func (c *ReplicaCore[C]) pushDecisions(to core.ProcessID, from uint64, res *StepResult[C]) {
	if from == 0 {
		from = 1
	}
	applied := uint64(len(c.log))
	if from > applied {
		return
	}
	count := applied - from + 1
	if count > maxSyncPairs {
		count = maxSyncPairs
	}
	payload := appendUvarint(nil, count)
	for s := from; s < from+count; s++ {
		payload = appendUvarint(payload, s)
		payload = appendVarint(payload, c.log[s-1])
	}
	res.Out = append(res.Out, Outbound{To: to, Env: Envelope{
		Kind: KindSync, From: c.cfg.Self, Payload: payload}})
}

// ---------------------------------------------------------------------
// Observers (shell and checker).

// LogFingerprint returns the applied slot count and the running FNV hash
// of the (slot, batch id) decision sequence.
func (c *ReplicaCore[C]) LogFingerprint() (uint64, uint64) {
	return uint64(len(c.log)), c.logHash
}

// DecisionLogCopy copies the applied decisions.
func (c *ReplicaCore[C]) DecisionLogCopy() []int64 {
	out := make([]int64, len(c.log))
	copy(out, c.log)
	return out
}

// LogAt returns the decided batch id of an applied slot (1-based), or
// false if the slot is beyond the log.
func (c *ReplicaCore[C]) LogAt(slot uint64) (int64, bool) {
	if slot == 0 || slot > uint64(len(c.log)) {
		return 0, false
	}
	return c.log[slot-1], true
}

// Counters snapshots the service counters, deriving the length-based
// fields from the current state.
func (c *ReplicaCore[C]) Counters() ReplicaStats {
	st := c.stats
	st.Applied = uint64(len(c.log))
	st.Pending = len(c.pending)
	st.BatchesHeld = len(c.batches)
	return st
}

// RoundState reports the running consensus attempt, if any.
func (c *ReplicaCore[C]) RoundState() (slot uint64, round core.Round, active bool) {
	if c.cur == nil {
		return 0, 0, false
	}
	return c.cur.slot, c.cur.r, true
}

// Blocked returns the decided batch id apply is waiting for (0 if none).
func (c *ReplicaCore[C]) Blocked() int64 { return c.blockedOn }

// NextSeq returns the client's next fresh sequence number.
func (c *ReplicaCore[C]) NextSeq(client uint64) uint64 { return c.maxSeen[client] + 1 }

// SeqApplied reports whether a client sequence number is at or below the
// applied high-water mark (i.e. a duplicate).
func (c *ReplicaCore[C]) SeqApplied(client, seq uint64) bool { return seq <= c.hwm[client] }

// NextSlot returns the first unapplied slot.
func (c *ReplicaCore[C]) NextSlot() uint64 { return uint64(len(c.log)) + 1 }

// DecidedUnapplied copies the decided-but-unapplied slot map.
func (c *ReplicaCore[C]) DecidedUnapplied() map[uint64]int64 {
	out := make(map[uint64]int64, len(c.decided))
	for s, b := range c.decided {
		out[s] = b
	}
	return out
}

// HoldsBatch reports whether the core retains a batch's contents.
func (c *ReplicaCore[C]) HoldsBatch(bid int64) bool {
	_, ok := c.batches[bid]
	return ok
}

// BatchesCreated returns this proposer's batch counter: ids
// (Self+1)<<40 | k for 1 ≤ k ≤ BatchesCreated() exist or existed.
func (c *ReplicaCore[C]) BatchesCreated() int64 { return c.batchSeq }
